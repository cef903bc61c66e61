"""Run a workload's ops, check every answer, and reduce timings to metrics.

One process, one thread: ops run one after another, each timed from its
first call into the program to its last.  A workload whose ops are short
runs each op ``repeats`` times and takes the median as its latency: the op
is deterministic, so the repeats differ only by the host's noise.

A run without tracing gives the end-to-end metrics, from op times scaled
to the reference speed of ``pace``.  A traced run times each op twice,
untraced and then traced, both unscaled and without speed samples, and
gives the per-layer metrics of ``tracing.per_layer``.
"""

from __future__ import annotations

import statistics
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import pace
import tracing
from workloads import LP, Layers, Op, Outcome, Workload, run_op

TAIL_BEYOND = 10


@dataclass
class Run:
    ops: list[Op]
    walls: list[float] = field(default_factory=list)  # scaled when untraced
    raw_walls: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)  # pace factor per op
    outcomes: list = field(default_factory=list)  # Outcome, None if it raised
    problems: dict[int, str] = field(default_factory=dict)
    tracer: tracing.Tracer | None = None

    @property
    def failed(self) -> int:
        return len(self.problems)


def timed_op(layers: Layers, op: Op, pacer: pace.Pacer | None,
             times: list[tuple[float, float, float]]):
    """Run the op; append (start, end, seconds net of speed samples)."""
    with pacer.timing() if pacer else nullcontext():
        start = perf_counter()
        paused = pacer.paused if pacer else 0.0
        try:
            return run_op(layers, op)
        finally:
            end = perf_counter()
            sampling = pacer.paused - paused if pacer else 0.0
            times.append((start, end, end - start - sampling))


def run_ops(workload: Workload, ops: list[Op], trace: bool,
            between: Callable[[int], None] | None = None) -> Run:
    """Run and check every op; a failure is counted, never raised.

    ``between(i)``, when given, is called untimed before op ``i`` and, with
    ``i == len(ops)``, after the last op.
    """
    run = Run(ops)
    plain = Layers()
    traced = None
    pacer = None
    if trace:
        run.tracer = tracing.Tracer()
        traced = Layers(run.tracer.wrap)
    else:
        pacer = pace.Pacer()
    timings = []
    for op in ops:
        if between is not None:
            between(op.index)
        times = []
        timings.append(times)
        try:
            for _ in range(workload.repeats):
                result = timed_op(plain, op, pacer, times)
            if traced is not None:
                run.tracer.op = op.index
                with run.tracer.span(tracing.OP):
                    result = run_op(traced, op)
            problem = workload.check(op.case, result)
            outcome = Outcome.of(result)
        except Exception as exc:  # a crash is a failed op, not a failed run
            traceback.print_exc(file=sys.stderr)
            problem = f"{type(exc).__name__}: {exc}"
            outcome = None
        run.outcomes.append(outcome)
        if problem:
            run.problems[op.index] = problem
            print(f"op {op.index} ({op.route}) failed: {problem}",
                  file=sys.stderr)
    if between is not None:
        between(len(ops))
    # Scaled only now: an op's speed samples include those taken after it.
    for times in timings:
        run.raw_walls.append(statistics.median(t for _, _, t in times))
        if pacer is None:
            run.walls.append(run.raw_walls[-1])
            continue
        scaled = [t * pacer.factor(start, end) for start, end, t in times]
        run.walls.append(statistics.median(scaled))
        run.scales.append(run.walls[-1] / run.raw_walls[-1])
    return run


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than eleven
    samples no such percentile exists, and the maximum is returned with
    zero samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def traced_runs(run: Run) -> list[tuple]:
    """(op, outcome, untraced wall) of every op that completed."""
    return [(op, outcome, wall)
            for op, outcome, wall in zip(run.ops, run.outcomes, run.walls)
            if outcome is not None]


def end_to_end(run: Run) -> dict:
    """Latency metrics of an untraced run, as ``{name: (value, unit)}``."""
    tail_value, _, _ = tail(run.walls)
    return {
        "wall_s": (sum(run.walls), "s"),
        "op_p50_s": (statistics.median(run.walls), "s"),
        "op_tail_s": (tail_value, "s"),
    }


def exact_results(run: Run) -> dict:
    """What sits beside the metrics.

    These are the exact results, and the ``.lp`` route's median latency,
    which reads a single op per run on some workloads and is too noisy to
    bound.
    """
    done = [o for o in run.outcomes if o is not None]
    coverage = [o.objective or 0 for op, o in zip(run.ops, run.outcomes)
                if o is not None and not op.case.minimize]
    _, percentile, beyond = tail(run.walls)
    lp_walls = [w for op, w in zip(run.ops, run.walls) if op.route == LP]
    return {
        "ops": len(run.ops),
        "lp_ops": len(lp_walls),
        "lp_op_p50_s": statistics.median(lp_walls),
        "failed_ratio": run.failed / len(run.ops),
        "failed_ratio_base": f"{run.failed} failed of {len(run.ops)} ops",
        "covered": statistics.median(coverage) if coverage else None,
        "refuted": sum(1 for o in done if o.status == "infeasible")
        / max(1, len(done)),
        "status_counts": dict(sorted(Counter(o.status for o in done).items())),
        "nodes_per_op": statistics.fmean([o.nodes for o in done] or [0]),
        "heuristic_evals_per_op": statistics.fmean(
            [o.heuristic_evals for o in done] or [0]),
        "op_tail_percentile": percentile,
        "op_tail_beyond": beyond,
    }
