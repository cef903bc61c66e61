"""Spans around the benchmark's calls into each layer, and what they add up to.

A span is recorded in memory for every wrapped call: name, start, end, the
span that was open when it began, and the op it belongs to.  Spans come
from the benchmark's own call sites (see ``workloads.Layers``); nothing
inside the program is instrumented.

Per-layer times are self times, averaged over the run's ops, so that they
add up with the residual (the benchmark's own code between calls) to the
op's wall time.  The solve is split by two extra calls the traced op makes
first: ``milp.propagate(instance, {})`` (engine build plus root fixpoint)
and ``milp.solve`` with ``node_budget=0`` (root plus heuristic).  Those two
are not part of the op's wall time.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

from workloads import RULES

OP = "op"
ROOT_CALLS = ("milp.propagate", "milp.solve[node_budget=0]")

# per-layer time metric -> span whose self time it is
LAYER_SPANS = {
    "dsl.parse_s": "dsl.parse_system",
    "preprocess.expand_s": "preprocess.expand_rules",
    "encoder.encode_s": "encoder.encode",
    "lpio.read_lp_s": "lpio.read_lp",
    "oracle.trace_s": "oracle.extract_trace",
    "oracle.brute_s": "oracle.brute_force_min",
}


class Tracer:
    """Spans kept in memory; ``spans`` rows are [name, start, end, parent, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "op": op} for name, start, end, parent, op in self.spans]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Calls run on one thread, so children of one span never overlap.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def per_layer(spans: list[list], runs: list[tuple]) -> dict:
    """Per-layer metrics of a traced run, as ``{name: (value, unit)}``.

    ``runs`` holds ``(op, outcome, untraced_wall)`` for every op that
    completed: the ``Outcome`` of its traced call, and the wall time of
    the same op run untraced just before, which gives the tracing overhead.
    Spans of ops that raised are left out.
    """
    ops = max(1, len(runs))
    own = self_times(spans)
    by_op: dict[int, dict[str, float]] = {op.index: {} for op, _, _ in runs}
    for (name, start, end, _, op), self_time in zip(spans, own):
        bucket = by_op.get(op)
        if bucket is not None:
            bucket[name] = bucket.get(name, 0.0) + (
                end - start if name == OP or name in ROOT_CALLS else self_time)

    total: dict[str, float] = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for op, _, wall in runs:
        times = by_op[op.index]
        op_s = times[OP] - sum(times.get(name, 0.0) for name in ROOT_CALLS)
        layers = sum(times.get(span, 0.0) for span in LAYER_SPANS.values())
        solve = times.get("milp.solve", 0.0)
        root = times.get("milp.propagate", 0.0)
        root_solve = times.get("milp.solve[node_budget=0]", 0.0)
        add("trace.op_s", op_s)
        add("trace.residual_s", op_s - layers - solve)
        add("trace.overhead_s", op_s - wall)
        add("milp.root_s", root)
        add("milp.heuristic_s", root_solve - root)
        add("milp.bnb_s", solve - root_solve)
        for metric, span in LAYER_SPANS.items():
            add(metric, times.get(span, 0.0))

    metrics = {key: (total.get(key, 0.0) / ops, "s") for key in (
        "trace.op_s", "trace.residual_s", "trace.overhead_s", "milp.root_s",
        "milp.heuristic_s", "milp.bnb_s", *LAYER_SPANS)}

    outcomes = [outcome for _, outcome, _ in runs]
    rules_ops = [outcome for op, outcome, _ in runs if op.route == RULES]
    heuristic_evals = sum(o.root_heuristic_evals for o in outcomes)
    hits = sum(1 for o in outcomes if o.root_hit)
    nodes = sum(o.nodes for o in outcomes)
    bnb_fixings = sum(o.propagations - o.root_propagations for o in outcomes)
    objectives = [o.objective or 0 for o in outcomes]
    refuted = sum(1 for o in outcomes if o.status == "infeasible")

    def ratio(part, whole):
        return part / whole if whole > 0 else 0.0

    metrics.update({
        "encoder.vars": (ratio(sum(o.variables for o in rules_ops),
                               len(rules_ops)), "count"),
        "encoder.rows": (ratio(sum(o.rows for o in rules_ops),
                               len(rules_ops)), "count"),
        "milp.heuristic_evals": (heuristic_evals / ops, "count"),
        "milp.heuristic_evals_per_s": (
            ratio(heuristic_evals, total.get("milp.heuristic_s", 0.0)), "1/s"),
        "milp.heuristic_hit": (hits / ops, "ratio"),
        "milp.nodes": (nodes / ops, "count"),
        "milp.nodes_per_s": (ratio(nodes, total.get("milp.bnb_s", 0.0)), "1/s"),
        "milp.fixings_per_node": (ratio(bnb_fixings, nodes), "count"),
        "milp.objective": (statistics.median(objectives or [0]), "count"),
        "milp.refuted": (refuted / ops, "ratio"),
    })
    return metrics
