"""The benchmark's own tests, on tiny instances.

Run from the root of the repository::

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dedmin import ciphers, dsl, encoder, milp, oracle, preprocess
from dedmin.core import DeductionSystem

import measure
import pace
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def tiny_workloads():
    """Each real workload's shape at a size that runs in well under a second."""
    w = workloads
    return {
        "snow": w.cipher_workload(
            "snow-tiny", "", lambda: ciphers.build_snow2(2), nu=20, k=16,
            node_budget=2000, ops_per_second=2, expect=w.expect_full_cover),
        "refute": w.cipher_workload(
            "refute-tiny", "", lambda: ciphers.build_snow2(2), nu=20, k=15,
            node_budget=2000, ops_per_second=2, expect=w.expect_refutation,
            full_cover=True),
        "enocoro": w.cipher_workload(
            "enocoro-tiny", "", lambda: ciphers.build_enocoro(3), nu=6, k=6,
            node_budget=50, ops_per_second=2, expect=w.expect_incumbent),
        "population": w.population_workload(
            "population-tiny", "", max_n=4, max_m=4, node_budget=10_000,
            ops_per_second=20),
    }


TINY = tiny_workloads()


def traced(workload, seed=SEED):
    result = measure.run_ops(workload, workload.plan(seed, 1), trace=True)
    return result, tracing.per_layer(result.tracer.spans,
                                     measure.traced_runs(result))


@pytest.mark.parametrize("name", TINY)
def test_tiny_workloads_pass_their_checks(name):
    workload = TINY[name]
    result = measure.run_ops(workload, workload.plan(SEED, 1), trace=False)
    assert result.failed == 0, result.problems
    assert len(result.walls) == len(result.ops) >= 2


def test_a_short_op_is_timed_as_the_median_of_its_repeats(monkeypatch):
    calls = []

    def counted(layers, op):
        calls.append(op.index)
        return workloads.run_op(layers, op)

    monkeypatch.setattr(measure, "run_op", counted)
    workload = TINY["population"]
    ops = workload.plan(SEED, 1)
    result = measure.run_ops(workload, ops, trace=False)
    assert workload.repeats == 3
    assert calls == [op.index for op in ops for _ in range(3)]
    assert len(result.walls) == len(ops) and result.failed == 0


def test_refutation_and_incumbents_are_what_the_workloads_expect():
    refute = measure.exact_results(
        measure.run_ops(TINY["refute"], TINY["refute"].plan(SEED, 1), False))
    assert refute["refuted"] == 1.0
    enocoro = measure.exact_results(
        measure.run_ops(TINY["enocoro"], TINY["enocoro"].plan(SEED, 1), False))
    assert enocoro["covered"] > 0 and enocoro["failed_ratio"] == 0


@pytest.mark.parametrize("name", TINY)
def test_exact_metrics_repeat_for_a_seed(name):
    first_run, first = traced(TINY[name])
    second_run, second = traced(TINY[name])
    for metric in ("milp.objective", "milp.refuted", "milp.nodes",
                   "milp.heuristic_evals", "encoder.vars", "encoder.rows"):
        assert first[metric] == second[metric], metric
    for key in ("covered", "refuted", "nodes_per_op", "heuristic_evals_per_op"):
        assert (measure.exact_results(first_run)[key]
                == measure.exact_results(second_run)[key]), key


@pytest.mark.parametrize("name", TINY)
def test_layer_self_times_add_up_to_the_op(name):
    _, metrics = traced(TINY[name])
    parts = [metrics[m][0] for m in tracing.LAYER_SPANS] + [
        metrics[m][0] for m in ("milp.root_s", "milp.heuristic_s",
                                "milp.bnb_s", "trace.residual_s")]
    assert sum(parts) == pytest.approx(metrics["trace.op_s"][0], rel=1e-9)
    assert metrics["trace.residual_s"][0] < metrics["trace.op_s"][0]


def test_wrong_k_min_is_counted_as_failed(monkeypatch):
    real = oracle.brute_force_min

    def off_by_one(system, max_k=None):
        found = real(system, max_k)
        return oracle.BruteForceMin(found.k_min + 1, found.witness, found.max_k)

    monkeypatch.setattr(oracle, "brute_force_min", off_by_one)
    workload = TINY["population"]
    result = measure.run_ops(workload, workload.plan(SEED, 1), trace=False)
    assert result.failed == len(result.ops)
    assert measure.exact_results(result)["failed_ratio"] == 1.0


def test_a_parser_that_drops_a_rule_is_caught(monkeypatch):
    real = dsl.parse_system

    def drops_last_rule(text):
        system = real(text)
        if system.directed_rules:
            return DeductionSystem(system.propositions, system.symmetric_rules,
                                   system.directed_rules[:-1], system.name)
        return DeductionSystem(system.propositions,
                               system.symmetric_rules[:-1], (), system.name)

    monkeypatch.setattr(dsl, "parse_system", drops_last_rule)
    workload = TINY["population"]
    result = measure.run_ops(workload, workload.plan(SEED, 1), trace=False)
    assert result.failed > 0
    assert all(result.ops[i].route == workloads.RULES for i in result.problems)


def test_a_crash_is_counted_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(milp, "solve", broken)
    workload = TINY["snow"]
    result = measure.run_ops(workload, workload.plan(SEED, 1), trace=False)
    assert result.failed == len(result.ops)
    assert all("solver fault" in p for p in result.problems.values())


def test_refute_cover_the_oracle_rejects_is_a_failure():
    op = TINY["refute"].plan(SEED, 1)[0]
    case = op.case
    instance = workloads.with_full_cover(
        encoder.encode(preprocess.expand_rules(case.system), case.cfg), case.cfg)
    assignment = {v.name: 0 for v in instance.variables}
    for p in range(case.cfg.budget_k):  # as many guesses as the budget allows
        assignment[encoder.state_var_name(p, 0)] = 1
    claimed = workloads.OpResult(
        instance, milp.Solution(milp.TIME_LIMIT, assignment, None))
    problem = workloads.expect_refutation(case, claimed)
    assert problem and "rejected by the oracle" in problem


def test_an_unproven_full_cover_is_incomplete_not_wrong():
    op = TINY["snow"].plan(SEED, 1)[0]
    solved = workloads.run_op(workloads.Layers(), op)
    assert workloads.expect_full_cover(op.case, solved) is None
    n = op.case.system.n
    for objective in (n, n - workloads.STOPPED_SHORT_BY):
        stopped = workloads.OpResult(solved.instance, milp.Solution(
            milp.TIME_LIMIT, solved.solution.assignment, objective))
        assert workloads.expect_full_cover(op.case, stopped) is None
    far = workloads.OpResult(solved.instance, milp.Solution(
        milp.TIME_LIMIT, solved.solution.assignment,
        n - workloads.STOPPED_SHORT_BY - 1))
    assert "short" in workloads.expect_full_cover(op.case, far)
    for status in (milp.INFEASIBLE, milp.TIME_LIMIT):
        nothing = workloads.OpResult(solved.instance,
                                     milp.Solution(status, None, None))
        assert workloads.expect_full_cover(op.case, nothing)


def test_setup_samples_span_the_run(monkeypatch):
    monkeypatch.setattr(run, "fresh_setup", lambda args: (1.0, 1.0))
    for count, op_count in ((10, 2), (10, 40), (4, 1008)):
        setups, calls = [], []
        between = run.setup_sampler(None, count, op_count, setups)
        for index in range(op_count + 1):
            before = len(setups)
            between(index)
            calls += [index] * (len(setups) - before)
        assert len(setups) == count
        assert calls[0] == 0 and calls[-1] == op_count


def test_a_child_that_overruns_its_timeout_fails_cleanly():
    with pytest.raises(SystemExit) as stopped:
        run.child(["--workload", "snow-k9", "--setup-only"], 0.01)
    assert stopped.value.code == 2


def test_speed_samples_are_taken_during_timing_and_left_out_of_it():
    pacer = pace.Pacer(interval=0.005)
    with pacer.timing():
        start = pace.perf_counter()
        while pace.perf_counter() - start < 0.1:
            pass
    taken = len(pacer.samples)
    assert taken >= 3
    assert pacer.paused >= sum(k for _, k in pacer.samples)
    pace.kernel()
    assert len(pacer.samples) == taken


def test_an_op_is_scaled_by_the_samples_near_it():
    pacer = pace.Pacer()
    ref = pace.REFERENCE_S
    pacer.samples = [(0.0, 2 * ref), (0.5, 4 * ref), (10.0, ref / 2)]
    assert pacer.factor(0.2, 0.3) == pytest.approx(1 / 3)
    assert pacer.factor(0.1, 0.2, window=0.0) == pytest.approx(1 / 2)
    assert pacer.factor(6.0, 7.0) == pytest.approx(2.0)  # the nearest


def test_untraced_op_times_are_scaled_and_the_raw_ones_kept():
    workload = TINY["snow"]
    result = measure.run_ops(workload, workload.plan(SEED, 1), trace=False)
    assert len(result.scales) == len(result.raw_walls) == len(result.ops)
    for wall, raw, scale in zip(result.walls, result.raw_walls, result.scales):
        assert wall == pytest.approx(raw * scale)
    traced_run, _ = traced(workload)
    assert traced_run.scales == [] and traced_run.walls == traced_run.raw_walls


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 101)]
    assert measure.tail(values) == (90.0, 90.0, 10)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_plans_are_seeded():
    workload = TINY["population"]
    first, again = workload.plan(SEED, 1), workload.plan(SEED, 1)
    other = workload.plan(SEED + 1, 1)
    texts = [op.case.rules_text for op in first]
    assert texts == [op.case.rules_text for op in again]
    assert [op.seed for op in first] == [op.seed for op in again]
    assert texts != [op.case.rules_text for op in other]
    assert [op.route for op in first[:4]] == [workloads.RULES, workloads.LP] * 2
    # every op has a system of its own, and each (n, m) comes once per run
    assert len({id(op.case) for op in first}) == len(first)
    per_n = Counter(op.case.system.n for op in first)
    assert per_n == {n: 5 for n in range(1, 5)}


def test_workloads_match_benchmark_json():
    listed = [(w["name"], w["why"]) for w in BENCHMARK["workloads"]]
    assert listed == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert run.WORKLOAD_NAMES == list(workloads.WORKLOADS)


def cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, listed", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, listed):
    proc = cli("--workload", "snow-k9", "--seed", "990", "--seconds", "0.1",
               "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[listed]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in lines), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = cli("--workload", "snow-k9", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
