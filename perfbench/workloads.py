"""The benchmark's workloads: seeded inputs, the timed ops, and answer checks.

Every workload sends each of its instances through both input routes of
the command line, alternately:

* the ``.rules`` route, as ``dedmin solve x.rules`` does it:
  ``dsl.parse_system`` -> ``preprocess.expand_rules`` -> ``encoder.encode``
  -> ``milp.solve`` -> ``oracle.extract_trace``; for a minimum question
  (``dedmin minimize``) the trace is replaced by ``oracle.brute_force_min``,
  whose answer the solver's must equal;
* the ``.lp`` route, as ``dedmin solve x.lp`` does it: ``lpio.read_lp`` ->
  ``milp.solve``, on LP text written during set-up.

The work of an op is fixed: a node budget bounds every search and the time
budget is one that no run reaches, so statuses, objectives, node counts and
heuristic evaluation counts repeat exactly for a seed, and only timings
carry noise.  Checks run outside the timed region and use the system built
by the generator, never the one the op parsed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from dedmin import ciphers, dsl, encoder, lpio, milp, oracle, preprocess
from dedmin.core import DeductionSystem, DirectedRule, SymmetricRule

RULES = "rules"
LP = "lp"

# A time budget no run reaches: solve() is deterministic only when no wall
# clock cuts it short, so node budgets alone bound the work.
NO_CLOCK = 1e9

# How many propositions short of a full cover a search stopped by its node
# budget may be and still count as incomplete rather than failed.  One of
# the snow-k9 solver seeds stops at 41 of 42 within 1000 nodes.
STOPPED_SHORT_BY = 1


class Layers:
    """The public calls an op makes into each module of the program.

    ``wrap(name, fn)`` may replace each call, which is how a tracer records
    a span around it.  A traced set also makes the two extra calls that
    split a solve into root propagation, heuristic and branch-and-bound.
    """

    def __init__(self, wrap: Callable | None = None):
        self.traced = wrap is not None
        if wrap is None:
            def wrap(name, fn):
                return fn
        self.parse = wrap("dsl.parse_system", dsl.parse_system)
        self.expand = wrap("preprocess.expand_rules", preprocess.expand_rules)
        self.encode = wrap("encoder.encode", encoder.encode)
        self.read_lp = wrap("lpio.read_lp", lpio.read_lp)
        self.propagate = wrap("milp.propagate", milp.propagate)
        self.solve_root = wrap("milp.solve[node_budget=0]", milp.solve)
        self.solve = wrap("milp.solve", milp.solve)
        self.extract_trace = wrap("oracle.extract_trace", oracle.extract_trace)
        self.brute_force_min = wrap("oracle.brute_force_min",
                                    oracle.brute_force_min)


@dataclass(frozen=True)
class Case:
    """One question, as ``.rules`` text and as the LP text of its encoding.

    ``system`` is the generator's own object; checks use it so that a
    parser or preprocessing fault cannot hide behind itself.
    """

    system: DeductionSystem
    rules_text: str
    lp_text: str
    cfg: encoder.EncodeConfig
    node_budget: int
    full_cover: bool = False

    @property
    def minimize(self) -> bool:
        return self.cfg.sense == encoder.MIN_GUESSES


@dataclass(frozen=True)
class Op:
    index: int
    route: str
    case: Case
    seed: int


@dataclass
class OpResult:
    instance: milp.MilpInstance
    solution: milp.Solution
    brute: oracle.BruteForceMin | None = None
    root: milp.Solution | None = None  # the node_budget=0 solve, traced only


@dataclass(frozen=True)
class Outcome:
    """What a run keeps of a checked op: no instance, no assignment."""

    status: str
    objective: int | None
    nodes: int
    propagations: int
    heuristic_evals: int
    variables: int
    rows: int
    root_hit: bool | None = None  # the node_budget=0 solve found an incumbent
    root_propagations: int | None = None
    root_heuristic_evals: int | None = None

    @staticmethod
    def of(result: OpResult) -> "Outcome":
        stats, root = result.solution.stats, result.root
        return Outcome(
            result.solution.status, result.solution.objective, stats.nodes,
            stats.propagations, stats.heuristic_evals,
            len(result.instance.variables), len(result.instance.constraints),
            None if root is None else root.assignment is not None,
            None if root is None else root.stats.propagations,
            None if root is None else root.stats.heuristic_evals)


def with_full_cover(instance: milp.MilpInstance,
                    cfg: encoder.EncodeConfig) -> milp.MilpInstance:
    """The instance plus a row demanding every proposition at the last step.

    With it, a guess budget below the minimum makes the instance
    infeasible, which is how acceptance criterion 4 states the refutation.
    """
    n = sum(1 for v in instance.variables
            if v.kind == milp.STATE and v.copy == 0)
    row = milp.Constraint(
        tuple((instance.index_of(encoder.state_var_name(p, cfg.nu)), 1)
              for p in range(n)), milp.GREATER_EQUAL, n)
    return milp.MilpInstance(instance.variables,
                             tuple(instance.constraints) + (row,),
                             instance.objective, instance.sense)


def make_case(system: DeductionSystem, cfg: encoder.EncodeConfig,
              node_budget: int, full_cover: bool = False) -> Case:
    instance = encoder.encode(preprocess.expand_rules(system), cfg)
    if full_cover:
        instance = with_full_cover(instance, cfg)
    return Case(system, dsl.render_system(system), lpio.write_lp(instance),
                cfg, node_budget, full_cover)


def run_op(layers: Layers, op: Op) -> OpResult:
    """One timed op: the route's calls, exactly as the command line makes them."""
    case = op.case
    limits = milp.SolveLimits(time_budget=NO_CLOCK,
                              node_budget=case.node_budget, seed=op.seed)
    system = None
    if op.route == RULES:
        system = layers.expand(layers.parse(case.rules_text))
        instance = layers.encode(system, case.cfg)
        if case.full_cover:
            instance = with_full_cover(instance, case.cfg)
    else:
        instance = layers.read_lp(case.lp_text)
    root = None
    if layers.traced:
        layers.propagate(instance, {})
        root = layers.solve_root(instance, replace(limits, node_budget=0))
    solution = layers.solve(instance, limits)
    result = OpResult(instance, solution, root=root)
    if system is not None:
        if case.minimize:
            result.brute = layers.brute_force_min(system)
        elif solution.assignment is not None:
            layers.extract_trace(system, solution, case.cfg)
    return result


# -- answer checks ------------------------------------------------------------

def guess_of(system: DeductionSystem, assignment: dict[str, int]) -> list[int]:
    return [p.index for p in system.propositions
            if assignment.get(encoder.state_var_name(p.index, 0)) == 1]


def check_assignment(case: Case, result: OpResult) -> str | None:
    """Problems with a returned assignment, or None when it holds up.

    The assignment must satisfy every row exactly, score the reported
    objective, respect the guess budget, and be justified step by step by
    the closure of its guesses.
    """
    solution = result.solution
    report = milp.evaluate(result.instance, solution.assignment)
    if not report.feasible:
        return f"assignment violates {len(report.violations)} rows"
    if report.objective != solution.objective:
        return (f"assignment scores {report.objective}, "
                f"solver reported {solution.objective}")
    guess = guess_of(case.system, solution.assignment)
    if not case.minimize and len(guess) > case.cfg.budget_k:
        return f"{len(guess)} guesses exceed the budget {case.cfg.budget_k}"
    try:
        oracle.extract_trace(case.system, solution, case.cfg)
    except oracle.TraceMismatch as exc:
        return f"trace: {exc}"
    return None


def expect_full_cover(case: Case, result: OpResult) -> str | None:
    """A full cover exists within the budget, so a proven optimum is one.

    A search the node budget stops short is not wrong, only incomplete,
    when its incumbent is at most ``STOPPED_SHORT_BY`` propositions short of
    a full cover: the incumbent has passed ``check_assignment``, and the
    stop shows in the report's status counts and as extra latency.  A
    stopped search further from the optimum is a failure.
    """
    solution = result.solution
    n = case.system.n
    if solution.status == milp.TIME_LIMIT and solution.assignment is not None:
        if solution.objective >= n - STOPPED_SHORT_BY:
            return None
        return (f"stopped by the node budget at {solution.objective} of {n}, "
                f"more than {STOPPED_SHORT_BY} short")
    if solution.status != milp.OPTIMAL or solution.objective != n:
        return f"{solution.status} {solution.objective}, want optimal {n}"
    guess = guess_of(case.system, solution.assignment)
    if not oracle.covers_all(case.system, guess):
        return f"the {len(guess)} guesses do not cover all {n} propositions"
    return None


def expect_refutation(case: Case, result: OpResult) -> str | None:
    """No proof of a cover may be wrong: any cover returned must be real."""
    solution = result.solution
    if solution.status not in (milp.INFEASIBLE, milp.TIME_LIMIT):
        return f"status {solution.status}, want infeasible or time_limit"
    if solution.assignment is not None:
        guess = guess_of(case.system, solution.assignment)
        if not oracle.covers_all(case.system, guess):
            return f"claimed cover by {len(guess)} guesses is rejected by the oracle"
    return None


def expect_incumbent(case: Case, result: OpResult) -> str | None:
    """The node budget is enough for an incumbent; its checks do the rest."""
    if result.solution.assignment is None:
        return f"no incumbent ({result.solution.status})"
    return None


def expect_brute_force_minimum(case: Case, result: OpResult) -> str | None:
    """The solver's minimum equals exhaustive search, and its witness covers.

    The true minimum is searched on the generator's system, so that a
    parser or preprocessing fault that weakens the op's system cannot make
    the solver and the op's own brute force agree on a wrong answer.
    """
    solution = result.solution
    truth = oracle.brute_force_min(case.system)
    if result.brute is not None and result.brute.k_min != truth.k_min:
        return (f"brute force on the parsed system says {result.brute.k_min}, "
                f"on the generated one {truth.k_min}")
    if solution.status != milp.OPTIMAL or solution.objective != truth.k_min:
        return (f"{solution.status} k_min {solution.objective}, "
                f"brute force says {truth.k_min}")
    guess = guess_of(case.system, solution.assignment)
    if len(guess) != truth.k_min or not oracle.covers_all(case.system, guess):
        return f"witness of {len(guess)} guesses does not cover"
    return None


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A seeded set of cases and how many ops a run of ``seconds`` makes.

    ``ops_per_second`` is a constant, not a measurement: how many ops a run
    makes per second of ``seconds``, fixed at the benchmark's first commit
    from the op rates seen there on a 2-core Xeon, so that the work of a
    run is the same at every later commit.  The number of (``.rules``,
    ``.lp``) op pairs is a multiple of ``pairs_per_unit`` and at least one
    unit, so a workload whose ops are long may run longer than ``seconds``.

    ``fresh_setups`` is how many fresh processes a run times its set-up in,
    besides its own; fewer where set-up is long, so that they add about as
    much time to the run as on the other workloads.  ``repeats`` is how
    many times an untraced op runs; its latency is their median.
    """

    name: str
    why: str
    ops_per_second: float
    cases: Callable[[random.Random, int], list[Case]]
    expect: Callable[[Case, OpResult], str | None]
    budgets: dict
    pairs_per_unit: int = 1
    fresh_setups: int = 10
    repeats: int = 1

    def check(self, case: Case, result: OpResult) -> str | None:
        """The op's problem, or None when its answer holds up."""
        if result.solution.assignment is not None:
            problem = check_assignment(case, result)
            if problem:
                return problem
        return self.expect(case, result)

    def op_count(self, seconds: float) -> int:
        unit = 2 * self.pairs_per_unit
        return unit * max(1, round(seconds * self.ops_per_second / unit))

    def plan(self, seed: int, seconds: float) -> list[Op]:
        """The run's inputs: cases and solver seeds, all derived from ``seed``."""
        rng = random.Random(f"{self.name}/{seed}")
        count = self.op_count(seconds)
        cases = self.cases(rng, count)
        return [Op(i, RULES if i % 2 == 0 else LP, cases[i % len(cases)],
                   rng.randrange(1 << 30))
                for i in range(count)]


def cipher_workload(name: str, why: str, build: Callable[[], DeductionSystem],
                    nu: int, k: int, node_budget: int, ops_per_second: float,
                    expect: Callable, full_cover: bool = False,
                    pairs_per_unit: int = 1) -> Workload:
    """One cipher instance, solved once per op with a fresh solver seed."""

    def cases(rng, count):
        cfg = encoder.EncodeConfig(nu=nu, budget_k=k, mode=encoder.COMPACT)
        return [make_case(build(), cfg, node_budget, full_cover)]

    return Workload(name, why, ops_per_second, cases, expect,
                    {"nu": nu, "k": k, "node_budget": node_budget,
                     "time_budget": NO_CLOCK, "full_cover_row": full_cover},
                    pairs_per_unit)


def random_system(rng: random.Random, n: int, m: int) -> DeductionSystem:
    """Well-formed system of ``n`` propositions and ``m`` mixed-shape rules.

    Shaped like the acceptance suite's random systems, but with the size
    given, so that a population can hold every size equally often.
    """
    symmetric, directed = [], []
    for _ in range(m):
        if n < 2:
            break
        if rng.random() < 0.4:
            size = rng.randint(2, min(4, n))
            symmetric.append(SymmetricRule.of(rng.sample(range(n), size)))
        else:
            conclusion = rng.randrange(n)
            pool = [v for v in range(n) if v != conclusion]
            k = rng.randint(1, min(3, len(pool)))
            directed.append(DirectedRule.of(rng.sample(pool, k), conclusion))
    return DeductionSystem.from_names([f"v{i}" for i in range(n)],
                                      symmetric, directed)


def population_workload(name: str, why: str, max_n: int, max_m: int,
                        node_budget: int, ops_per_second: float) -> Workload:
    """Random systems, each asked for its minimum guess set.

    Sizes are stratified: every (n, m) with 1 <= n <= max_n and
    0 <= m <= max_m is drawn once per sweep, in seeded order, and a run
    makes whole sweeps, so runs with different seeds differ in their rules
    but not in their size mix.  Each op has a system of its own, so the
    slowest ops, which set ``op_tail_s``, are as many distinct systems as
    there are ops beyond the tail.  An op takes about 10 ms, short enough
    for a hiccup of the host to double it, so each runs three times.
    """
    sizes = [(n, m) for n in range(1, max_n + 1) for m in range(max_m + 1)]

    def cases(rng, count):
        out = []
        while len(out) < count:
            sweep = sizes[:]
            rng.shuffle(sweep)
            for n, m in sweep[:count - len(out)]:
                system = random_system(rng, n, m)
                cfg = encoder.EncodeConfig(
                    nu=encoder.default_nu(system), budget_k=0,
                    mode=encoder.COMPACT, sense=encoder.MIN_GUESSES)
                out.append(make_case(system, cfg, node_budget))
        return out

    return Workload(name, why, ops_per_second, cases,
                    expect_brute_force_minimum,
                    {"max_n": max_n, "max_m": max_m, "nu": "n",
                     "node_budget": node_budget, "time_budget": NO_CLOCK},
                    pairs_per_unit=len(sizes) // 2, fresh_setups=4, repeats=3)


WORKLOADS = {w.name: w for w in (
    cipher_workload(
        "snow-k9",
        "SNOW 2.0 T=13 k=9, the paper's headline: set-up and heuristic "
        "dominate, B&B usually takes 0 nodes, and both input routes are timed",
        lambda: ciphers.build_snow2(13), nu=12, k=9, node_budget=1000,
        ops_per_second=2.0, expect=expect_full_cover),
    cipher_workload(
        "snow-k8-refute",
        "acceptance criterion 4: SNOW k=8 plus the full-cover row under 1000 "
        "nodes, where propagation and B&B dominate",
        lambda: ciphers.build_snow2(13), nu=12, k=8, node_budget=1000,
        ops_per_second=0.17, expect=expect_refutation, full_cover=True,
        pairs_per_unit=2),
    cipher_workload(
        "enocoro-k18",
        "Enocoro-128v2 T=16 k=18 under 200 nodes: the largest instance, "
        "heuristic-dominated, and its incumbent tracks the README's 92",
        lambda: ciphers.build_enocoro(16), nu=18, k=18, node_budget=200,
        ops_per_second=0.072, expect=expect_incumbent),
    population_workload(
        "population",
        "many tiny random systems whose minimum is checked by brute force: "
        "per-instance fixed costs dominate and every proof completes",
        max_n=12, max_m=20, node_budget=100_000, ops_per_second=25.0),
)}
