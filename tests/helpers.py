"""Shared test utilities: random systems, fixture loading, instance
wrappers and the reference kernels."""

from __future__ import annotations

import importlib.util
import random
import sys
import time
from itertools import combinations
from pathlib import Path

from dedmin import ciphers, encoder, oracle, preprocess
from dedmin.milp import (Constraint, EQUAL, GREATER_EQUAL, LESS_EQUAL,
                         MilpInstance)
from dedmin.core import DeductionSystem, DirectedRule, SymmetricRule

DATA = Path(__file__).parent / "data"
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"

PAPER_SNOW_GUESS = [f"R_{i}" for i in range(4, 13)]
PAPER_ENOCORO_GUESS = ("a_3 a_5 b_2 b_5 b_6 c_2 c_3 c_8 c_9 c_10 "
                       "e_6 e_11 e_15 f_3 f_6 g_1 g_2 g_5").split()


def random_system(rng: random.Random, max_n: int = 10,
                  max_m: int = 16) -> DeductionSystem:
    """Well-formed system with mixed rule shapes, sizes bounded as given."""
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
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


def load_paths_fixture(name: str) -> dict[str, list[frozenset[str]]]:
    return encoder.parse_path_table_text((DATA / name).read_text())


def load_course(name: str) -> list[tuple[tuple[str, ...], str]]:
    """Deduction-course fixture rows as (premise names, deduced name)."""
    rows = []
    for line in (DATA / name).read_text().splitlines():
        _, premises, deduced = line.split("\t")
        rows.append((tuple(premises.split()), deduced))
    return rows


def path_table_as_name_sets(system: DeductionSystem) -> dict[str, set[frozenset[str]]]:
    table = encoder.enumerate_paths(system)
    out = {}
    for p in system.propositions:
        out[p.name] = {
            frozenset(system.name_of(m) for m in premises)
            for premises in table[p.index]
        }
    return out


def replay_course(system: DeductionSystem, guess_names, course) -> set[int]:
    """Replay a course row by row; asserts each row is a valid next step."""
    known = {system.index_of(n) for n in guess_names}
    rules = {(r.premises, r.conclusion) for r in system.directed_rules}
    for premises_names, deduced_name in course:
        premises = tuple(sorted(system.index_of(p) for p in premises_names))
        deduced = system.index_of(deduced_name)
        assert (premises, deduced) in rules, \
            f"no rule {premises_names} => {deduced_name}"
        assert all(p in known for p in premises), \
            f"premises {premises_names} not known before deducing {deduced_name}"
        assert deduced not in known, f"{deduced_name} deduced twice"
        known.add(deduced)
    return known


def with_full_cover(instance: MilpInstance, n: int,
                    nu: int) -> MilpInstance:
    """The instance plus a row demanding all ``n`` propositions at step ``nu``.

    Built by hand, it is given no triple, so it takes the one
    :func:`encoder.decode` reads: a max-sense encoding plus this row is
    that encoding with ``full_cover`` set, the instance
    :func:`encoder.rebuild` builds from it.  With a guess budget below the
    minimum it is infeasible, which is how acceptance criterion 4 states
    the refutation.
    """
    row = Constraint(tuple((instance.index_of(encoder.state_var_name(p, nu)), 1)
                           for p in range(n)), GREATER_EQUAL, n)
    return MilpInstance(instance.variables, instance.constraints + (row,),
                        instance.objective, instance.sense)


def encoding_cases() -> list[tuple[DeductionSystem, encoder.EncodeConfig]]:
    """The encodings ``test_encodings_keep_their_lp_text_byte_for_byte``
    hashes, as ``(system, cfg)``: SNOW T=13 at nu 12 and k 9, Enocoro T=16
    at nu 18 and k 18, and 40 seeded random systems, each in both modes
    and both senses (no budget when minimizing)."""
    systems = [(preprocess.expand_rules(ciphers.build_snow2(13)), 12, 9),
               (preprocess.expand_rules(ciphers.build_enocoro(16)), 18, 18)]
    for seed in range(40):
        rng = random.Random(seed)
        system = preprocess.expand_rules(random_system(rng))
        systems.append((system, rng.randint(1, system.n + 1),
                        rng.randint(0, system.n)))
    return [(system, encoder.EncodeConfig(nu, budget, mode, sense))
            for system, nu, k in systems
            for mode in (encoder.PLAIN, encoder.COMPACT)
            for sense, budget in ((encoder.MAX_COVERAGE, k),
                                  (encoder.MIN_GUESSES, 0))]


def refutation_cases() -> list[MilpInstance]:
    """SNOW T=13 at nu 12 and k 8 plus its full-cover row (acceptance
    criterion 4), in both modes, built by hand: each takes the triple
    :func:`encoder.decode` reads, with ``full_cover`` set."""
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    return [with_full_cover(encoder.encode(system, encoder.EncodeConfig(
                12, 8, mode)), system.n, 12)
            for mode in (encoder.PLAIN, encoder.COMPACT)]


def fields(instance: MilpInstance) -> tuple:
    """An instance's variables, rows, objective and sense."""
    return (instance.variables, instance.constraints, instance.objective,
            instance.sense)


def without_heuristic(instance: MilpInstance) -> MilpInstance:
    """The instance plus a row every point satisfies.

    It is not an encoding, so ``solve`` runs plain branch-and-bound on it,
    with no root heuristic.
    """
    row = Constraint(((0, 1), (1, 1)), LESS_EQUAL, 2)
    return MilpInstance(instance.variables, instance.constraints + (row,),
                        instance.objective, instance.sense)


# The closure sweep as it was before later sweeps were limited to the rules
# a newly learned proposition feeds, kept verbatim as the reference
# ``oracle.sweeps`` must agree with (tests/test_oracle.py, tests/test_milp.py).
# ``masks`` is the id-ordered ``oracle.option_masks(system).masks``.
def reference_sweeps(masks, known: int, limit: int | None = None) -> list[int]:
    """Known-set bitmask before the first sweep and after each one.

    A sweep derives every proposition whose premises were known at its
    start.  Stops at the fixpoint, or after ``limit`` sweeps: entry ``c``
    is then what state copy ``c`` of an encoding with ``nu >= c`` knows.
    """
    rounds = [known]
    while limit is None or len(rounds) <= limit:
        new = 0
        for pmask, cbit in masks:
            if known & cbit == 0 and known & pmask == pmask:
                new |= cbit
        if not new:
            break
        known |= new
        rounds.append(known)
    return rounds


def reference_brute_force_min(system: DeductionSystem,
                              max_k: int | None = None) -> tuple:
    """What ``oracle.brute_force_min`` must give, as ``(k_min, witness,
    max_k)``: every subset of the propositions in increasing size,
    lexicographically within a size, the first whose closure covers."""
    n = system.n
    max_k = n if max_k is None else min(max_k, n)
    masks = oracle.option_masks(system).masks
    for size in range(max_k + 1):
        for subset in combinations(range(n), size):
            known = sum(1 << p for p in subset)
            if reference_sweeps(masks, known)[-1] == (1 << n) - 1:
                return size, subset, max_k
    return None, None, max_k


def reference_word_coverages(masks, knows: list[int], width: int,
                              limit: int | None = None) -> list[int]:
    """What ``oracle.word_coverages`` must give: set ``b`` holds every
    proposition ``p`` with bit ``b`` of ``knows[p]`` set, and its count is
    that of :func:`reference_sweeps` from it."""
    return [reference_sweeps(masks, sum(1 << p for p, word in enumerate(knows)
                                        if word >> b & 1),
                             limit)[-1].bit_count()
            for b in range(width)]


def prefix_words(n: int, ones: int, order: list[int]) -> list[int]:
    """The words of a bottom-level walk's batch over ``order`` from ``ones``:
    set ``t`` is ``ones`` plus ``order[t]`` and set ``len(order) + t`` is
    ``ones`` plus ``order[t + 1:]``."""
    width = len(order)
    knows = [(1 << 2 * width) - 1 if ones >> p & 1 else 0 for p in range(n)]
    for t, p in enumerate(order):
        knows[p] = 1 << t | ((1 << t) - 1) << width
    return knows


# The propagation engine as it was before its rows were sorted by weight and
# gated by slack, kept verbatim as the reference the current engine must agree
# with (tests/test_milp.py).
class ReferenceEngine:
    def __init__(self, instance: MilpInstance):
        self.instance = instance
        nvars = len(instance.variables)
        rows: list[tuple[tuple[int, int], ...]] = []
        rhs: list[int] = []
        origin: list[int] = []

        def add_row(terms, bound, ci):
            rows.append(tuple(terms))
            rhs.append(bound)
            origin.append(ci)

        for ci, c in enumerate(instance.constraints):
            if c.rel in (GREATER_EQUAL, EQUAL):
                add_row(c.terms, c.rhs, ci)
            if c.rel in (LESS_EQUAL, EQUAL):
                add_row(tuple((v, -a) for v, a in c.terms), -c.rhs, ci)

        self.rows = rows
        self.rhs = rhs
        self.origin = origin
        self.val = [-1] * nvars
        self.ub = [sum(a for _, a in row if a > 0) for row in rows]
        occ: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
        for ri, row in enumerate(rows):
            for v, a in row:
                occ[v].append((ri, a))
        self.occ = [tuple(entries) for entries in occ]
        self.trail: list[int] = []
        # examine every row once so root-level forcings and trivially
        # impossible rows are caught before any fixing happens
        self.queue: list[int] = list(range(len(rows)))
        self.inq = [True] * len(rows)
        self.fix_count = 0

    def mark(self) -> int:
        return len(self.trail)

    def fix(self, var: int, value: int) -> bool:
        """Record ``var = value``; False when it contradicts a prior fixing."""
        old = self.val[var]
        if old >= 0:
            return old == value
        self.val[var] = value
        self.trail.append(var)
        self.fix_count += 1
        ub = self.ub
        inq = self.inq
        queue = self.queue
        for ri, a in self.occ[var]:
            if (a > 0 and value == 0) or (a < 0 and value == 1):
                ub[ri] -= abs(a)
                if not inq[ri]:
                    inq[ri] = True
                    queue.append(ri)
        return True

    def propagate(self) -> int | None:
        """Run the queue to a fixpoint; returns a conflicting row or None."""
        queue = self.queue
        inq = self.inq
        ub = self.ub
        rhs = self.rhs
        rows = self.rows
        val = self.val
        while queue:
            ri = queue.pop()
            inq[ri] = False
            slack = ub[ri] - rhs[ri]
            if slack < 0:
                for r in queue:
                    inq[r] = False
                queue.clear()
                return ri
            for v, a in rows[ri]:
                if val[v] < 0:
                    if a > 0:
                        if a > slack:
                            self.fix(v, 1)
                    elif -a > slack:
                        self.fix(v, 0)
        return None

    def undo_to(self, mark: int) -> None:
        ub = self.ub
        while len(self.trail) > mark:
            var = self.trail.pop()
            value = self.val[var]
            self.val[var] = -1
            for ri, a in self.occ[var]:
                if (a > 0 and value == 0) or (a < 0 and value == 1):
                    ub[ri] += abs(a)
        for r in self.queue:
            self.inq[r] = False
        self.queue.clear()


# The guess-set branch-and-bound as it was before a child skipped the checks
# its parent settled, kept verbatim, apart from its docstring and what it
# returns (the ``(status, values, objective)`` triple that ``milp.solve``
# checks and names), as the reference ``milp._solve_encoding`` must agree
# with, node for node (tests/test_milp.py).  Its names are imported when
# it runs, so that a test's patches of ``milp`` and ``oracle`` reach it.
def reference_solve_encoding(instance, limits, start, stats):
    """The per-node reference of the guess-set search.

    Every node's checks are swept on their own: no child inherits a check
    from its parent, and no walk along the bottom level is batched.  The
    production search must match it in status, objective, nodes,
    heuristic evaluations and assignment, for every node budget.
    """
    from dedmin.encoder import assignment_of
    from dedmin.milp import (MAXIMIZE, OPTIMAL, TIME_LIMIT, _Incumbent,
                             _heuristic_incumbent, _occurrences,
                             _out_of_budget)
    from dedmin.oracle import option_masks, sweeps

    system, cfg, full_cover = instance.encoding
    n, nu = system.n, cfg.nu
    options = option_masks(system)
    maximize = instance.sense == MAXIMIZE and not full_cover
    score = _occurrences(instance.constraints, len(instance.variables))

    if full_cover:
        # a size limit, not an incumbent: any cover within it answers
        best_obj, best = cfg.budget_k + 1, None
    else:
        # leave at least half the budget to the exact search
        heuristic_start = time.monotonic()
        incumbent = _Incumbent(maximize)
        _heuristic_incumbent(options, n, cfg, incumbent, limits, stats,
                             start + limits.time_budget * 0.5, score)
        stats.heuristic_time = time.monotonic() - heuristic_start
        best_obj, best = incumbent.objective, incumbent.answer

    def coverage(guesses: int) -> int:
        return sweeps(options, guesses, nu)[-1].bit_count()

    # every cover guesses the propositions no option concludes, so the
    # minimize and full-cover searches start with them guessed
    forced = 0
    if not maximize:
        concluded = 0
        for _, cbit in options.masks:
            concluded |= cbit
        forced = ((1 << n) - 1) & ~concluded
    # the guess layer's part of _decision_order: variable v is the
    # guess-layer state of proposition v
    order = sorted((v for v in range(n) if not forced >> v & 1),
                   key=lambda v: (-score[v], v))
    m = len(order)
    # rest[i]: the guesses decided at position i of the order or later
    rest = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        rest[i] = rest[i + 1] | 1 << order[i]
    k = cfg.budget_k
    search_start = time.monotonic()
    status = OPTIMAL
    stack = [(0, forced)]  # (position of the next decision, guesses taken)
    while stack:
        i, ones = stack.pop()
        taken = ones.bit_count()
        if maximize:
            if taken == k or taken + m - i <= k:
                leaf = ones if taken == k else ones | rest[i]
                value = coverage(leaf)
                if best_obj is None or value > best_obj:
                    best_obj, best = value, leaf
                continue
            if best_obj is not None and coverage(ones | rest[i]) <= best_obj:
                continue
        else:
            if best_obj is not None and taken >= best_obj:
                continue
            if coverage(ones) == n:
                best = ones
                if full_cover:
                    best_obj = n  # the instance's objective: all covered
                    break
                best_obj = taken
                continue
            if best_obj is not None and taken + 1 >= best_obj:
                continue
            if coverage(ones | rest[i]) < n:
                continue
        if _out_of_budget(limits, stats, start):
            status = TIME_LIMIT
            break
        stats.nodes += 1
        stack.append((i + 1, ones))
        stack.append((i + 1, ones | 1 << order[i]))
    stats.search_time = time.monotonic() - search_start

    if best is None:  # stopped before the first leaf, or no cover exists
        return status, None, None
    assignment = assignment_of(instance, system,
                               (v for v in range(n) if best >> v & 1))
    return status, [assignment[v.name] for v in instance.variables], best_obj


def perfbench_workloads():
    """The benchmark's ``workloads`` module, from this checkout."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, BENCHMARK / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look themselves up
        spec.loader.exec_module(module)
    return sys.modules[name]
