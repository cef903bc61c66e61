"""0-1 integer linear programs and a deterministic solver for them.

The model (:class:`MilpInstance`) is a plain list of binary variables,
integer-coefficient linear constraints and one linear objective.  The
solver is branch-and-bound in one of two forms, chosen by
:func:`~dedmin.encoder.decode`:

* an instance that ``decode`` rebuilds exactly as ``encode(system, cfg)``,
  possibly followed by a row demanding every proposition at the last step
  of a max-sense encoding, is searched over guess sets.  Fixing the guess
  layer of an encoding forces every other variable to its closure value
  (:func:`~dedmin.encoder.assignment_of`), so the search branches on the
  guess layer only and scores each node by closure sweeps of the decoded
  rules on bitmasks, pruning with the coverage of every guess still open.
  A seeded local search over guess sets of a fixed size, climbing their
  coverage, gives it its first incumbent, and the final incumbent's full
  assignment is re-checked against the raw constraints.  With the
  full-cover row the instance asks whether ``budget_k`` guesses cover
  everything: a size-limited search for one cover, with no root
  heuristic;
* any other instance is searched over its rows: integer bounds
  propagation to a fixpoint after every decision (:func:`propagate`
  exposes the same engine on its own), with each variable's rows listed
  per value it can take and each row scanned, heaviest term first, only
  once its slack is below its heaviest weight; branching on the
  initial-layer state variable occurring in the most constraints, value 1
  first; incumbent pruning with the trivial objective bound (fixed
  contribution plus the best case for everything unfixed).

Both forms branch in the same order and count one node per decision.
All arithmetic is exact integer arithmetic; a reported optimum is the true
optimum of the instance, and ``infeasible`` is only reported after the
search space is exhausted.  Runs are deterministic given the same seed and
limits (modulo a wall-clock budget that cuts a run short).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="

STATE = "state"
PATH = "path"
OTHER = "other"

MAXIMIZE = "max"
MINIMIZE = "min"


class MalformedInstance(ValueError):
    """Instance references undeclared variables or non-integer data."""


class IncompleteAssignment(ValueError):
    """evaluate() needs a value for every variable."""


@dataclass(frozen=True)
class Variable:
    """A binary decision variable with its structured name.

    ``kind``/``prop``/``copy``/``path`` mirror the naming contract
    (``x{prop}_c{copy}`` for states, ``l{prop}_p{path}_c{copy}`` for
    paths) so tools never have to re-parse names.
    """

    name: str
    kind: str = OTHER
    prop: int | None = None
    copy: int | None = None
    path: int | None = None


@dataclass(frozen=True)
class Constraint:
    """``sum(coef * var) rel rhs`` with integer coefficients."""

    terms: tuple[tuple[int, int], ...]  # (variable id, coefficient)
    rel: str
    rhs: int

    def lhs_value(self, values: Sequence[int]) -> int:
        return sum(coef * values[var] for var, coef in self.terms)

    def satisfied_by(self, values: Sequence[int]) -> bool:
        lhs = self.lhs_value(values)
        if self.rel == LESS_EQUAL:
            return lhs <= self.rhs
        if self.rel == GREATER_EQUAL:
            return lhs >= self.rhs
        return lhs == self.rhs


class MilpInstance:
    """Binary variables, linear constraints, one linear objective."""

    __slots__ = ("variables", "constraints", "objective", "sense",
                 "_index_by_name")

    def __init__(
        self,
        variables: Sequence[Variable],
        constraints: Sequence[Constraint],
        objective: Sequence[tuple[int, int]],
        sense: str = MAXIMIZE,
    ):
        if sense not in (MAXIMIZE, MINIMIZE):
            raise MalformedInstance(f"bad sense {sense!r}")
        self.variables = tuple(variables)
        self.constraints = tuple(constraints)
        self.objective = tuple(objective)
        self.sense = sense
        self._index_by_name = {v.name: i for i, v in enumerate(self.variables)}
        if len(self._index_by_name) != len(self.variables):
            raise MalformedInstance("duplicate variable name")
        self._check_refs()

    def _check_refs(self) -> None:
        n = len(self.variables)
        for ci, c in enumerate(self.constraints):
            if c.rel not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
                raise MalformedInstance(f"constraint {ci}: bad relation {c.rel!r}")
            if not isinstance(c.rhs, int):
                raise MalformedInstance(f"constraint {ci}: non-integer rhs")
            for var, coef in c.terms:
                if not 0 <= var < n:
                    raise MalformedInstance(
                        f"constraint {ci}: undeclared variable id {var}")
                if not isinstance(coef, int):
                    raise MalformedInstance(
                        f"constraint {ci}: non-integer coefficient {coef!r}")
        for var, coef in self.objective:
            if not 0 <= var < n:
                raise MalformedInstance(f"objective: undeclared variable id {var}")
            if not isinstance(coef, int):
                raise MalformedInstance(f"objective: non-integer coefficient")

    def index_of(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._index_by_name

    def objective_value(self, values: Sequence[int]) -> int:
        return sum(coef * values[var] for var, coef in self.objective)

    def term_tokens(self, terms: Sequence[tuple[int, int]]) -> list[str]:
        """LP tokens of a linear expression: ``x``, ``- 2 y``, ``+ z``."""
        tokens = []
        for var, coef in terms:
            name = self.variables[var].name
            mag = abs(coef)
            body = name if mag == 1 else f"{mag} {name}"
            if not tokens:
                tokens.append(body if coef > 0 else f"- {body}")
            else:
                tokens.append(f"+ {body}" if coef > 0 else f"- {body}")
        return tokens

    def constraint_text(self, index: int) -> str:
        """Constraint ``index`` as its LP line, unwrapped."""
        c = self.constraints[index]
        return " ".join([f"c{index}:", *self.term_tokens(c.terms), c.rel,
                         str(c.rhs)])

    def __repr__(self) -> str:
        return (f"MilpInstance(vars={len(self.variables)}, "
                f"constraints={len(self.constraints)}, sense={self.sense})")


OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIME_LIMIT = "time_limit"


@dataclass
class SolveStats:
    nodes: int = 0
    propagations: int = 0
    wall_time: float = 0.0
    heuristic_evals: int = 0
    # seconds in the root heuristic; 0 when the instance gets none
    heuristic_time: float = 0.0
    # seconds of branch-and-bound, after the root pass and the heuristic
    search_time: float = 0.0

    @property
    def nodes_per_s(self) -> float | None:
        """Decisions per second of search; None when it took no time."""
        return self.nodes / self.search_time if self.search_time > 0 else None

    @property
    def heuristic_evals_per_s(self) -> float | None:
        """Evaluations per heuristic second; None when it took no time."""
        return (self.heuristic_evals / self.heuristic_time
                if self.heuristic_time > 0 else None)

    def to_json(self) -> dict:
        return {"nodes": self.nodes, "propagations": self.propagations,
                "wall_time": round(self.wall_time, 6),
                "heuristic_evals": self.heuristic_evals,
                "heuristic_time": round(self.heuristic_time, 6),
                "search_time": round(self.search_time, 6),
                "nodes_per_s": self.nodes_per_s,
                "heuristic_evals_per_s": self.heuristic_evals_per_s}


@dataclass
class Solution:
    status: str
    assignment: dict[str, int] | None
    objective: int | None
    stats: SolveStats = field(default_factory=SolveStats)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "assignment": (None if self.assignment is None
                           else dict(sorted(self.assignment.items()))),
            "stats": self.stats.to_json(),
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False) + "\n"


@dataclass(frozen=True)
class SolveLimits:
    time_budget: float = 600.0
    node_budget: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class Violation:
    constraint: int
    lhs: int
    text: str


def _checked_items(instance: MilpInstance,
                   assignment: Mapping[str, int]) -> list[tuple[int, int]]:
    """``(variable id, value)`` per entry; unknown names and non-binary
    values raise :class:`MalformedInstance`."""
    items = []
    for name, value in assignment.items():
        if not instance.has_variable(name):
            raise MalformedInstance(f"unknown variable {name!r}")
        if value not in (0, 1):
            raise MalformedInstance(f"{name}: non-binary value {value!r}")
        items.append((instance.index_of(name), value))
    return items


@dataclass(frozen=True)
class EvalReport:
    objective: int
    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations


def evaluate(instance: MilpInstance, assignment: Mapping[str, int]) -> EvalReport:
    """Exact integer check of a full assignment against every constraint."""
    values = [-1] * len(instance.variables)
    for var, value in _checked_items(instance, assignment):
        values[var] = value
    missing = [v.name for v, val in zip(instance.variables, values) if val < 0]
    if missing:
        raise IncompleteAssignment(
            f"{len(missing)} variables unassigned (first: {missing[0]})")
    violations = []
    for ci, c in enumerate(instance.constraints):
        if not c.satisfied_by(values):
            violations.append(Violation(ci, c.lhs_value(values),
                                        instance.constraint_text(ci)))
    return EvalReport(instance.objective_value(values), tuple(violations))


# --------------------------------------------------------------------------
# propagation engine
#
# Constraints are normalized to rows ``sum(coef * var) >= rhs``.  Each row
# keeps ``ub``, the largest value its left side can still reach given the
# current fixings.  Fixing a variable away from its best value shrinks the
# ub of the rows it appears in; a row whose ub dropped below its rhs is a
# conflict, and a row that can only survive with some unfixed variable at a
# specific value forces that value.
#
# The layout lets the engine do only the work that can change a value:
#
# * ``drops[value][var]`` lists the ``(row, |coef|)`` pairs whose ub falls
#   when ``var`` takes ``value``, so fixing and undoing walk one list and
#   test no signs; zero coefficients have no entry;
# * a row holds its terms heaviest first, so a scan stops at the first term
#   no heavier than the row's slack ``ub - rhs``: no later term can be
#   forced;
# * a row enters the queue only once ``ub < limit``, where ``limit`` is
#   rhs plus the row's heaviest weight.  Before that its slack covers every
#   term, so it can neither force a value nor conflict.  The root pass
#   examines every row once.
#
# The fixpoint does not depend on the order in which rows are examined, and
# neither does whether a conflict is reached, so only the number of fixings
# made before a conflict depends on this layout.

FIXPOINT = "fixpoint"
CONFLICT = "conflict"


class _Engine:
    def __init__(self, instance: MilpInstance):
        self.instance = instance
        nvars = len(instance.variables)
        rows: list[tuple[tuple[int, int], ...]] = []
        rhs: list[int] = []
        origin: list[int] = []

        def add_row(terms, bound, ci):
            rows.append(tuple(sorted(terms, key=lambda t: -abs(t[1]))))
            rhs.append(bound)
            origin.append(ci)

        for ci, c in enumerate(instance.constraints):
            if c.rel in (GREATER_EQUAL, EQUAL):
                add_row(c.terms, c.rhs, ci)
            if c.rel in (LESS_EQUAL, EQUAL):
                add_row(((v, -a) for v, a in c.terms), -c.rhs, ci)

        self.rows = rows
        self.rhs = rhs
        self.origin = origin
        self.val = [-1] * nvars
        self.ub = [sum(a for _, a in row if a > 0) for row in rows]
        self.limit = [bound + (abs(row[0][1]) if row else 0)
                      for row, bound in zip(rows, rhs)]
        drops: tuple[list[list[tuple[int, int]]], ...] = (
            [[] for _ in range(nvars)], [[] for _ in range(nvars)])
        for ri, row in enumerate(rows):
            # neighbouring terms of equal weight share one entry, which keeps
            # the lists about as small as the instance's own terms
            entry = (ri, 0)
            for v, a in row:
                if a > 0:
                    if a != entry[1]:
                        entry = (ri, a)
                    drops[0][v].append(entry)
                elif a < 0:
                    if -a != entry[1]:
                        entry = (ri, -a)
                    drops[1][v].append(entry)
        self.drops = drops
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
        limit = self.limit
        inq = self.inq
        for ri, w in self.drops[value][var]:
            left = ub[ri] - w
            ub[ri] = left
            if left < limit[ri] and not inq[ri]:
                inq[ri] = True
                self.queue.append(ri)
        return True

    def propagate(self) -> int | None:
        """Run the queue to a fixpoint; returns a conflicting row or None."""
        queue = self.queue
        inq = self.inq
        ub = self.ub
        rhs = self.rhs
        rows = self.rows
        val = self.val
        fix = self.fix
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
                if a > 0:
                    if a <= slack:
                        break
                    if val[v] < 0:
                        fix(v, 1)
                elif -a <= slack:
                    break
                elif val[v] < 0:
                    fix(v, 0)
        return None

    def undo_to(self, mark: int) -> None:
        ub = self.ub
        val = self.val
        trail = self.trail
        drops = self.drops
        for var in trail[mark:]:
            for ri, w in drops[val[var]][var]:
                ub[ri] += w
            val[var] = -1
        del trail[mark:]
        for r in self.queue:
            self.inq[r] = False
        self.queue.clear()


@dataclass(frozen=True)
class Propagation:
    status: str
    fixed: dict[str, int]
    conflict: int | None  # constraint index, when status == "conflict"


def propagate(instance: MilpInstance,
              partial: Mapping[str, int]) -> Propagation:
    """Integer bounds reasoning from a partial assignment to a fixpoint.

    Returns the variable values the constraints force on top of ``partial``,
    or the constraint that became unsatisfiable.
    """
    engine = _Engine(instance)
    given = set()
    for var, value in _checked_items(instance, partial):
        given.add(var)
        engine.fix(var, value)  # distinct names: never contradicts
    conflict_row = engine.propagate()
    if conflict_row is not None:
        return Propagation(CONFLICT, {}, engine.origin[conflict_row])
    fixed = {
        instance.variables[v].name: engine.val[v]
        for v in engine.trail if v not in given
    }
    return Propagation(FIXPOINT, fixed, None)


# --------------------------------------------------------------------------
# root heuristic: local search over guess sets, scored by their coverage

class _HeuristicStop(Exception):
    """Internal: eval or time budget of the root heuristic ran out."""


def _heuristic_incumbent(options, n, cfg, maximize, limits, stats, deadline,
                         score):
    """Seeded local search for a strong feasible start.

    Runs on an instance :func:`~dedmin.encoder.decode` rebuilt as
    ``encode(system, cfg)``, where ``options`` are the system's option
    masks.  State copy ``c`` of a proposition is then known exactly when
    ``c`` closure sweeps from the guess layer know it, so a guess set is
    scored by its coverage: how many propositions ``nu`` sweeps of the
    decoded rules know.  Both senses climb coverage over guess sets of one
    fixed size: maximize at the axiom budget, minimize at one guess fewer
    than its best full cover, until a size finds none.  Returns the
    objective and guess mask of the best selection, or None when the
    budget ran out before the first evaluation.

    Nearly every evaluation adds one guess to a set the search holds
    still: the climb tries ``(sel - {out}) | {inn}`` for every ``inn``
    under one ``out``, and the greedy start ``sel | {v}`` for every ``v``.
    Each such list is scored in one batch
    (:func:`~dedmin.oracle.coverages`), and :func:`coverage` replays the
    counts in order, so the evaluations, their budget and every incumbent
    are those of scoring the candidates one by one.  The deadline is
    checked once per batch and once per single evaluation.
    """
    from .oracle import coverages, mask_of, sweeps

    inputs = list(range(n))  # variable v is the guess-layer state of prop v

    # a count of evaluations, 5e7 over nu x rules within [3000, 60000]; an
    # evaluation no longer costs nu x rules option tests, but the formula
    # stays fixed because the tests and the benchmark pin what it gives
    tests_per_eval = max(1, cfg.nu * len(options.masks))
    eval_budget = max(3000, min(60000, 50_000_000 // tests_per_eval))
    # small guess layers have few distinct subsets; don't oversample
    eval_budget = min(eval_budget, 40 * n * max(4, n))
    rng = random.Random(limits.seed)
    by_score = sorted(inputs, key=lambda v: (-score[v], v))

    evals = 0
    best_sel: set[int] | None = None
    best_covered = -1

    def coverage(selection: set[int], covered: int | None = None) -> int:
        """Propositions ``nu`` sweeps from ``selection`` know.

        ``covered`` is that count when a batch already scored it, or None
        to sweep ``selection`` here.  Every evaluation keeps the best
        selection for the sense (the most covered, or the smallest full
        cover), so a search the budget cuts short still leaves its best.
        """
        nonlocal evals, best_sel, best_covered
        if evals >= eval_budget:
            raise _HeuristicStop
        if covered is None:
            if time.monotonic() > deadline:
                raise _HeuristicStop
            covered = sweeps(options, mask_of(selection),
                             cfg.nu)[-1].bit_count()
        evals += 1
        if (covered > best_covered if maximize else covered == n and (
                best_sel is None or len(selection) < len(best_sel))):
            best_sel, best_covered = set(selection), covered
        return covered

    def batch(kept: set[int], ins: list[int]) -> list[int]:
        """The coverage of each ``kept | {inn}``, scored in one pass."""
        if evals >= eval_budget or time.monotonic() > deadline:
            raise _HeuristicStop
        return coverages(options, mask_of(kept), ins, cfg.nu)

    def swaps(sel: set[int], ins: list[int]):
        """Each ``(sel - {out}) | {inn}`` with its coverage."""
        for out in sorted(sel):
            kept = sel - {out}
            for inn, covered in zip(ins, batch(kept, ins)):
                yield kept | {inn}, covered

    def climb(sel: set[int]) -> tuple[set[int], int]:
        """First-improvement swap ascent of coverage at fixed size."""
        current = coverage(sel)
        while current < n:
            ins = [v for v in by_score if v not in sel]
            rng.shuffle(ins)
            for cand, covered in swaps(sel, ins):
                value = coverage(cand, covered)
                if value > current:
                    sel, current = cand, value
                    break
            else:
                break
        return sel, current

    def search_size(k: int, starts: list[set[int]]) -> int:
        """Iterated local search over size-k subsets; the best coverage."""
        top, top_covered = climb(set(starts[0]))
        pool = starts[1:]
        stall = 0
        while (pool or stall < 8) and top_covered < n:
            if pool:
                cand = set(pool.pop(0))
            elif top and rng.random() < 0.7:
                cand = set(top)
                for _ in range(2):
                    cand.discard(rng.choice(sorted(cand)))
                    cand.add(rng.choice([v for v in inputs if v not in cand]))
            else:
                cand = set(rng.sample(inputs, k))
            cand, covered = climb(cand)
            if covered > top_covered:
                top, top_covered = cand, covered
                stall = 0
            else:
                stall += 1
        return top_covered

    try:
        if maximize:
            k = cfg.budget_k  # at most n, which EncodeConfig.check ensures
            if k >= n:
                coverage(set(inputs))
            else:
                # greedy constructive start plus the raw occurrence ranking
                sel: set[int] = set()
                while len(sel) < k:
                    ins = [v for v in by_score if v not in sel]
                    scored = dict(zip(ins, batch(sel, ins)))
                    sel.add(max(ins, key=lambda v: coverage(sel | {v},
                                                            scored[v])))
                search_size(k, [set(by_score[:k]), sel])
        else:
            sel = set(inputs)
            coverage(sel)  # guessing everything covers everything
            # greedy drop pass, cheapest-looking variables first
            for v in sorted(inputs, key=lambda v: (score[v], v)):
                if len(sel) > 1 and coverage(sel - {v}) == n:
                    sel.remove(v)
            # now push below the best full cover one size at a time
            while len(best_sel) > 1:
                cheapest = sorted(best_sel, key=lambda v: (score[v], v))[:3]
                starts = [best_sel - {v} for v in cheapest]
                if search_size(len(best_sel) - 1, starts) < n:
                    break
    except _HeuristicStop:
        pass

    stats.heuristic_evals = evals
    if best_sel is None:
        return None
    return (best_covered if maximize else len(best_sel)), mask_of(best_sel)


# --------------------------------------------------------------------------
# branch and bound

def _occurrences(instance: MilpInstance) -> list[int]:
    """How many constraints each variable occurs in."""
    score = [0] * len(instance.variables)
    for c in instance.constraints:
        for v, _ in c.terms:
            score[v] += 1
    return score


def _decision_order(instance: MilpInstance, score: list[int]) -> list[int]:
    """Guess-layer state variables first, then by occurrence count."""
    variables = instance.variables
    return sorted(range(len(variables)), key=lambda v: (
        not (variables[v].kind == STATE and variables[v].copy == 0),
        -score[v], v))


def _out_of_budget(limits: SolveLimits, stats: SolveStats,
                   start: float) -> bool:
    """True when no further decision may be taken; the clock is read every
    64 decisions."""
    return (limits.node_budget is not None
            and stats.nodes >= limits.node_budget) or (
            (stats.nodes & 63) == 0
            and time.monotonic() - start > limits.time_budget)


def solve(instance: MilpInstance, limits: SolveLimits | None = None) -> Solution:
    """Deterministic branch-and-bound; optima are exact, proofs complete.

    Returns ``optimal`` only when the search tree was exhausted within the
    budgets, ``time_limit`` (with the best incumbent, if any) otherwise,
    and ``infeasible`` only with a completed proof.  An instance that
    :func:`~dedmin.encoder.decode` rebuilds, with or without its full-cover
    row, is searched over guess sets, any other one over rows.
    """
    from .encoder import decode  # encoder imports milp

    if limits is None:
        limits = SolveLimits()
    start = time.monotonic()
    decoded = decode(instance)
    if decoded is not None:
        return _solve_encoding(instance, *decoded, limits, start)
    return _solve_rows(instance, limits, start)


def _solve_encoding(instance, system, cfg, full_cover, limits,
                    start) -> Solution:
    """Branch-and-bound over the guess layer of ``encode(system, cfg)``.

    The guess layer fixes every other variable to its closure value
    (:func:`~dedmin.encoder.assignment_of`), so a node is a set of guesses
    decided so far, evaluated by closure sweeps on bitmasks.  Decisions
    follow the row search's order, most occurrences first, value 1 first.
    With ``ones`` the guesses taken and ``rest`` those still undecided:

    * maximize: a node is a leaf once it holds ``budget_k`` guesses, or
      once all of ``rest`` fits in the budget (then it takes them all);
      it is pruned when the coverage of ``ones | rest`` is no better than
      the incumbent;
    * minimize: a node is a leaf once ``ones`` covers everything; it is
      pruned when it has as many guesses as the incumbent, when one more
      would reach that on a partial cover, or when ``ones | rest`` does
      not cover everything;
    * full cover (``instance`` is the max-sense encoding plus its row
      demanding every proposition, which :func:`~dedmin.encoder.decode`
      flags as ``full_cover``): the minimize search with
      ``budget_k + 1`` as its bound instead of an incumbent, stopped at
      the first cover, which is optimal with objective ``n``; ``infeasible``
      once the tree is exhausted without one.

    Minimize and full cover start with every proposition no option
    concludes already guessed, since every cover holds it.  Coverage is
    monotone in the guess set, so every pruned subtree holds nothing
    better than the incumbent.  Full cover runs no root heuristic, and no
    engine is built, so ``stats.propagations`` stays 0.

    A child skips the sweep its parent settled.  The take child's
    ``ones | rest`` is its parent's: minimizing or in full cover that set
    covers, and maximizing it beat the incumbent, which no leaf has
    changed since, as the take child is popped right after its parent.
    The skip child's ``ones`` is its parent's, which does not cover
    (minimize, full cover).  Nodes and answers are those of checking
    every node in full.
    """
    from .encoder import assignment_of
    from .oracle import option_masks, sweeps

    stats = SolveStats()
    n, nu = system.n, cfg.nu
    options = option_masks(system)
    maximize = instance.sense == MAXIMIZE and not full_cover
    score = _occurrences(instance)

    if full_cover:
        # a size limit, not an incumbent: any cover within it answers
        best_obj, best = cfg.budget_k + 1, None
    else:
        # leave at least half the budget to the exact search
        heuristic_start = time.monotonic()
        incumbent = _heuristic_incumbent(
            options, n, cfg, maximize, limits, stats,
            start + limits.time_budget * 0.5, score)
        stats.heuristic_time = time.monotonic() - heuristic_start
        best_obj, best = incumbent if incumbent is not None else (None, None)

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
    # (position of the next decision, guesses taken, whether the decision
    # that made this node took its guess; None at the root)
    stack = [(0, forced, None)]
    while stack:
        i, ones, took = stack.pop()
        taken = ones.bit_count()
        if maximize:
            if taken == k or taken + m - i <= k:
                leaf = ones if taken == k else ones | rest[i]
                value = coverage(leaf)
                if best_obj is None or value > best_obj:
                    best_obj, best = value, leaf
                continue
            if (not took and best_obj is not None
                    and coverage(ones | rest[i]) <= best_obj):
                continue
        else:
            if best_obj is not None and taken >= best_obj:
                continue
            if took is not False and coverage(ones) == n:
                best = ones
                if full_cover:
                    best_obj = n  # the instance's objective: all covered
                    break
                best_obj = taken
                continue
            if best_obj is not None and taken + 1 >= best_obj:
                continue
            if not took and coverage(ones | rest[i]) < n:
                continue
        if _out_of_budget(limits, stats, start):
            status = TIME_LIMIT
            break
        stats.nodes += 1
        stack.append((i + 1, ones, False))
        stack.append((i + 1, ones | 1 << order[i], True))
    stats.search_time = time.monotonic() - search_start

    if best is None:  # stopped before the first leaf, or no cover exists
        stats.wall_time = time.monotonic() - start
        return Solution(INFEASIBLE if status == OPTIMAL else status, None,
                        None, stats)
    assignment = assignment_of(instance, system,
                               (v for v in range(n) if best >> v & 1))
    report = evaluate(instance, assignment)
    if not report.feasible or report.objective != best_obj:
        raise RuntimeError(
            f"guess set scored {best_obj} but its encoding reads "
            f"{report.objective} with {len(report.violations)} broken rows")
    stats.wall_time = time.monotonic() - start
    return Solution(status, assignment, best_obj, stats)


def _solve_rows(instance, limits, start) -> Solution:
    """Branch-and-bound over the rows, with propagation after each decision."""
    stats = SolveStats()
    engine = _Engine(instance)
    maximize = instance.sense == MAXIMIZE
    obj_terms = list(instance.objective)

    def bound() -> int:
        val = engine.val
        total = 0
        for v, a in obj_terms:
            x = val[v]
            if x < 0:
                if (a > 0) == maximize:
                    total += a
            else:
                total += a * x
        return total

    best_obj: int | None = None
    best_values: list[int] | None = None

    def better(candidate: int) -> bool:
        if best_obj is None:
            return True
        return candidate > best_obj if maximize else candidate < best_obj

    def prunable(b: int) -> bool:
        if best_obj is None:
            return False
        return b <= best_obj if maximize else b >= best_obj

    # root propagation: a conflict here is a completed infeasibility proof,
    # also for a row without terms, which the engine checks like any other
    if engine.propagate() is not None:
        stats.propagations = engine.fix_count
        stats.wall_time = time.monotonic() - start
        return Solution(INFEASIBLE, None, None, stats)

    order = _decision_order(instance, _occurrences(instance))

    def next_unfixed() -> int | None:
        val = engine.val
        for v in order:
            if val[v] < 0:
                return v
        return None

    # chronological DFS; each stack entry is (var, trail_mark), where var
    # is None once the decision's 0-branch has been taken as well
    stack: list[tuple[int | None, int]] = []
    search_start = time.monotonic()
    status = None
    while status is None:
        if engine.propagate() is None and not prunable(bound()):
            var = next_unfixed()
            if var is None:
                values = list(engine.val)
                objective = instance.objective_value(values)
                if better(objective):
                    best_obj, best_values = objective, values
                # a leaf cannot be extended; fall through to backtrack
            else:
                if _out_of_budget(limits, stats, start):
                    status = TIME_LIMIT
                    break
                stats.nodes += 1
                stack.append((var, engine.mark()))
                engine.fix(var, 1)
                continue
        # backtrack: take the 0-branch of the deepest decision that has one
        while stack:
            var, mark = stack.pop()
            engine.undo_to(mark)
            if var is not None:
                stack.append((None, mark))
                engine.fix(var, 0)
                break
        else:
            status = OPTIMAL if best_values is not None else INFEASIBLE

    stats.propagations = engine.fix_count
    end = time.monotonic()
    stats.wall_time = end - start
    stats.search_time = end - search_start

    if best_values is None:
        return Solution(status, None, None, stats)
    assignment = {v.name: best_values[i]
                  for i, v in enumerate(instance.variables)}
    return Solution(status, assignment, best_obj, stats)
