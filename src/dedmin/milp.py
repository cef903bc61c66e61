"""0-1 integer linear programs and a deterministic solver for them.

The model (:class:`MilpInstance`) is a plain list of binary variables,
integer-coefficient linear constraints and one linear objective, plus the
encoding it is, settled when it is built: the ``(system, cfg, full_cover)``
triple it is an encoding of, or None, with the encoding's step block.  An
instance built from its triple holds the block alone and builds its full
variables and rows when something reads them; the solver reads the block.
The solver is branch-and-bound in one of two forms, chosen by that triple
alone:

* an encoding, ``encode(system, cfg)`` possibly followed by a row
  demanding every proposition at the last step of a max-sense encoding,
  is searched over guess sets.  Fixing the guess layer of an encoding
  forces every other variable to its closure value
  (:func:`~dedmin.encoder.assignment_of`), so the search branches on the
  guess layer only and scores each node by closure sweeps of the system's
  rules on bitmasks, pruning with the coverage of every guess still open.
  On the bottom level of the tree, where every take child is a leaf, a
  node and its skip children are expanded as one walk: one bit-sliced
  batch scores all its leaves and skip checks, and the first check that
  fails ends it.
  A seeded local search over guess sets of a fixed size, held as
  bitmasks and climbing their coverage, gives it its first incumbent; it
  scores each climb pass in batches of 1, 2, 4, ... removed guesses, and
  no guess set twice in one run.  With the full-cover row the
  instance asks whether ``budget_k`` guesses cover everything: a
  size-limited search for one cover, with no root heuristic;
* any other instance is searched over its rows: integer bounds
  propagation to a fixpoint after every decision (:func:`propagate`
  exposes the same engine on its own), with each variable's rows listed
  per value it can take and each row scanned, heaviest term first, only
  once its slack is below its heaviest weight; branching on the
  initial-layer state variable occurring in the most constraints, value 1
  first; incumbent pruning with the trivial objective bound (fixed
  contribution plus the best case for everything unfixed).

Both forms branch in the same order, count one node per decision and
keep one incumbent, which takes an answer, the root heuristic's too,
only when it is strictly better for the sense, and hand it to
:func:`solve`, which checks it.  All arithmetic is
exact integer arithmetic; a reported optimum is the true optimum of the
instance, and ``infeasible`` is only reported after the search space is
exhausted.  Runs are deterministic given the same seed and limits (modulo
a wall-clock budget that cuts a run short).
"""

from __future__ import annotations

import operator
import random
import time
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterable, Mapping, NamedTuple, Sequence

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="
_RELATIONS = {LESS_EQUAL: operator.le, GREATER_EQUAL: operator.ge,
              EQUAL: operator.eq}

STATE = "state"
PATH = "path"
OTHER = "other"

MAXIMIZE = "max"
MINIMIZE = "min"


class MalformedInstance(ValueError):
    """Instance references undeclared variables or non-integer data."""


class IncompleteAssignment(ValueError):
    """evaluate() needs a value for every variable."""


class Variable(NamedTuple):
    """A binary decision variable with its structured name.

    ``kind``/``prop``/``copy``/``path`` mirror the naming contract
    (``x{prop}_c{copy}`` for states, ``l{prop}_p{path}_c{copy}`` for
    paths) so tools never have to re-parse names.  A named tuple: cheap
    to build, and compared field by field in C.
    """

    name: str
    kind: str = OTHER
    prop: int | None = None
    copy: int | None = None
    path: int | None = None


class Constraint(NamedTuple):
    """``sum(coef * var) rel rhs`` with integer coefficients.

    A named tuple, so it equals the plain tuple ``(terms, rel, rhs)``.
    """

    terms: tuple[tuple[int, int], ...]  # (variable id, coefficient)
    rel: str
    rhs: int

    def lhs_value(self, values: Sequence[int]) -> int:
        lhs = 0  # a plain loop: no list per row
        for var, coef in self.terms:
            lhs += coef * values[var]
        return lhs


class MilpInstance:
    """Binary variables, linear constraints, one linear objective.

    ``encoding`` is the ``(system, cfg, full_cover)`` triple the instance
    is an encoding of, or None, and ``block`` is then the encoding's step
    block (:class:`~dedmin.encoder.StepBlock`): its guess layer, step 0
    and closing rows, which every reader of an encoding's rows reads.  A
    builder that passes the triple passes its block with it, and no
    variables or rows (:func:`~dedmin.encoder.rebuild` does): the triple
    is taken as given, not checked, only the block's rows are checked, and
    ``variables``, ``constraints`` and the name index are built from the
    block on first read (:func:`~dedmin.encoder.unroll`).  An instance
    built from its variables and rows takes the triple and the block that
    :func:`~dedmin.encoder.decode` reads from them.  Read-only once
    built: assigning or deleting an attribute raises
    :class:`AttributeError`, so the checks run at construction, and the
    encoding, hold for the instance's whole life.
    """

    __slots__ = ("objective", "sense", "encoding", "block", "_variables",
                 "_constraints", "_names", "_index_by_name")

    def __init__(
        self,
        variables: Sequence[Variable],
        constraints: Sequence[Constraint],
        objective: Sequence[tuple[int, int]],
        sense: str = MAXIMIZE,
        encoding: tuple | None = None,
        block: tuple | None = None,
    ):
        if sense not in (MAXIMIZE, MINIMIZE):
            raise MalformedInstance(f"bad sense {sense!r}")
        names = index = None
        if block is None:
            variables, constraints = tuple(variables), tuple(constraints)
            names = tuple([v.name for v in variables])
            index = dict(zip(names, range(len(names))))
        else:
            variables = constraints = None
        for slot, value in (
                ("objective", tuple(objective)), ("sense", sense),
                ("encoding", encoding), ("block", block),
                ("_variables", variables), ("_constraints", constraints),
                ("_names", names), ("_index_by_name", index)):
            object.__setattr__(self, slot, value)
        if block is not None:
            self._check_refs(block.rows + block.closing, block.size)
            return
        if len(index) != len(variables):
            raise MalformedInstance("duplicate variable name")
        self._check_refs(constraints, len(variables))
        from .encoder import _decode

        decoded = _decode(self)
        if decoded is not None:
            object.__setattr__(self, "encoding", decoded[0])
            object.__setattr__(self, "block", decoded[1])

    def __setattr__(self, name, value):
        raise AttributeError(f"MilpInstance is read-only: {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"MilpInstance is read-only: {name!r}")

    def _check_refs(self, constraints: Sequence[Constraint],
                    count: int) -> None:
        """Check ``constraints``, the rows the instance holds, and the
        objective against ``count`` variables."""
        for ci, c in enumerate(constraints):
            if c.rel not in _RELATIONS:
                raise MalformedInstance(f"constraint {ci}: bad relation {c.rel!r}")
            if type(c.rhs) is not int:
                raise MalformedInstance(
                    f"constraint {ci}: non-integer rhs {c.rhs!r}")
            for var, coef in c.terms:
                if not 0 <= var < count:
                    raise MalformedInstance(
                        f"constraint {ci}: undeclared variable id {var}")
                if type(coef) is not int:
                    raise MalformedInstance(
                        f"constraint {ci}: non-integer coefficient {coef!r}")
        for var, coef in self.objective:
            if not 0 <= var < count:
                raise MalformedInstance(f"objective: undeclared variable id {var}")
            if type(coef) is not int:
                raise MalformedInstance(
                    f"objective: non-integer coefficient {coef!r}")

    def _unroll(self) -> None:
        from .encoder import unroll

        variables, constraints = unroll(self)
        object.__setattr__(self, "_variables", variables)
        object.__setattr__(self, "_constraints", constraints)

    @property
    def variables(self) -> tuple[Variable, ...]:
        if self._variables is None:
            self._unroll()
        return self._variables

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        if self._constraints is None:
            self._unroll()
        return self._constraints

    @property
    def names(self) -> tuple[str, ...]:
        """The variables' names, in id order; an instance that holds its
        step block builds them from it without building the variables."""
        if self._names is None:
            from .encoder import step_names

            object.__setattr__(self, "_names", step_names(self.block))
        return self._names

    def _index(self) -> dict[str, int]:
        if self._index_by_name is None:
            names = self.names
            object.__setattr__(self, "_index_by_name",
                               dict(zip(names, range(len(names)))))
        return self._index_by_name

    def index_of(self, name: str) -> int:
        try:
            return self._index()[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._index()

    def objective_value(self, values: Sequence[int]) -> int:
        return sum(coef * values[var] for var, coef in self.objective)

    def constraint_text(self, index: int) -> str:
        """Constraint ``index`` as its LP line, unwrapped."""
        c = self.constraints[index]
        return " ".join([f"c{index}:", *term_tokens(c.terms, self.names),
                         c.rel, str(c.rhs)])

    def __repr__(self) -> str:
        # an encoding's counts are its step block's: printing it unrolls
        # nothing
        block = self.block
        if block is None:
            size, rows = len(self._variables), len(self._constraints)
        else:
            size, rows = block.size, block.row_count
        return (f"MilpInstance(vars={size}, constraints={rows}, "
                f"sense={self.sense})")


def term_tokens(terms: Sequence[tuple[int, int]],
                names: Sequence[str]) -> list[str]:
    """LP tokens of a linear expression over the variables ``names``
    names: ``x``, ``- 2 y``, ``+ z``."""
    tokens = []
    for var, coef in terms:
        name = names[var]
        mag = abs(coef)
        body = name if mag == 1 else f"{mag} {name}"
        if not tokens:
            tokens.append(body if coef > 0 else f"- {body}")
        else:
            tokens.append(f"+ {body}" if coef > 0 else f"- {body}")
    return tokens


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
    # seconds checking the final answer against every row and the
    # objective; 0 when the search has no answer
    check_time: float = 0.0

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
                "check_time": round(self.check_time, 6),
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
        try:
            var = instance.index_of(name)
        except KeyError:
            raise MalformedInstance(f"unknown variable {name!r}") from None
        if value not in (0, 1):
            raise MalformedInstance(f"{name}: non-binary value {value!r}")
        items.append((var, value))
    return items


@dataclass(frozen=True)
class EvalReport:
    objective: int
    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations


def evaluate(instance: MilpInstance, assignment: Mapping[str, int]) -> EvalReport:
    """Exact integer check of a full assignment against every constraint,
    by the row check :func:`solve` uses (:func:`_violated`)."""
    names = instance.names
    values = [-1] * len(names)
    for var, value in _checked_items(instance, assignment):
        values[var] = value
    missing = [name for name, val in zip(names, values) if val < 0]
    if missing:
        raise IncompleteAssignment(
            f"{len(missing)} variables unassigned (first: {missing[0]})")
    return EvalReport(instance.objective_value(values), tuple(
        Violation(ci, lhs, instance.constraint_text(ci))
        for ci, lhs in _violated(instance, values)))


def _broken_rows(constraints: Sequence[Constraint], values: Sequence[int],
                 first: int = 0) -> list[tuple[int, int]]:
    """``(row index, left side)`` of every row that ``values``, by
    variable id, break; the rows are numbered from ``first``."""
    broken = []
    for ci, c in enumerate(constraints, first):
        lhs = c.lhs_value(values)
        if not _RELATIONS[c.rel](lhs, c.rhs):
            broken.append((ci, lhs))
    return broken


def _violated(instance: MilpInstance,
              values: Sequence[int]) -> list[tuple[int, int]]:
    """``(row index, left side)`` of every row of ``instance`` that
    ``values``, by variable id, break, in row order.

    An encoding's rows are read from its step block.  Step ``s``'s rows
    are step 0's with every variable id raised by ``s * stride``, so step
    0's rows run on the window ``values[s * stride : s * stride + stride +
    n]``, whose entry ``i`` is the value of id ``i + s * stride``; then the
    closing rows run on ``values``.  Each row is evaluated on exactly the
    values its unrolled form reads, so the rows flagged, and their left
    sides, are those of checking every unrolled row, without building one.
    A window equal to the previous step's breaks the same rows with the
    same left sides, so their list is reused, renumbered, and not checked
    again; from the closure's fixpoint on, every window of an answer is
    equal.
    """
    block = instance.block
    if block is None:
        return _broken_rows(instance.constraints, values)
    n, nu, stride, per_step = block.n, block.nu, block.stride, len(block.rows)
    broken, window, rows = [], None, []
    for step in range(nu):
        at = step * stride
        seen, window = window, values[at:at + stride + n]
        if window != seen:
            rows = _broken_rows(block.rows, window)
        broken += [(ci + step * per_step, lhs) for ci, lhs in rows]
    return broken + _broken_rows(block.closing, values, nu * per_step)


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
        """Unfix every variable fixed after ``mark``.  The queue is empty
        here: each caller first propagates to a fixpoint or a conflict."""
        ub = self.ub
        val = self.val
        trail = self.trail
        drops = self.drops
        for var in trail[mark:]:
            for ri, w in drops[val[var]][var]:
                ub[ri] += w
            val[var] = -1
        del trail[mark:]


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
        instance.names[v]: engine.val[v]
        for v in engine.trail if v not in given
    }
    return Propagation(FIXPOINT, fixed, None)


# --------------------------------------------------------------------------
# root heuristic: local search over guess sets, scored by their coverage

class _HeuristicStop(Exception):
    """Internal: eval or time budget of the root heuristic ran out."""


def _heuristic_incumbent(options, n, cfg, incumbent, limits, stats, deadline,
                         score):
    """Seeded local search for a strong feasible start.

    Runs on an instance that is ``encode(system, cfg)``, where
    ``options`` are the system's option masks.  State copy ``c`` of a
    proposition is then known exactly when ``c`` closure sweeps from the
    guess layer know it, so a guess set is scored by its coverage: how
    many propositions ``nu`` sweeps of the system's rules know.  Both
    senses climb coverage over guess sets of one fixed size: maximize at
    the axiom budget, minimize at one guess fewer than its best full
    cover, until a size finds none.  A guess set is held as its bitmask,
    and every evaluation offers it to ``incumbent``: its coverage when
    maximizing, its size when it covers everything and the search
    minimizes.

    Nearly every evaluation adds one guess to a set the search holds
    still: the climb tries ``sel ^ 1 << out | 1 << inn`` for every
    ``inn`` under each ``out``, and the greedy start ``sel | 1 << v`` for
    every ``v``.  These are scored in batches
    (:func:`~dedmin.oracle.coverages`): the greedy start's additions in
    one, and a climb pass's outs, in sorted order, in chunks of 1, 2, 4,
    ... outs, one batch each.  A pass that stops after ``t`` outs has
    scored fewer than ``2t`` outs' worth of swaps, and one that runs to
    the end of its ``k`` outs makes ``ceil(log2(k + 1))`` batches, not
    ``k``.  :func:`coverage` replays the counts in order, so the
    evaluations, their budget and every incumbent are those of scoring
    the candidates one by one.

    Climbs revisit guess sets, so a run keeps one table from each set it
    scored to its coverage, about 100 bytes a set and never more sets
    than the run scores.  A single evaluation sweeps only a set the table
    lacks, and a batch none of whose sets is new is answered from the
    table; any other batch is scored whole and stored.  The deadline is
    checked once per batch and once per single sweep.  A chunk holds at
    most one out more than all chunks before it in its pass, so the
    scoring past a deadline is at most what its pass had scored plus one
    out: the waste is bounded by twice the work.
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

    maximize = incumbent.maximize
    evals = 0
    table: dict[int, int] = {}  # the coverage of every guess set scored

    def coverage(selection: int, covered: int | None = None) -> int:
        """Propositions ``nu`` sweeps from the guesses ``selection`` know.

        ``covered`` is that count when a batch already scored it, or None
        to read it from the table, or sweep ``selection`` here when the
        table lacks it.
        """
        nonlocal evals
        if evals >= eval_budget:
            raise _HeuristicStop
        if covered is None:
            covered = table.get(selection)
        if covered is None:
            if time.monotonic() > deadline:
                raise _HeuristicStop
            covered = sweeps(options, selection, cfg.nu)[-1].bit_count()
            table[selection] = covered
        evals += 1
        objective = covered if maximize else selection.bit_count()
        if (maximize or covered == n) and incumbent.beats(objective):
            incumbent.offer(objective, selection)
        return covered

    def batch(bases: list[int], ins: list[int]) -> list[int]:
        """The coverage of each ``base | 1 << inn``: from the table when it
        holds them all, else scored in one pass and stored."""
        if evals >= eval_budget or time.monotonic() > deadline:
            raise _HeuristicStop
        bits = [1 << inn for inn in ins]
        sets = [base | bit for base in bases for bit in bits]
        if all(map(table.__contains__, sets)):
            return list(map(table.__getitem__, sets))
        scored = coverages(options, bases, ins, cfg.nu)
        table.update(zip(sets, scored))
        return scored

    def members(sel: int) -> list[int]:
        """The guesses of ``sel``, in ascending order."""
        return [v for v in inputs if sel >> v & 1]

    def swaps(sel: int, ins: list[int]):
        """Each ``sel ^ 1 << out | 1 << inn`` with its coverage."""
        outs, size, width = members(sel), 1, len(ins)
        while outs:
            bases = [sel ^ 1 << out for out in outs[:size]]
            scored = batch(bases, ins)
            for t, kept in enumerate(bases):
                row = scored[t * width:(t + 1) * width]
                for inn, covered in zip(ins, row):
                    yield kept | 1 << inn, covered
            outs, size = outs[size:], 2 * size

    def climb(sel: int) -> tuple[int, int]:
        """First-improvement swap ascent of coverage at fixed size."""
        current = coverage(sel)
        while current < n:
            ins = [v for v in by_score if not sel >> v & 1]
            rng.shuffle(ins)
            for cand, covered in swaps(sel, ins):
                value = coverage(cand, covered)
                if value > current:
                    sel, current = cand, value
                    break
            else:
                break
        return sel, current

    def search_size(k: int, starts: list[int]) -> int:
        """Iterated local search over size-k subsets; the best coverage."""
        top, top_covered = climb(starts[0])
        pool = starts[1:]
        stall = 0
        while (pool or stall < 8) and top_covered < n:
            if pool:
                cand = pool.pop(0)
            elif top and rng.random() < 0.7:
                cand = top
                for _ in range(2):
                    cand ^= 1 << rng.choice(members(cand))
                    cand |= 1 << rng.choice(
                        [v for v in inputs if not cand >> v & 1])
            else:
                cand = mask_of(rng.sample(inputs, k))
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
            if not 0 < k < n:  # one set of size k: none, or every guess
                coverage(mask_of(by_score[:k]))
            else:
                # greedy constructive start plus the raw occurrence ranking
                sel = 0
                for _ in range(k):
                    ins = [v for v in by_score if not sel >> v & 1]
                    scored = dict(zip(ins, batch([sel], ins)))
                    sel |= 1 << max(ins, key=lambda v: coverage(
                        sel | 1 << v, scored[v]))
                search_size(k, [mask_of(by_score[:k]), sel])
        else:
            sel = (1 << n) - 1
            coverage(sel)  # guessing everything covers everything
            # greedy drop pass, cheapest-looking variables first
            for v in sorted(inputs, key=lambda v: (score[v], v)):
                if sel.bit_count() > 1 and coverage(sel ^ 1 << v) == n:
                    sel ^= 1 << v
            # now push below the best full cover one size at a time
            while incumbent.objective > 1:
                best = incumbent.answer
                cheapest = sorted(members(best), key=lambda v: (score[v], v))
                starts = [best ^ 1 << v for v in cheapest[:3]]
                if search_size(best.bit_count() - 1, starts) < n:
                    break
    except _HeuristicStop:
        pass

    stats.heuristic_evals = evals


# --------------------------------------------------------------------------
# branch and bound

class _Incumbent:
    """The best ``answer`` of a solve and its ``objective``, which may start
    as a bound with no answer; only a strictly better one replaces it."""

    def __init__(self, maximize: bool, objective: int | None = None):
        self.maximize, self.objective, self.answer = maximize, objective, None

    def beats(self, objective: int) -> bool:
        """Strictly better for the sense; anything beats None."""
        best = self.objective
        return best is None or (
            objective > best if self.maximize else objective < best)

    def offer(self, objective: int, answer) -> bool:
        """Take ``answer`` when its ``objective`` beats; True when taken."""
        if not self.beats(objective):
            return False
        self.objective, self.answer = objective, answer
        return True


def _occurrences(rows: Iterable[Constraint], count: int) -> list[int]:
    """How many of ``rows`` each variable id below ``count`` occurs in."""
    score = [0] * count
    for c in rows:
        for v, _ in c.terms:
            if v < count:
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
    and ``infeasible`` only with a completed proof.  An encoding, with or
    without its full-cover row, is searched over guess sets, any other
    instance over rows; the instance's ``encoding`` says which it is.

    Both searches return their status, their answer's values by variable
    id (None when they found none) and its objective, and every run ends
    here: a search exhausted without an answer is ``infeasible``, and an
    answer is checked against every row and the objective by the row check
    :func:`evaluate` uses (:func:`_violated`), which reads an encoding's
    step block and builds none of its unrolled rows.  A failed check
    raises :class:`RuntimeError`; ``stats.check_time`` is the seconds the
    check takes.
    """
    if limits is None:
        limits = SolveLimits()
    start = time.monotonic()
    stats = SolveStats()
    if instance.encoding is not None:
        status, values, objective = _solve_encoding(
            instance, limits, start, stats)
    else:
        status, values, objective = _solve_rows(instance, limits, start, stats)
    assignment = None
    if values is None:
        if status == OPTIMAL:  # exhausted with no answer
            status = INFEASIBLE
    else:
        check_start = time.monotonic()
        broken = _violated(instance, values)
        reads = instance.objective_value(values)
        if broken or reads != objective:
            raise RuntimeError(
                f"the answer scored {objective} but its encoding reads "
                f"{reads} with {len(broken)} broken rows")
        assignment = dict(zip(instance.names, values))
        stats.check_time = time.monotonic() - check_start
    stats.wall_time = time.monotonic() - start
    return Solution(status, assignment, objective, stats)


def _solve_encoding(instance, limits, start, stats):
    """Branch-and-bound over the guess layer of ``encode(system, cfg)``,
    where ``(system, cfg, full_cover)`` is the instance's ``encoding``.

    The guess layer fixes every other variable to its closure value
    (:func:`~dedmin.encoder.assignment_of`), so a node is a set of guesses
    decided so far, evaluated by closure sweeps on bitmasks.  Decisions
    follow the row search's order, most occurrences first, value 1 first;
    only step 0's rows and the closing rows can name the guess layer, so
    only they, the instance's step block, are counted
    (:func:`_occurrences`).
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
      demanding every proposition, whose ``encoding`` flags
      ``full_cover``): the minimize search, its incumbent starting at the
      objective ``budget_k + 1`` with no answer, stopped at the first
      cover, which is optimal with objective ``n``.

    One :class:`_Incumbent` takes the heuristic's guess sets and each leaf
    (``offer``: a cover at its guess count unless maximizing), and the
    pruning tests ask it what beats it.  Minimize and full cover start
    with every proposition no option concludes already guessed, since
    every cover holds it.  Coverage is monotone in the guess set, so every
    pruned subtree holds nothing better than the incumbent.  Full cover
    runs no root heuristic, and no engine is built, so
    ``stats.propagations`` stays 0.

    A child skips the sweep its parent settled.  The take child's
    ``ones | rest`` is its parent's: minimizing or in full cover that set
    covers, and maximizing it beat the incumbent, which no leaf has
    changed since, as the take child is popped right after its parent.
    The skip child's ``ones`` is its parent's, which does not cover
    (minimize, full cover).

    A node is on the bottom level when its take child must be a leaf: it
    holds ``budget_k - 1`` guesses (maximize), or two fewer than the
    incumbent or the size limit (minimize, full cover).  It and its chain
    of skip children are expanded as one walk: one
    :func:`~dedmin.oracle.word_coverages` batch scores every take leaf
    and every skip check of the chain, and the walk ends at the first
    check that fails.  Nodes, budget checks, incumbents and answers are
    those of checking every node in full, one at a time.

    The best guess set's values are built one step block at a time
    (:func:`~dedmin.encoder.step_values`).
    """
    from .encoder import step_values
    from .oracle import option_masks, sweeps, word_coverages

    system, cfg, full_cover = instance.encoding
    block = instance.block
    n, nu = block.n, block.nu
    options = option_masks(system)
    maximize = instance.sense == MAXIMIZE and not full_cover
    score = _occurrences(chain(block.rows, block.closing), n)

    # full cover: a size limit, not an answer; any cover within it beats it
    incumbent = _Incumbent(maximize, cfg.budget_k + 1 if full_cover else None)
    if not full_cover:
        # leave at least half the budget to the exact search
        heuristic_start = time.monotonic()
        _heuristic_incumbent(options, n, cfg, incumbent, limits, stats,
                             start + limits.time_budget * 0.5, score)
        stats.heuristic_time = time.monotonic() - heuristic_start

    def offer(guesses: int, value: int) -> bool:
        """Offer the leaf ``guesses``, of coverage ``value``, at its
        objective; True when the search ends with it."""
        if maximize:
            incumbent.offer(value, guesses)
        elif value == n:  # a cover
            incumbent.offer(guesses.bit_count(), guesses)
            return full_cover
        return False

    def coverage(guesses: int) -> int:
        return sweeps(options, guesses, nu)[-1].bit_count()

    def walk(i: int, ones: int) -> bool:
        """Expand the bottom-level node ``(i, ones)`` and its skip children
        as one walk, replayed decision by decision; True when the search
        ends.  Take child ``j`` is the leaf ``ones | 1 << order[j]``."""
        nonlocal status
        # set j - i of the batch is leaf j and set m - i + j - i the skip
        # check after it, ones | rest[j + 1]: a guess taken is in every
        # set, and order[t] in leaf t and in the checks before it
        width = m - i
        full = (1 << 2 * width) - 1
        knows = [full if ones >> p & 1 else 0 for p in range(n)]
        for t, p in enumerate(order[i:]):
            knows[p] = 1 << t | ((1 << t) - 1) << width
        scores = word_coverages(options, knows, 2 * width, nu)
        leaves, checks = scores[:width], scores[width:]
        # the walk ends at the first node whose skip check fails, or at hi
        if maximize:
            # a check fails when it is no better than the best leaf so far;
            # the skip child at m - 1 is itself a leaf
            best = -1 if incumbent.objective is None else incumbent.objective
            fails = (check <= max(best, bar)
                     for check, bar in zip(checks, accumulate(leaves, max)))
            hi = m - 2
        else:
            # a check fails short of a cover (the last, of ones alone,
            # always does), and a cover among the leaves ends the walk too
            fails = (leaf == n or check < n
                     for leaf, check in zip(leaves, checks))
            hi = m - 1
        lo = next((j for j, fail in zip(range(i, hi), fails) if fail), hi)
        for j in range(i, lo + 1):
            if _out_of_budget(limits, stats, start):
                status = TIME_LIMIT
                return True
            stats.nodes += 1
            if offer(ones | 1 << order[j], leaves[j - i]):
                return True
        if maximize and lo == m - 2:
            offer(ones | rest[m - 1], leaves[-1])
        return False

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
                offer(leaf, coverage(leaf))
                continue
            if not took and not incumbent.beats(coverage(ones | rest[i])):
                continue
        else:
            if not incumbent.beats(taken):
                continue
            if took is not False and coverage(ones) == n:
                if offer(ones, n):
                    break
                continue
            if not incumbent.beats(taken + 1):
                continue
            if not took and coverage(ones | rest[i]) < n:
                continue
        if taken == k - 1 if maximize else taken + 2 == incumbent.objective:
            if walk(i, ones):
                break
            continue
        if _out_of_budget(limits, stats, start):
            status = TIME_LIMIT
            break
        stats.nodes += 1
        stack.append((i + 1, ones, False))
        stack.append((i + 1, ones | 1 << order[i], True))
    stats.search_time = time.monotonic() - search_start

    best = incumbent.answer
    if best is None:  # stopped before the first leaf, or no cover exists
        return status, None, None
    return (status, step_values(instance, best),
            n if full_cover else incumbent.objective)


def _solve_rows(instance, limits, start, stats):
    """Branch-and-bound over the rows, with propagation after each decision."""
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

    incumbent = _Incumbent(maximize)

    # root propagation: a conflict here is a completed infeasibility proof,
    # also for a row without terms, which the engine checks like any other
    if engine.propagate() is not None:
        stats.propagations = engine.fix_count
        return OPTIMAL, None, None

    order = _decision_order(
        instance, _occurrences(instance.constraints, len(instance.variables)))

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
    status = OPTIMAL
    while True:
        if engine.propagate() is None and incumbent.beats(bound()):
            var = next_unfixed()
            if var is None:
                values = list(engine.val)
                incumbent.offer(instance.objective_value(values), values)
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
            break  # exhausted

    stats.propagations = engine.fix_count
    stats.search_time = time.monotonic() - search_start
    return status, incumbent.answer, incumbent.objective
