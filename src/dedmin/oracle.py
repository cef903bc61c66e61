"""Ground truth independent of the integer-programming route.

Everything here works by plain forward chaining over the rules:

* :func:`closure` - least fixpoint of the known set under all rules,
  with an auditable step-by-step trace.
* :func:`brute_force_min` - exhaustive search for the smallest guess set,
  used as the oracle against which the solver route is verified.
* :func:`extract_trace` - turn a solver assignment back into a deduction
  course and cross-check it against the closure semantics.

Closure proceeds in :func:`sweeps`: a sweep derives every proposition whose
rule premises were known at the start of the sweep.  One sweep therefore
models exactly one unrolling step on the solver side, so ``rounds`` is the
number of unrolling steps that guess set actually needs.

Only a premise learned in the previous sweep can enable a rule: a rule
whose premises were all known one sweep earlier would have fired then.  So
the first sweep tests every rule, and each later sweep tests only the rules
listed under the propositions the previous sweep learned
(:class:`OptionMasks`).

:func:`coverages` scores many guess sets at once: every candidate added
to one known set.  It runs the same sweeps bit-sliced, with one bitset
over the candidates per proposition, so a sweep's cost is paid once for
the whole batch instead of once per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .core import DeductionSystem, require_valid


class UnknownProposition(KeyError):
    """A guess referenced a proposition the system does not declare."""


class TraceMismatch(ValueError):
    """A solver assignment marked something known that closure cannot justify."""


@dataclass(frozen=True)
class TraceStep:
    """One deduction: ``premises`` were known, ``rule`` derived ``deduced``."""

    premises: tuple[int, ...]
    rule: int
    deduced: int


@dataclass(frozen=True)
class ClosureResult:
    known: frozenset[int]
    trace: tuple[TraceStep, ...]
    rounds: int


def deduction_options(system: DeductionSystem) -> list[tuple[tuple[int, ...], int]]:
    """All single-step derivations as ``(premises, conclusion)`` pairs.

    Directed rules come first, in declaration order, so for an expanded
    system the option id equals the directed-rule index.  Symmetric rules
    follow as their readings, in declaration order and with no duplicate
    dropped; this keeps closure total on un-expanded systems without
    mutating them, and the ids are the rule numbers of a trace.
    """
    rules = list(system.directed_rules)
    for rule in system.symmetric_rules:
        rules.extend(rule.readings())
    return [(rule.premises, rule.conclusion) for rule in rules]


@dataclass(frozen=True)
class OptionMasks:
    """Deduction options as ``(premise bitmask, conclusion bit)`` pairs.

    ``masks`` lists them in id order; ``by_premise[p]`` lists, in id order,
    the same pairs for the options that have ``p`` among their premises.
    ``rules`` and ``rules_by_premise`` list the same options the same ways
    as ``(premises, conclusion)`` index pairs, for :func:`coverages`.
    """

    masks: tuple[tuple[int, int], ...]
    by_premise: tuple[tuple[tuple[int, int], ...], ...]
    rules: tuple[tuple[tuple[int, ...], int], ...]
    rules_by_premise: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]


def option_masks(system: DeductionSystem) -> OptionMasks:
    """The masks of every deduction option, indexed by premise for sweeps."""
    rules = deduction_options(system)
    masks = []
    by_premise: list[list[tuple[int, int]]] = [[] for _ in range(system.n)]
    rules_by_premise: list[list[tuple[tuple[int, ...], int]]] = [
        [] for _ in range(system.n)]
    for rule in rules:
        premises, conclusion = rule
        option = (mask_of(premises), 1 << conclusion)
        masks.append(option)
        for p in premises:
            by_premise[p].append(option)
            rules_by_premise[p].append(rule)
    return OptionMasks(tuple(masks), tuple(map(tuple, by_premise)),
                       tuple(rules), tuple(map(tuple, rules_by_premise)))


def sweeps(options: OptionMasks, known: int,
           limit: int | None = None) -> list[int]:
    """Known-set bitmask before the first sweep and after each one.

    A sweep derives every proposition whose premises were known at its
    start.  Stops at the fixpoint, or after ``limit`` sweeps: entry ``c``
    is then what state copy ``c`` of an encoding with ``nu >= c`` knows.

    The first sweep tests every option.  An option that fires in a later
    sweep has a premise the previous sweep learned (had all its premises
    been known before that, it would have fired then), so a later sweep
    tests only the options listed under the newly learned propositions.
    """
    rounds = [known]
    by_premise = options.by_premise
    scan = options.masks
    while limit is None or len(rounds) <= limit:
        new = 0
        for pmask, cbit in scan:
            if known & cbit == 0 and known & pmask == pmask:
                new |= cbit
        if not new:
            break
        known |= new
        rounds.append(known)
        scan = []
        while new:
            low = new & -new
            scan += by_premise[low.bit_length() - 1]
            new ^= low
    return rounds


def coverages(options: OptionMasks, known: int, candidates: list[int],
              limit: int | None = None) -> list[int]:
    """The coverage of ``known`` plus each candidate, in one pass.

    Entry ``j`` equals ``sweeps(options, known | 1 << candidates[j],
    limit)[-1].bit_count()``.  The sweeps run bit-sliced: ``knows[p]`` has
    bit ``j`` set when candidate ``j`` knows ``p``.  Each sweep finds every
    firing from the ``knows`` of its start before it applies any, and
    tests, after the first, only the options listed under a proposition
    some candidate learned in the previous sweep, as :func:`sweeps` does
    for one set.  A count is what the candidate started with plus what it
    learned; a vertical bit-plane counter sums the learned words (bit
    ``j`` of ``planes[i]`` is bit ``i`` of what candidate ``j`` learned),
    and each set bit of a plane adds its weight to its candidate's count.
    """
    m = len(candidates)
    if not m:
        return []
    full = (1 << m) - 1
    knows = [0] * len(options.rules_by_premise)
    rest = known
    while rest:
        low = rest & -rest
        knows[low.bit_length() - 1] = full
        rest ^= low
    alone = known.bit_count()
    counts = [alone + (known >> c & 1 ^ 1) for c in candidates]
    for j, c in enumerate(candidates):
        knows[c] |= 1 << j
    start = knows[:]
    scan = options.rules
    done = 0
    while limit is None or done < limit:
        gain: dict[int, int] = {}
        for premises, q in scan:
            fire = knows[q]
            if fire == full:
                continue
            fire = ~fire
            for p in premises:
                fire &= knows[p]
            if fire:
                gain[q] = gain.get(q, 0) | fire
        if not gain:
            break
        scan = []
        for q, fire in gain.items():
            knows[q] |= fire
            scan += options.rules_by_premise[q]
        done += 1
    planes: list[int] = []
    for word, before in zip(knows, start):
        word ^= before
        i = 0
        while word:
            if i == len(planes):
                planes.append(word)
                break
            planes[i], word = planes[i] ^ word, planes[i] & word
            i += 1
    for i, plane in enumerate(planes):
        while plane:
            low = plane & -plane
            counts[low.bit_length() - 1] += 1 << i
            plane ^= low
    return counts


def mask_of(props: Iterable[int]) -> int:
    """Bitmask with the bit of every proposition in ``props`` set."""
    known = 0
    for v in props:
        known |= 1 << v
    return known


def _check_guess(system: DeductionSystem, guess: Iterable[int]) -> frozenset[int]:
    out = set()
    for g in guess:
        if not 0 <= g < system.n:
            raise UnknownProposition(f"proposition index {g} not in system")
        out.add(g)
    return frozenset(out)


def closure(system: DeductionSystem, guess: Iterable[int]) -> ClosureResult:
    """Least fixpoint of ``guess`` under all rules, with a deterministic trace.

    Each sweep tests options in ascending id against the knowledge held at
    the start of the sweep; the lowest-id applicable option wins when
    several can derive the same proposition.  Replaying the trace from the
    guess set reproduces ``known`` exactly.
    """
    require_valid(system)
    start = _check_guess(system, guess)
    options = option_masks(system)
    rounds = sweeps(options, mask_of(start))
    trace: list[TraceStep] = []
    for frontier, after in zip(rounds, rounds[1:]):
        new = after & ~frontier
        for rid, (pmask, cbit) in enumerate(options.masks):
            if new & cbit and frontier & pmask == pmask:
                new &= ~cbit
                premises, deduced = options.rules[rid]
                trace.append(TraceStep(premises, rid, deduced))
    known = frozenset(v for v in range(system.n) if rounds[-1] >> v & 1)
    return ClosureResult(known, tuple(trace), len(rounds) - 1)


@dataclass(frozen=True)
class BruteForceMin:
    """Result of exhaustive minimum search; ``k_min is None`` means not found."""

    k_min: int | None
    witness: tuple[int, ...] | None
    max_k: int

    @property
    def found(self) -> bool:
        return self.k_min is not None


def brute_force_min(system: DeductionSystem, max_k: int | None = None) -> BruteForceMin:
    """Smallest guess set whose closure covers every proposition.

    Tests subsets in increasing size, lexicographically within a size, and
    returns the first that works; intended for systems of up to ~20
    propositions.  ``max_k`` defaults to ``n`` (where a solution always
    exists: guess everything).
    """
    require_valid(system)
    n = system.n
    if max_k is None:
        max_k = n
    max_k = min(max_k, n)
    masks = option_masks(system)
    target = (1 << n) - 1
    if n == 0:
        return BruteForceMin(0, (), max_k)
    for size in range(max_k + 1):
        for subset in combinations(range(n), size):
            if sweeps(masks, mask_of(subset))[-1] == target:
                return BruteForceMin(size, subset, max_k)
    return BruteForceMin(None, None, max_k)


def covers_all(system: DeductionSystem, guess: Iterable[int]) -> bool:
    """True when the closure of ``guess`` reaches every proposition."""
    known = mask_of(_check_guess(system, guess))
    return sweeps(option_masks(system), known)[-1] == (1 << system.n) - 1


def extract_trace(system: DeductionSystem, solution, cfg) -> ClosureResult:
    """Rebuild the deduction course behind a solver assignment.

    Reads the initial guesses from the copy-0 state variables, recomputes
    the closure, and checks that at every unrolling step the closure knows
    at least what the assignment marks known.  A violation means the
    instance or the solver is wrong, which is exactly what
    :class:`TraceMismatch` reports.
    """
    from . import encoder  # local import; encoder imports oracle

    if solution.assignment is None:
        raise TraceMismatch("solution carries no assignment")
    assignment = solution.assignment
    guess = [
        p.index for p in system.propositions
        if assignment.get(encoder.state_var_name(p.index, 0)) == 1
    ]
    result = closure(system, guess)
    per_round = sweeps(option_masks(system), mask_of(guess), cfg.nu)
    for copy in range(0, cfg.nu + 1):
        justified = per_round[min(copy, len(per_round) - 1)]
        for p in system.propositions:
            marked = assignment.get(encoder.state_var_name(p.index, copy))
            if marked == 1 and justified & (1 << p.index) == 0:
                raise TraceMismatch(
                    f"assignment marks {p.name} known at step {copy} "
                    f"but closure cannot derive it yet")
    return result


def render_trace(system: DeductionSystem, result: ClosureResult) -> str:
    """Markdown table of the deduction course: step, premises, rule, deduced."""
    lines = ["| No. | Known | Rule | Deduced |", "| --- | --- | --- | --- |"]
    for i, step in enumerate(result.trace, start=1):
        premises = ", ".join(system.name_of(p) for p in step.premises)
        lines.append(f"| {i} | {premises} | r{step.rule + 1} | "
                     f"{system.name_of(step.deduced)} |")
    return "\n".join(lines) + "\n"
