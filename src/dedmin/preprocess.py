"""System simplifications applied before encoding.

Three transformations, all minimum-preserving:

* :func:`expand_rules` unfolds every symmetric rule into its directed
  readings so downstream code only deals with one rule shape.
* :func:`merge_equalities` collapses pairs proven mutually derivable by a
  two-member symmetric rule into a single representative.
* :func:`eliminate_independent` strips variables that occur in exactly one
  rule; depending on how they occur they are either derivable for free or
  forced into every guess set, and the returned records say which.

:func:`simplify` runs the merge once, then the elimination once.  One pass
of each is already the joint fixpoint: the merge consumes every two-member
symmetric rule and makes none, and the elimination only deletes rules,
drops premises and renumbers, so it makes none either.

``merge_equalities`` and ``eliminate_independent`` both return enough
bookkeeping to translate a guess set for the reduced system back into one
for the original (see :func:`extend_guess`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import DeductionSystem, DirectedRule, SymmetricRule


def _unique(rules: Iterable, key=lambda rule: rule) -> list:
    """``rules`` without repeats under ``key``; the first occurrence wins.

    Directed rules hold canonical premises, so by default a rule is its own
    key: two rules are repeats when premises and conclusion agree.
    """
    first: dict = {}
    for rule in rules:
        first.setdefault(key(rule), rule)
    return list(first.values())


def _member_set(rule: SymmetricRule) -> frozenset[int]:
    return frozenset(rule.members)


def expand_rules(system: DeductionSystem) -> DeductionSystem:
    """Unfold symmetric rules; the result has directed rules only.

    A symmetric rule of size k yields its k readings, one per member as
    conclusion.  Original directed rules keep their positions; readings
    follow in declaration order.  Exact duplicates are dropped (first
    occurrence wins) so mechanically generated models stay clean.
    """
    rules = list(system.directed_rules)
    for rule in system.symmetric_rules:
        rules.extend(rule.readings())
    return DeductionSystem(system.propositions, (), _unique(rules),
                           name=system.name)


@dataclass(frozen=True)
class MergeMap:
    """Name-level record of equality merging.

    ``representative`` maps every original proposition name to the name
    that survived for its equality class (identity for survivors).
    """

    representative: dict[str, str]
    removed: tuple[str, ...]
    rules_removed: int

    def resolve(self, name: str) -> str:
        return self.representative.get(name, name)

    def to_json(self) -> dict:
        merged = {k: v for k, v in sorted(self.representative.items()) if k != v}
        return {"merged_into": merged,
                "variables_removed": len(self.removed),
                "rules_removed": self.rules_removed}


def merge_equalities(system: DeductionSystem) -> tuple[DeductionSystem, MergeMap]:
    """Collapse every pair related by a two-member symmetric rule.

    Union-find over all such pairs, so chains like ``[a,b], [b,c]`` end in a
    single class; the member with the lowest index survives.  Rules are
    rewritten onto representatives; a bigger symmetric rule whose members
    collapse degenerates into the directed readings that still say
    something.  Repeated rules are dropped, the first occurrence wins.

    One pass suffices: it consumes every two-member rule, and a bigger rule
    either keeps its size with distinct members or becomes directed
    readings, so the result has no two-member symmetric rule left.  With
    none to begin with, the input comes back unchanged.
    """
    pairs = [r for r in system.symmetric_rules if len(r.members) == 2]
    if not pairs:
        return system, MergeMap({p.name: p.name for p in system.propositions},
                                (), 0)
    parent = list(range(system.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rule in pairs:
        ra, rb = find(rule.members[0]), find(rule.members[1])
        parent[max(ra, rb)] = min(ra, rb)

    survivors = [i for i in range(system.n) if find(i) == i]
    new_index = {old: new for new, old in enumerate(survivors)}

    def relabel(old: int) -> int:
        return new_index[find(old)]

    symmetric: list[SymmetricRule] = []
    directed: list[DirectedRule] = []
    for rule in system.symmetric_rules:
        if len(rule.members) == 2:
            continue  # consumed by the merge itself
        relabelled = SymmetricRule.of(relabel(m) for m in rule.members)
        if len(_member_set(relabelled)) == len(rule.members):
            symmetric.append(relabelled)
        else:
            # Members collapsed: a reading whose premises contain its own
            # conclusion (a duplicate of the concluded class sits among the
            # other members) says nothing and is dropped.
            directed.extend(r for r in relabelled.readings()
                            if r.conclusion not in r.premises)
    for rule in system.directed_rules:
        rewritten = DirectedRule.of((relabel(p) for p in rule.premises),
                                    relabel(rule.conclusion))
        if rewritten.conclusion not in rewritten.premises:
            directed.append(rewritten)

    merged = DeductionSystem.from_names(
        [system.name_of(i) for i in survivors],
        _unique(symmetric, _member_set), _unique(directed), name=system.name)
    representative = {system.name_of(i): system.name_of(find(i))
                      for i in range(system.n)}
    removed = tuple(sorted(set(representative) - set(merged.names())))
    return merged, MergeMap(representative, removed,
                            system.rule_count - merged.rule_count)


@dataclass(frozen=True)
class EliminatedVar:
    """One independent-variable elimination and how to undo it.

    ``kind`` is ``must_guess`` when the variable has to be part of every
    full guess set (it occurred only as a premise, so nothing ever derives
    it), or ``derived_member`` / ``derived_conclusion`` when the recorded
    rule derives it for free once the rest is known.
    """

    name: str
    kind: str
    premises: tuple[str, ...]
    conclusion: str | None

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "premises": list(self.premises), "conclusion": self.conclusion}


def eliminate_independent(
    system: DeductionSystem,
) -> tuple[DeductionSystem, list[EliminatedVar]]:
    """Strip variables occurring in exactly one rule, to a fixpoint.

    Three cases, processed in ascending index order:

    * member of a symmetric rule: the variable and the rule go away; the
      variable is derivable from the other members, so the minimum is
      untouched.
    * conclusion of a directed rule: same, the rule was its only source.
    * premise of a directed rule: nothing ever derives the variable, so
      every full guess set must contain it.  The variable is dropped, the
      rule keeps its remaining premises (the variable is known by
      assumption), and the record says "must guess".

    A rule containing two or more independent variables is left alone, as
    is a single-premise rule whose premise is independent; both would need
    arguments the simple cases do not cover.

    Duplicate rules (same members regardless of order, or same premises and
    conclusion) are collapsed before counting, so occurrences reflect
    distinct rules; premise rewrites can mint new duplicates, hence the
    dedup runs every round.
    """
    names = list(system.names())
    symmetric = list(system.symmetric_rules)
    directed = list(system.directed_rules)
    eliminated: list[EliminatedVar] = []

    def dedup() -> None:
        nonlocal symmetric, directed
        symmetric = _unique(symmetric, _member_set)
        directed = _unique(directed)

    def occurrences() -> dict[int, list[tuple[str, int]]]:
        occ: dict[int, list[tuple[str, int]]] = {i: [] for i in range(len(names))}
        for ri, rule in enumerate(symmetric):
            for m in rule.members:
                occ[m].append(("sym", ri))
        for ri, rule in enumerate(directed):
            for p in rule.premises:
                occ[p].append(("dir", ri))
            occ[rule.conclusion].append(("dir", ri))
        return occ

    def drop_var(victim: int) -> None:
        nonlocal symmetric, directed
        remap = {old: (old if old < victim else old - 1)
                 for old in range(len(names)) if old != victim}
        del names[victim]
        symmetric = [SymmetricRule(tuple(remap[m] for m in r.members))
                     for r in symmetric]
        directed = [DirectedRule(tuple(remap[p] for p in r.premises),
                                 remap[r.conclusion]) for r in directed]

    while True:
        dedup()
        occ = occurrences()
        progressed = False
        for var in range(len(names)):
            if len(occ[var]) != 1:
                continue
            kind, ri = occ[var][0]
            rule_vars = (set(symmetric[ri].members) if kind == "sym"
                         else set(directed[ri].premises) | {directed[ri].conclusion})
            independents = [v for v in rule_vars if len(occ[v]) == 1]
            if len(independents) != 1:
                continue  # two independents in one rule: out of scope

            if kind == "sym":
                rule = symmetric[ri]
                others = tuple(names[m] for m in rule.members if m != var)
                eliminated.append(EliminatedVar(names[var], "derived_member",
                                                others, None))
                del symmetric[ri]
                drop_var(var)
            else:
                rule = directed[ri]
                if var == rule.conclusion:
                    eliminated.append(EliminatedVar(
                        names[var], "derived_conclusion",
                        tuple(names[p] for p in rule.premises), None))
                    del directed[ri]
                    drop_var(var)
                else:
                    if len(rule.premises) == 1:
                        continue  # rule would lose all premises; leave it
                    eliminated.append(EliminatedVar(
                        names[var], "must_guess",
                        tuple(names[p] for p in rule.premises if p != var),
                        names[rule.conclusion]))
                    directed[ri] = DirectedRule.of(
                        (p for p in rule.premises if p != var), rule.conclusion)
                    drop_var(var)
            progressed = True
            break
        if not progressed:
            break

    return DeductionSystem.from_names(names, symmetric, directed,
                                      name=system.name), eliminated


def must_guess_names(eliminated: Iterable[EliminatedVar]) -> set[str]:
    return {e.name for e in eliminated if e.kind == "must_guess"}


def extend_guess(witness_names: Iterable[str],
                 eliminated: Iterable[EliminatedVar]) -> set[str]:
    """Turn a reduced-system guess set into one for the original system.

    Must-guess variables are added back; derived variables need nothing,
    their recorded rule re-derives them once everything else is known.
    """
    out = set(witness_names)
    out.update(must_guess_names(eliminated))
    return out


@dataclass(frozen=True)
class SimplifyResult:
    system: DeductionSystem
    merge_map: MergeMap
    eliminated: tuple[EliminatedVar, ...]

    def to_json(self) -> dict:
        return {"merge": self.merge_map.to_json(),
                "eliminated": [e.to_json() for e in self.eliminated],
                "must_guess": sorted(must_guess_names(self.eliminated))}


def simplify(system: DeductionSystem) -> SimplifyResult:
    """Equality merging, then independent elimination, once each.

    That is the joint fixpoint: the elimination runs to its own fixpoint
    and never makes a two-member symmetric rule, so merging its result
    again would change nothing (see the module docstring).
    """
    merged, merge_map = merge_equalities(system)
    reduced, eliminated = eliminate_independent(merged)
    return SimplifyResult(reduced, merge_map, tuple(eliminated))
