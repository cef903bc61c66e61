"""Domain types for deduction systems, checked when they are built.

A deduction system is a set of named propositions plus rules stating which
propositions follow from which others.  Two rule shapes exist:

* ``DirectedRule``: the conclusion follows once every premise is known.
* ``SymmetricRule``: any one member follows from all the other members
  (the usual shape of an invertible equation, where knowing all but one
  term determines the last).

Rules reference propositions by integer index; the system owns the
index-to-name mapping.  All types are immutable after construction, so they
can be shared freely across threads.  Building a :class:`DeductionSystem`
runs :func:`validate` and raises :class:`ValidationError` with every
diagnostic at once, so code that takes a system can trust it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Proposition:
    """A named proposition; ``index`` is its position in the owning system."""

    index: int
    name: str


@dataclass(frozen=True)
class SymmetricRule:
    """Mutual-derivation rule: each member follows from all the others."""

    members: tuple[int, ...]

    @staticmethod
    def of(members: Iterable[int]) -> "SymmetricRule":
        return SymmetricRule(tuple(members))

    def readings(self) -> tuple["DirectedRule", ...]:
        """One directed rule per member, in member order: it follows from
        the members at every other position."""
        return tuple(
            DirectedRule.of((m for j, m in enumerate(self.members) if j != i),
                            member)
            for i, member in enumerate(self.members))

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.members)), self.members)


@dataclass(frozen=True)
class DirectedRule:
    """One-way rule: ``conclusion`` follows once every premise is known.

    Premises are canonicalized to a sorted duplicate-free tuple so
    structurally equal rules compare equal regardless of input order.
    """

    premises: tuple[int, ...]
    conclusion: int

    def __post_init__(self):
        canonical = tuple(sorted(set(self.premises)))
        if canonical != self.premises:
            object.__setattr__(self, "premises", canonical)

    @staticmethod
    def of(premises: Iterable[int], conclusion: int) -> "DirectedRule":
        return DirectedRule(tuple(premises), conclusion)

    def sort_key(self) -> tuple:
        return (self.conclusion, self.premises)


@dataclass(frozen=True)
class Diagnostic:
    """A single well-formedness complaint; ``where`` names the offender."""

    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


class ValidationError(ValueError):
    """A system breaks a well-formedness rule; carries every diagnostic."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        listing = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"invalid system: {listing}")


class DeductionSystem:
    """Propositions plus symmetric and directed rules.

    Read-only once built: assigning or deleting an attribute raises
    :class:`AttributeError`, so the check run at construction holds for
    the system's whole life.  Equality compares propositions in
    declaration order and rules as multisets, so two systems that list the
    same rules in different order are considered the same system.
    Declaration order still matters operationally: it fixes proposition
    indices and the deterministic ordering used by the encoder.
    """

    __slots__ = ("name", "propositions", "symmetric_rules", "directed_rules",
                 "_index_by_name", "_option_masks")

    def __init__(
        self,
        propositions: Sequence[Proposition],
        symmetric_rules: Sequence[SymmetricRule] = (),
        directed_rules: Sequence[DirectedRule] = (),
        name: str = "",
    ):
        propositions = tuple(propositions)
        for slot, value in (
                ("name", name), ("propositions", propositions),
                ("symmetric_rules", tuple(symmetric_rules)),
                ("directed_rules", tuple(directed_rules)),
                ("_index_by_name", {p.name: p.index for p in propositions}),
                # oracle.option_masks fills it on first use
                ("_option_masks", None)):
            object.__setattr__(self, slot, value)
        problems = validate(self)
        if problems:
            raise ValidationError(problems)

    def __setattr__(self, name, value):
        raise AttributeError(f"DeductionSystem is read-only: {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"DeductionSystem is read-only: {name!r}")

    @staticmethod
    def from_names(
        names: Sequence[str],
        symmetric_rules: Sequence[SymmetricRule] = (),
        directed_rules: Sequence[DirectedRule] = (),
        name: str = "",
    ) -> "DeductionSystem":
        props = tuple(Proposition(i, n) for i, n in enumerate(names))
        return DeductionSystem(props, symmetric_rules, directed_rules, name)

    @property
    def n(self) -> int:
        return len(self.propositions)

    @property
    def rule_count(self) -> int:
        return len(self.symmetric_rules) + len(self.directed_rules)

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.propositions)

    def name_of(self, index: int) -> str:
        return self.propositions[index].name

    def index_of(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise KeyError(f"unknown proposition {name!r}") from None

    def has_name(self, name: str) -> bool:
        return name in self._index_by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeductionSystem):
            return NotImplemented
        return (
            self.propositions == other.propositions
            and sorted(r.sort_key() for r in self.symmetric_rules)
            == sorted(r.sort_key() for r in other.symmetric_rules)
            and sorted(r.sort_key() for r in self.directed_rules)
            == sorted(r.sort_key() for r in other.directed_rules)
        )

    def __hash__(self):  # pragma: no cover - systems are not dict keys
        return hash((self.propositions, len(self.symmetric_rules),
                     len(self.directed_rules)))

    def __repr__(self) -> str:
        return (f"DeductionSystem(n={self.n}, symmetric={len(self.symmetric_rules)}, "
                f"directed={len(self.directed_rules)})")


def validate(system: DeductionSystem) -> list[Diagnostic]:
    """Check every type invariant; an empty result means the system is sound.

    :class:`DeductionSystem` runs this when it is built and raises every
    diagnostic at once, so a built system always gives an empty list.
    """
    out: list[Diagnostic] = []
    n = system.n

    seen_names: dict[str, int] = {}
    for p in system.propositions:
        if p.index != len(seen_names) and p.name not in seen_names:
            out.append(Diagnostic("index", p.name,
                                  f"index {p.index} out of declaration order"))
        if p.name in seen_names:
            out.append(Diagnostic("duplicate-name", p.name,
                                  "proposition name declared twice"))
        seen_names.setdefault(p.name, p.index)
        if not p.name:
            out.append(Diagnostic("empty-name", f"#{p.index}",
                                  "proposition has an empty name"))

    def label(kind: str, i: int) -> str:
        return f"{kind} rule #{i}"

    for i, rule in enumerate(system.symmetric_rules):
        where = label("symmetric", i)
        if len(rule.members) < 2:
            out.append(Diagnostic("too-few-members", where,
                                  "symmetric rule needs at least 2 members"))
        if len(set(rule.members)) != len(rule.members):
            out.append(Diagnostic("duplicate-member", where,
                                  "symmetric rule repeats a member"))
        for m in rule.members:
            if not 0 <= m < n:
                out.append(Diagnostic("out-of-range", where,
                                      f"member index {m} out of range"))

    for i, rule in enumerate(system.directed_rules):
        where = label("directed", i)
        if not rule.premises:
            out.append(Diagnostic("empty-premises", where,
                                  "directed rule has empty premises"))
        if rule.conclusion in rule.premises:
            out.append(Diagnostic("self-conclusion", where,
                                  "conclusion also appears as a premise"))
        for m in rule.premises + (rule.conclusion,):
            if not 0 <= m < n:
                out.append(Diagnostic("out-of-range", where,
                                      f"proposition index {m} out of range"))

    return out
