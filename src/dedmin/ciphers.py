"""Deduction-system models of the SNOW 2.0 and Enocoro-128v2 keystream phase.

Both generators assume T consecutive keystream words are observed, treat
the keystream symbols as known (they never appear as propositions) and
model every register/word relation that stays inside the observed window
as a symmetric rule: any term of an invertible word equation follows from
the others.

``build_snow2`` emits the three-family form in which the two FSM registers
have already been identified with each other (their values are a fixed
permutation apart, so knowing one means knowing the other).
``build_snow2_raw`` keeps the two registers apart and states their
equivalence as explicit two-member rules; running
:func:`dedmin.preprocess.merge_equalities` over it reproduces the merged
model and is covered by tests.

Every generator lists its rules in the order :func:`dedmin.dsl.render_system`
writes them (``SymmetricRule.sort_key``), so a generated system and its
rendered ``.rules`` text encode to the same instance.

Enocoro window sizes follow the published state listing (``declared``).
The ``extended`` mode widens every stream by one step so that boundary
relations touching one-past-the-window values are also available.
"""

from __future__ import annotations

from .core import DeductionSystem, SymmetricRule

DECLARED = "declared"
EXTENDED = "extended"


def _system(names: list[str], rules: list[SymmetricRule],
            name: str) -> DeductionSystem:
    """The system with its rules in rendering order."""
    return DeductionSystem.from_names(
        names, sorted(rules, key=SymmetricRule.sort_key), name=name)


def _instantiate(names: dict[str, int], families, index_of) -> list[SymmetricRule]:
    """All rule instances whose member indices stay inside the window.

    ``families`` is a list of member patterns ``(stream, offset)``;
    ``names[stream]`` is the largest valid index per stream.
    """
    rules = []
    for pattern in families:
        t = 0
        while True:
            if any(t + off > names[stream] for stream, off in pattern):
                break
            rules.append(SymmetricRule.of(
                index_of(stream, t + off) for stream, off in pattern))
            t += 1
    return rules


def build_snow2(T: int) -> DeductionSystem:
    """SNOW 2.0 model over ``s_0..s_{14+T}`` and ``R_0..R_T`` (2T+16 total)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    names = [f"s_{i}" for i in range(15 + T)] + [f"R_{i}" for i in range(T + 1)]
    limit = {"s": 14 + T, "R": T}

    def index_of(stream: str, i: int) -> int:
        return i if stream == "s" else 15 + T + i

    families = [
        [("s", 16), ("s", 11), ("s", 2), ("s", 0)],   # LFSR feedback
        [("s", 15), ("R", 1), ("R", 0), ("s", 0)],    # keystream word
        [("R", 2), ("s", 5), ("R", 0)],               # FSM update
    ]
    return _system(names, _instantiate(limit, families, index_of),
                   f"snow2_T{T}")


def build_snow2_raw(T: int) -> DeductionSystem:
    """SNOW 2.0 with both FSM registers kept apart.

    The register identity ``R2_{t+1} = S(R1_t)`` appears as explicit
    two-member rules.  R2 is only tracked while it occurs in a later
    relation of its own (window ``0..T-2``); the final keystream relation
    references that last R2 value through the registers that determine it.
    """
    if T < 2:
        raise ValueError("raw model needs T >= 2")
    names = ([f"s_{i}" for i in range(15 + T)]
             + [f"R1_{i}" for i in range(T)]
             + [f"R2_{i}" for i in range(T - 1)])
    limit = {"s": 14 + T, "R1": T - 1, "R2": T - 2}

    def index_of(stream: str, i: int) -> int:
        if stream == "s":
            return i
        if stream == "R1":
            return 15 + T + i
        return 15 + 2 * T + i

    lfsr = [("s", 16), ("s", 11), ("s", 2), ("s", 0)]
    fsm = [[("R1", 1), ("s", 5), ("R2", 0)],   # FSM update
           [("R2", 1), ("R1", 0)]]             # register identity
    rules = _instantiate(limit, [lfsr], index_of)
    # keystream words: z_t relates s_{t+15}, R1_t, R2_t, s_t
    for t in range(T - 1):
        rules.append(SymmetricRule.of([
            index_of("s", t + 15), index_of("R1", t),
            index_of("R2", t), index_of("s", t)]))
    # last keystream word: R2_{T-1} is not tracked, substitute its source
    rules.append(SymmetricRule.of([
        index_of("s", T + 14), index_of("R1", T - 1),
        index_of("R1", T - 2), index_of("s", T - 1)]))
    rules.extend(_instantiate(limit, fsm, index_of))
    return _system(names, rules, f"snow2_raw_T{T}")


_ENOCORO_FAMILIES = [
    [("b", 3), ("a", 0), ("e", 0)],
    [("c", 5), ("b", 0), ("c", 1)],
    [("d", 9), ("c", 0), ("d", 1)],
    [("e", 15), ("d", 0), ("e", 3)],
    [("f", 0), ("a", 0), ("b", 0)],
    [("g", 0), ("a", 1), ("d", 0)],
    [("g", 0), ("f", 0), ("e", 2)],
    [("g", 0), ("f", 0), ("c", 0)],
    [("g", 0), ("e", 2), ("c", 0)],
    [("f", 0), ("e", 2), ("c", 0)],
]


def build_enocoro(T: int, range_mode: str = DECLARED) -> DeductionSystem:
    """Enocoro-128v2 model over seven word streams (7T-4 in declared mode)."""
    if T < 2:
        raise ValueError("T must be >= 2")
    if range_mode not in (DECLARED, EXTENDED):
        raise ValueError(f"unknown range mode {range_mode!r}")
    extra = 1 if range_mode == EXTENDED else 0
    limit = {"a": T - 1 + extra, "b": T - 2 + extra, "c": T - 2 + extra,
             "d": T - 2 + extra, "e": T + extra, "f": T - 2 + extra,
             "g": T - 2 + extra}

    names = []
    base = {}
    for stream in "abcdefg":
        base[stream] = len(names)
        names.extend(f"{stream}_{i}" for i in range(limit[stream] + 1))

    def index_of(stream: str, i: int) -> int:
        return base[stream] + i

    return _system(names, _instantiate(limit, _ENOCORO_FAMILIES, index_of),
                   f"enocoro128v2_T{T}_{range_mode}")
