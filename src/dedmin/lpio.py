"""LP-format export and solution import.

:func:`write_lp` emits the classic sectioned text format, so that instances
can be handed to any external solver, and :func:`read_lp` is its exact
inverse, raising :class:`LpParseError` on any other text.  The dialect is a
``Maximize`` or ``Minimize`` line; an ``obj:`` line of the objective's terms;
``Subject To``; rows labelled ``c0``, ``c1``, ... in order, each ending in
its relation and integer right-hand side; ``Binary`` and one name per line;
and ``End``.  A term is ``[+|-] [coefficient] name``, and only the first
term may omit its sign.  A line that would pass 240 characters goes on,
after a break between terms, on a line that starts with three spaces.

:func:`read_assignment` reads a JSON object ``{"name": 0/1, ...}``, that
object under ``"assignment"`` as ``solve --json`` writes it, or ``name
value`` lines, the shape of a Gurobi ``.sol`` file.  :func:`read_solution`
treats such an answer as untrusted (objective recomputed, feasibility
checked constraint by constraint) and only then wraps it as a
:class:`~dedmin.milp.Solution`.
"""

from __future__ import annotations

import json

from .encoder import variable_from_name
from .milp import (Constraint, EQUAL, FEASIBLE, GREATER_EQUAL, LESS_EQUAL,
                   MAXIMIZE, MINIMIZE, MilpInstance, Solution, SolveStats,
                   evaluate)

_MAX_LINE = 240


class LpParseError(ValueError):
    """The text is not in the dialect this module writes."""


class UnknownVariable(KeyError):
    """Imported solution names a variable the instance does not have."""


class NonBinaryValue(ValueError):
    """An imported assignment is malformed or holds a value other than 0
    or 1."""


class InfeasibleImport(ValueError):
    """Imported assignment violates constraints; ``violations`` says which."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        first = self.violations[0].text if self.violations else ""
        super().__init__(
            f"{len(self.violations)} constraints violated (first: {first})")


def _emit(label: str, tokens: list[str], tail: str = "") -> list[str]:
    lines = []
    line = f" {label}:"
    for token in tokens:
        if len(line) + len(token) + 1 > _MAX_LINE:
            lines.append(line)
            line = "   " + token
        else:
            line += " " + token
    if tail:
        line += f" {tail}"
    lines.append(line)
    return lines


def write_lp(instance: MilpInstance) -> str:
    """Deterministic LP text for the instance; one constraint per ``cN:``."""
    lines = ["Maximize" if instance.sense == MAXIMIZE else "Minimize"]
    lines.extend(_emit("obj", instance.term_tokens(instance.objective)))
    lines.append("Subject To")
    for ci, c in enumerate(instance.constraints):
        lines.extend(_emit(f"c{ci}", instance.term_tokens(c.terms),
                           tail=f"{c.rel} {c.rhs}"))
    lines.append("Binary")
    for v in instance.variables:
        lines.append(f" {v.name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_SIGNS = {"+": 1, "-": -1}


def _integer(token: str, where: str) -> int:
    """``token`` as an integer: an optional ``-``, then ASCII digits
    (``isdecimal`` alone also takes the digits of other scripts)."""
    digits = token.removeprefix("-")
    try:
        if digits.isascii() and digits.isdecimal():
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    raise LpParseError(f"{where}: {token!r} is not an integer")


def _terms(tokens: list[str], index: dict[str, int],
           where: str) -> tuple[tuple[int, int], ...]:
    """``[+|-] [coefficient] name`` terms; only the first may omit its sign."""
    terms = []
    rest = iter(tokens)
    for token in rest:
        sign = _SIGNS.get(token)
        if sign is None:
            if terms:
                raise LpParseError(f"{where}: no sign before {token!r}")
            sign = 1
        else:
            token = next(rest, None)
        coefficient = 1
        if token is not None and token.isdecimal():
            coefficient = _integer(token, where)
            token = next(rest, None)
        if token is None:
            raise LpParseError(f"{where}: dangling sign or coefficient")
        if token not in index:
            raise LpParseError(f"{where}: {token!r} is not declared Binary")
        terms.append((index[token], sign * coefficient))
    return tuple(terms)


def _body(line: str, label: str) -> list[str]:
    """The tokens after the ``label:`` that starts ``line``."""
    tokens = line.split()
    if tokens[:1] != [f"{label}:"]:
        raise LpParseError(f"expected ' {label}:', got {line!r}")
    return tokens[1:]


def read_lp(text: str) -> MilpInstance:
    """The instance :func:`write_lp` turns into ``text``.

    Anything :func:`write_lp` does not write is an :class:`LpParseError`.
    """
    lines: list[str] = []
    for line in text.splitlines():
        if line.startswith("   ") and lines:  # a wrapped line goes on
            lines[-1] += line[2:]
        else:
            lines.append(line)
    if lines[:1] not in (["Maximize"], ["Minimize"]):
        raise LpParseError("missing Maximize/Minimize header")
    if (lines[2:3] != ["Subject To"] or "Binary" not in lines
            or lines[-1] != "End"):
        raise LpParseError("expected the objective, then 'Subject To', "
                           "the rows, 'Binary', the names and 'End'")
    binary = lines.index("Binary")
    index: dict[str, int] = {}
    for line in lines[binary + 1:-1]:
        name = line[1:]
        if line[:1] != " " or not (name.isascii() and name.isidentifier()):
            raise LpParseError(f"Binary: {line!r} is not one variable name")
        if name in index:
            raise LpParseError(f"variable {name!r} declared Binary twice")
        index[name] = len(index)

    constraints = []
    for ci, line in enumerate(lines[3:binary]):
        where = f"c{ci}"
        body = _body(line, where)
        if len(body) < 2 or body[-2] not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
            raise LpParseError(f"{where}: missing relation")
        constraints.append(Constraint(_terms(body[:-2], index, where),
                                      body[-2], _integer(body[-1], where)))
    return MilpInstance(map(variable_from_name, index),
                        constraints,
                        _terms(_body(lines[1], "obj"), index, "objective"),
                        MAXIMIZE if lines[0] == "Maximize" else MINIMIZE)


def binary_value(name: str, value: object) -> int:
    """An imported value as 0 or 1; anything else is :class:`NonBinaryValue`."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        raise NonBinaryValue(f"{name}: bad value {value!r}") from None
    if number not in (0.0, 1.0):
        raise NonBinaryValue(f"{name}: non-binary value {value!r}")
    return int(number)


def read_assignment(text: str) -> dict[str, int]:
    """The ``name: value`` pairs of an assignment, each a :func:`binary_value`.

    ``text`` is a JSON object, that object under ``"assignment"`` (as
    ``solve --json`` writes it), or ``name value`` lines in which ``#``
    starts a comment (the shape of a Gurobi ``.sol`` file).
    """
    if not text.lstrip().startswith("{"):
        pairs = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split("#", 1)[0].split()
            if len(parts) == 2:
                pairs[parts[0]] = parts[1]
            elif parts:
                raise NonBinaryValue(f"line {lineno}: expected 'name value', "
                                     f"got {raw.strip()!r}")
    else:
        try:
            pairs = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise NonBinaryValue(f"not JSON: {exc}") from None
        pairs = pairs.get("assignment", pairs)
        if not isinstance(pairs, dict):
            raise NonBinaryValue("no assignment object in the JSON")
    return {name: binary_value(name, value) for name, value in pairs.items()}


def read_solution(text: str, instance: MilpInstance) -> Solution:
    """Import an external assignment; verified, never trusted.

    ``text`` is read by :func:`read_assignment`, and unmentioned variables
    default to 0.  The objective is recomputed locally and feasibility is
    established through :func:`~dedmin.milp.evaluate` before a Solution is
    returned; violations raise :class:`InfeasibleImport`.
    """
    assignment = {v.name: 0 for v in instance.variables}
    for name, value in read_assignment(text).items():
        if not instance.has_variable(name):
            raise UnknownVariable(name)
        assignment[name] = value

    report = evaluate(instance, assignment)
    if not report.feasible:
        raise InfeasibleImport(report.violations)
    return Solution(FEASIBLE, assignment, report.objective, SolveStats())
