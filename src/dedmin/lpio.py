"""LP-format export and solution import.

:func:`write_lp` emits the classic sectioned text format (Maximize/Minimize,
Subject To, Binary, End) so instances can be handed to any external solver;
:func:`read_lp` parses the same dialect back, which doubles as the
round-trip check.  :func:`read_solution` ingests an external solver's
answer, treats it as untrusted (objective recomputed, feasibility checked
constraint by constraint) and only then wraps it as a
:class:`~dedmin.milp.Solution`.

Solution files are either a JSON object ``{"name": 0/1, ...}`` or plain
``name value`` lines; variables not mentioned default to 0, matching the
sparse output of most solvers.
"""

from __future__ import annotations

import json
import re

from .encoder import variable_from_name
from .milp import (Constraint, FEASIBLE, MAXIMIZE, MINIMIZE, MilpInstance,
                   Solution, SolveStats, evaluate)

_MAX_LINE = 240


class LpParseError(ValueError):
    """The text is not in the dialect this module writes."""


class UnknownVariable(KeyError):
    """Imported solution names a variable the instance does not have."""


class NonBinaryValue(ValueError):
    """Imported solution assigns something other than 0 or 1."""


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


_NAME_TOKEN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _parse_expression(tokens: list[str], where: str) -> list[tuple[str, int]]:
    terms: list[tuple[str, int]] = []
    sign = 1
    pending: int | None = None
    dangling = False
    for token in tokens:
        if token == "+":
            sign = 1
            dangling = True
        elif token == "-":
            sign = -1
            dangling = True
        elif re.fullmatch(r"\d+", token):
            if pending is not None:
                raise LpParseError(f"{where}: two numbers in a row")
            pending = int(token)
            dangling = True
        elif _NAME_TOKEN.match(token):
            coef = sign * (pending if pending is not None else 1)
            terms.append((token, coef))
            sign, pending, dangling = 1, None, False
        else:
            raise LpParseError(f"{where}: unexpected token {token!r}")
    if pending is not None or dangling:
        raise LpParseError(f"{where}: dangling sign or coefficient")
    return terms


def read_lp(text: str) -> MilpInstance:
    """Parse the dialect :func:`write_lp` produces."""
    sense = None
    section = None
    objective_tokens: list[str] = []
    constraint_chunks: list[str] = []
    binary_names: list[str] = []

    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        lowered = stripped.lower()
        if lowered in ("maximize", "minimize"):
            sense = MAXIMIZE if lowered == "maximize" else MINIMIZE
            section = "objective"
            continue
        if lowered in ("subject to", "st", "s.t."):
            section = "constraints"
            continue
        if lowered in ("binary", "binaries", "bin"):
            section = "binary"
            continue
        if lowered == "end":
            section = "end"
            continue
        if section == "objective":
            objective_tokens.append(stripped)
        elif section == "constraints":
            if re.match(r"^[A-Za-z_][A-Za-z0-9_]*\s*:", stripped):
                constraint_chunks.append(stripped)
            elif constraint_chunks:
                constraint_chunks[-1] += " " + stripped
            else:
                raise LpParseError(f"constraint continuation before any "
                                   f"constraint: {stripped!r}")
        elif section == "binary":
            binary_names.extend(stripped.split())
        else:
            raise LpParseError(f"unexpected line outside sections: {stripped!r}")

    if sense is None:
        raise LpParseError("missing Maximize/Minimize header")
    index: dict[str, int] = {}
    for name in binary_names:
        if name in index:
            raise LpParseError(f"variable {name!r} declared Binary twice")
        index[name] = len(index)
    variables = [variable_from_name(n) for n in binary_names]

    def resolve(terms, where):
        out = []
        for name, coef in terms:
            if name not in index:
                raise LpParseError(f"{where}: variable {name!r} not declared Binary")
            out.append((index[name], coef))
        return tuple(out)

    obj_text = " ".join(objective_tokens)
    body = obj_text.split(":", 1)[1] if ":" in obj_text else obj_text
    objective = resolve(_parse_expression(body.split(), "objective"), "objective")

    constraints = []
    for chunk in constraint_chunks:
        label, _, body = chunk.partition(":")
        m = re.search(r"(<=|>=|=)\s*(-?\d+)\s*$", body)
        if not m:
            raise LpParseError(f"{label}: missing relation")
        rel, rhs = m.group(1), int(m.group(2))
        expr = body[:m.start()].split()
        terms = resolve(_parse_expression(expr, label.strip()), label.strip())
        constraints.append(Constraint(terms, rel, rhs))

    return MilpInstance(variables, constraints, objective, sense)


def binary_value(name: str, value: object) -> int:
    """An imported value as 0 or 1; anything else is :class:`NonBinaryValue`."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        raise NonBinaryValue(f"{name}: bad value {value!r}") from None
    if number not in (0.0, 1.0):
        raise NonBinaryValue(f"{name}: non-binary value {value!r}")
    return int(number)


def read_solution(text: str, instance: MilpInstance) -> Solution:
    """Import an external assignment; verified, never trusted.

    Accepts a JSON object or ``name value`` lines.  Unmentioned variables
    default to 0.  The objective is recomputed locally and feasibility is
    established through :func:`~dedmin.milp.evaluate` before a Solution is
    returned; violations raise :class:`InfeasibleImport`.
    """
    stripped = text.strip()
    pairs: dict[str, object]
    if stripped.startswith("{"):
        pairs = json.loads(stripped)
    else:
        pairs = {}
        for lineno, raw in enumerate(stripped.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise NonBinaryValue(
                    f"line {lineno}: expected 'name value', got {line!r}")
            pairs[parts[0]] = parts[1]

    assignment = {v.name: 0 for v in instance.variables}
    for name, value in pairs.items():
        if not instance.has_variable(name):
            raise UnknownVariable(name)
        assignment[name] = binary_value(name, value)

    report = evaluate(instance, assignment)
    if not report.feasible:
        raise InfeasibleImport(report.violations)
    return Solution(FEASIBLE, assignment, report.objective, SolveStats())
