"""LP-format export and solution import.

:func:`write_lp` emits the classic sectioned text format, so that instances
can be handed to any external solver, and :func:`read_lp` is its inverse.
The dialect is a ``Maximize`` or ``Minimize`` line; an ``obj:`` line of the
objective's terms; ``Subject To``; rows labelled ``c0``, ``c1``, ... in
order, each ending in its relation and integer right-hand side; ``Binary``
and one name per line; and ``End``.  A term is ``[+|-] [coefficient]
name``, and only the first term may omit its sign.  A line that would pass
240 characters goes on, after a break between terms, on a line that starts
with three spaces.  :func:`read_lp` reads the same tokens on the same
lines, with any spacing between and around the tokens of the objective and
the rows and with any line ends that ``str.splitlines`` splits on; the
section lines, and each name line (one space, then the name), are read
only as written.  Any other text is an :class:`LpParseError`.

:func:`write_lp` writes an encoding, however it was built, from its step
block (``MilpInstance.block``), one of its ``nu`` unrolling steps at a
time: every row of step ``s`` is a row of step 0 with its ids raised by
``s * stride``, the block's own fields, so step 0's rows are rendered
once, with the copy numbers and row labels left open, and each step fills
them in with string operations that run in C.  A step row that could pass 240
characters at the last step is written by itself at every step, from its
tokens filled in.  The closing rows are written term by term, and every
name comes from ``MilpInstance.names``, so no unrolled row or variable of
an encoding is built.  Any other instance is written row by row, term by
term; the text is the same either way.

:func:`read_lp` reads in one of two ways, with the same result:

* the text of an encoding is read by re-encoding it.  Its first unrolling
  step and its last rows name the one encoding it can be
  (:func:`~dedmin.encoder.read_first_step`, the reading
  :func:`~dedmin.encoder.decode` makes); that encoding is built
  (:func:`~dedmin.encoder.rebuild`, which builds its step block alone),
  and it is the answer when :func:`write_lp` writes the text back,
  compared one step block at a time.  No other row is parsed, no decode
  runs and no unrolled row is built;
* any other text, including an encoding's with other whitespace or line
  ends or an extra row, is parsed line by line and token by token, and
  the instance takes the triple :func:`~dedmin.encoder.decode` reads.

:func:`read_assignment` reads a JSON object ``{"name": 0/1, ...}``, that
object under ``"assignment"`` as ``solve --json`` writes it, or ``name
value`` lines, the shape of a Gurobi ``.sol`` file.  :func:`read_solution`
treats such an answer as untrusted (objective recomputed, feasibility
checked constraint by constraint) and only then wraps it as a
:class:`~dedmin.milp.Solution`.
"""

from __future__ import annotations

import json
from typing import Iterator

from .encoder import (StepBlock, filled, opened_names, read_first_step,
                      rebuild, variable_from_name)
from .milp import (Constraint, EQUAL, FEASIBLE, GREATER_EQUAL, LESS_EQUAL,
                   MAXIMIZE, MINIMIZE, MilpInstance, Solution, SolveStats,
                   Variable, evaluate, term_tokens)

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


def _line(label: str, tokens: list[str], tail: str = "") -> str:
    """`` label: token ... tail``, each piece after a space, with its line
    end.

    It is joined once.  Only a line that would pass ``_MAX_LINE``
    characters before its tail is broken, between tokens, onto lines that
    start with three spaces; the tail stays on the last of them.
    """
    line = " ".join([f" {label}:", *tokens])
    if len(line) > _MAX_LINE:
        lines = [f" {label}:"]
        for token in tokens:
            if len(lines[-1]) + len(token) + 1 > _MAX_LINE:
                lines.append("   " + token)
            else:
                lines[-1] += " " + token
        line = "\n".join(lines)
    return f"{line} {tail}\n" if tail else line + "\n"


def _lines(instance: MilpInstance) -> Iterator[str]:
    """The text of :func:`write_lp`, in pieces that end in a line end: a
    line, with the lines a wrapped line goes on on; for an encoding, all
    rows of one unrolling step; or all the ``Binary`` names.  An encoding
    is written from its step block and its names, and none of its
    unrolled rows is built."""
    names = instance.names
    yield "Maximize\n" if instance.sense == MAXIMIZE else "Minimize\n"
    yield _line("obj", term_tokens(instance.objective, names))
    yield "Subject To\n"
    if instance.block is None:
        first, rows = 0, instance.constraints  # written term by term
    else:
        block = instance.block
        yield from _step_rows(block)
        first, rows = block.nu * len(block.rows), block.closing
    for ci, c in enumerate(rows, first):
        yield _line(f"c{ci}", term_tokens(c.terms, names), f"{c.rel} {c.rhs}")
    yield "Binary\n"
    yield "".join([f" {name}\n" for name in names])
    yield "End\n"


def _step_rows(block: StepBlock) -> Iterator[str]:
    """The rows of each unrolling step of an encoding, as one piece per
    step, from its step block.

    Step 0's rows are rendered once, with the copy numbers of their names
    left open (:func:`~dedmin.encoder.opened_names`) and each label's
    number left open as a ``%s``; each step fills the copy numbers with two
    ``str.replace`` (:func:`~dedmin.encoder.filled`) and the labels with
    one ``%``.  A row that could pass ``_MAX_LINE`` characters at the last
    step, where the numbers have the most digits, is left open whole, and
    :func:`_line` writes it at every step from its tokens, filled in.
    """
    nu, per_step = block.nu, len(block.rows)
    opened = opened_names(block.variables)
    pieces, wide = [], {}
    for r, c in enumerate(block.rows):
        # an encoding's rows have terms, so a space follows the label
        tokens = term_tokens(c.terms, opened)
        terms = " ".join(tokens)
        label = f" c{(nu - 1) * per_step + r}: "  # at the last step
        if len(label) + len(filled(terms, nu - 1)) > _MAX_LINE:
            pieces.append("%s")
            wide[r] = tokens, f"{c.rel} {c.rhs}"
        else:
            pieces.append(f" c%s: {terms} {c.rel} {c.rhs}\n")
    text = "".join(pieces)
    for step in range(nu):
        base = step * per_step
        fills = [*map(str, range(base, base + per_step))]
        for r, (tokens, tail) in wide.items():
            fills[r] = _line(f"c{base + r}",
                             [filled(token, step) for token in tokens], tail)
        yield filled(text, step) % tuple(fills)


def write_lp(instance: MilpInstance) -> str:
    """Deterministic LP text for the instance; one constraint per ``cN:``."""
    return "".join(_lines(instance))


_SIGNS = {"+": 1, "-": -1}


def _integer(token: str, where: str) -> int:
    """``token`` as an integer: an optional ``-``, then ASCII digits
    (``isdecimal`` alone takes the digits of other scripts), few enough
    for ``int()``."""
    if token.removeprefix("-").isdecimal() and token.isascii():
        try:
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


def _row(line: str, ci: int, index: dict[str, int]) -> Constraint:
    """Row ``ci`` from its line (its wrapped lines, joined)."""
    where = f"c{ci}"
    body = _body(line, where)
    if len(body) < 2 or body[-2] not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
        raise LpParseError(f"{where}: missing relation")
    return Constraint(_terms(body[:-2], index, where), body[-2],
                      _integer(body[-1], where))


class _Named:
    """The variables of a list of names, each built when it is read."""

    def __init__(self, names: list[str]):
        self.names = names

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> Variable:
        return variable_from_name(self.names[i])


def _read_encoding(text: str) -> MilpInstance | None:
    """The encoding whose :func:`write_lp` is ``text``, or None.

    Only the rows of the first unrolling step and the last two are
    parsed: :func:`~dedmin.encoder.read_first_step` reads from them the
    one encoding the text can be, and :func:`~dedmin.encoder.rebuild`
    builds it.  It is the answer when :func:`write_lp` writes ``text``,
    compared piece by piece as the pieces are written, each step's rows
    and all the ``Binary`` names as one piece, so that no second copy of
    the text is made.
    """
    sense = {"Maximize\n": MAXIMIZE, "Minimize\n": MINIMIZE}.get(text[:9])
    subject = text.find("\nSubject To\n")
    binary = text.rfind("\nBinary\n")  # the line end of the last row
    start = subject + 12  # where row c0 starts
    if (sense is None or subject < 0 or binary < start
            or not text.endswith("\nEnd\n")):
        return None
    names = text[binary + 9:-5].split("\n ")
    index = dict(zip(names, range(len(names))))
    # a row starts after a line end and " c", which no wrapped line has
    count = text.count("\n c", start - 1, binary)

    def rows() -> Iterator[Constraint]:
        at = start
        for ci in range(count):
            end = text.find("\n c", at, binary)
            yield _row(text[at:end if end >= 0 else binary], ci, index)
            at = end + 1

    try:
        last = text.rfind("\n c", start - 1, binary) + 1
        tail = [_row(text[last:binary], count - 1, index)]
        if count > 1:
            before = text.rfind("\n c", start - 1, last - 1) + 1
            tail.insert(0, _row(text[before:last - 1], count - 2, index))
        encoding = read_first_step(_Named(names), sense, rows(), count, tail)
    except ValueError:  # an LpParseError, or a name's number int() refuses
        return None
    if encoding is None:
        return None
    instance = rebuild(encoding)
    at = 0
    for line in _lines(instance):
        if not text.startswith(line, at):
            return None
        at += len(line)
    return instance if at == len(text) else None


def read_lp(text: str) -> MilpInstance:
    """The instance :func:`write_lp` turns into ``text``.

    ``text`` has the tokens and lines :func:`write_lp` writes, in any
    spacing within the objective and the rows and with any line ends that
    ``str.splitlines`` splits on; anything else is an
    :class:`LpParseError`.  The text of an encoding gives an instance
    whose ``encoding`` is its triple.
    """
    instance = _read_encoding(text)
    return _parse(text) if instance is None else instance


def _parse(text: str) -> MilpInstance:
    """:func:`read_lp` by parsing every line; the instance's ``encoding``
    is what :func:`~dedmin.encoder.decode` reads from it."""
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

    constraints = [_row(line, ci, index)
                   for ci, line in enumerate(lines[3:binary])]
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
    assignment = dict.fromkeys(instance.names, 0)
    for name, value in read_assignment(text).items():
        if not instance.has_variable(name):
            raise UnknownVariable(name)
        assignment[name] = value

    report = evaluate(instance, assignment)
    if not report.feasible:
        raise InfeasibleImport(report.violations)
    return Solution(FEASIBLE, assignment, report.objective, SolveStats())
