"""Unroll a deduction system into a 0-1 integer program.

One unrolling step (a "copy") models one round of deduction.  Copy ``i+1``
of a proposition is known exactly when one of its *paths* fires at copy
``i``: path 1 is always the carry-over of the proposition's own previous
value, and every further path is one directed rule concluding it.  A path
is just its premise tuple, and :func:`enumerate_paths` gives the path
table, each proposition's premise tuples.  Two small inequality groups
make that exact over binaries:

* state link (``tau`` paths feeding state ``x``)::

      -2x + sum(l) + 1 >= 0        # known implies some path fired
      tau * x - sum(l) >= 0        # a fired path implies known

  with the single equality ``x = l1`` when ``tau == 1``.

* path firing (``kappa`` premises feeding path ``l``)::

      l - sum(x) + (kappa - 1) >= 0    # all premises known => fires
      -kappa * l + sum(x) >= 0         # fires => all premises known

  with the single equality ``l = x1`` when ``kappa == 1``.

Compact mode folds, per state and step, the carry-over path and one
designated multi-premise path directly into the state link, dropping two
path variables and three rows::

      ((tau-1)*kappa + 1) x' - kappa*(x + sum(l_mid)) - sum(p) + kappa - 1 >= 0
      -kappa x' + kappa*(x + sum(l_mid)) + sum(p) >= 0

where ``l_mid`` are the surviving paths and ``p`` the designated path's
premises.  The admitted 0/1 combinations are identical, so both modes have
the same optima.

The guess layer ``x{p}_c0`` takes variable ids ``0 .. n-1``.  Each
unrolling step then adds one block of ``stride`` variables, its path
variables in proposition and path order followed by the ``n`` states of
the next copy, so ``stride`` is a step's path variables plus ``n``.  Every
row of step ``s`` is a row of step 0 with each variable id raised by
``s * stride``, and every variable of step ``s`` a variable of step 0 with
its copy number raised by ``s``.

The initial layer is budgeted (``sum(x at copy 0) <= k``) and the objective
maximizes the final layer; the alternative sense minimizes the initial
layer subject to full final coverage.  An encoding is therefore its *step
block* (:class:`StepBlock`): the guess layer, step 0's variables and rows,
the closing rows, and its layout, ``n`` and ``nu``, from which the block
gives ``stride`` and ``size``, the instance's variable count, so no reader
derives them again.  :func:`_emit` writes that block, the one place the
layout is written, and :func:`rebuild` is the one builder of an instance
from a ``(system, cfg, full_cover)`` triple: the instance records the
triple and holds its block, closed by a row demanding full final coverage
after a max-sense encoding when ``full_cover`` is set, and builds its full
variables and rows (:func:`unroll`, which shifts the block one step at a
time, :func:`_steps`) only when something reads them.  :func:`encode` is
:func:`rebuild` without that row.  Every pass over an encoding that can
read the block does, and takes the layout from its fields: the LP writer,
the solver's ranking of the guess layer and its answer check, and
:func:`step_values`, the solver's build of its final assignment, read the
block one step at a time; :func:`step_names` gives the names of every
variable from the block by string operations, and :func:`unroll` names
the variables it builds with them.

An instance built any other way takes, when it is built, the triple
:func:`decode` reads, or None: the one triple its first step names
(:func:`read_first_step`), checked against that triple's block unrolled
one step at a time.  Either way ``MilpInstance.encoding`` says, from then
on, what the instance is an encoding of, and ``MilpInstance.block`` holds
its step block.  :func:`assignment_of` is the one assignment an encoding
admits for a given guess layer, read variable by variable;
:func:`step_values` gives the same values one step block at a time.  This
module owns the variable naming contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import DeductionSystem, DirectedRule
from .milp import (Constraint, EQUAL, GREATER_EQUAL, LESS_EQUAL, MAXIMIZE,
                   MINIMIZE, MilpInstance, OTHER, PATH, STATE, Variable)
from .oracle import mask_of, option_masks, sweeps

PLAIN = "plain"
COMPACT = "compact"
MAX_COVERAGE = MAXIMIZE
MIN_GUESSES = MINIMIZE


class ConfigError(ValueError):
    """Encode configuration violates its invariants."""


class NotExpandedError(ValueError):
    """Operation requires a system without symmetric rules."""


def state_var_name(prop: int, copy: int | str) -> str:
    return f"x{prop}_c{copy}"


def path_var_name(prop: int, path: int, copy: int | str) -> str:
    return f"l{prop}_p{path}_c{copy}"


def copy_name(variable: Variable, copy: int | str) -> str:
    """The name ``variable``, a state or a path variable, has at copy
    ``copy``: a copy number, or a placeholder for one."""
    if variable.kind == STATE:
        return state_var_name(variable.prop, copy)
    return path_var_name(variable.prop, variable.path, copy)


# a number as ``str`` writes it: ASCII digits, no leading zero
_NUMBER = "(0|[1-9][0-9]*)"
_STATE_RE = re.compile(f"x{_NUMBER}_c{_NUMBER}")
_PATH_RE = re.compile(f"l{_NUMBER}_p{_NUMBER}_c{_NUMBER}")


def variable_from_name(name: str) -> Variable:
    """Rebuild structured metadata from the documented naming contract:
    a state or a path variable is named exactly as :func:`state_var_name`
    or :func:`path_var_name` writes it, and any other name is ``OTHER``."""
    m = _STATE_RE.fullmatch(name)
    if m:
        return Variable(name, STATE, int(m.group(1)), int(m.group(2)))
    m = _PATH_RE.fullmatch(name)
    if m:
        return Variable(name, PATH, int(m.group(1)), int(m.group(3)),
                        int(m.group(2)))
    return Variable(name, OTHER)


def marked_states(assignment: Mapping[str, object]) -> list[tuple[int, int]]:
    """``(copy, prop)`` of every state variable that ``assignment`` marks
    1; a name that is not a state variable's is skipped."""
    match = _STATE_RE.fullmatch
    return [(int(m[2]), int(m[1])) for name, value in assignment.items()
            if value == 1 and (m := match(name))]


def enumerate_paths(system: DeductionSystem
                    ) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The path table: for each proposition, in proposition order, the
    premise tuples of its paths, the carry-over ``(p,)`` first, then the
    premises of each rule that concludes it, in declaration order."""
    if system.symmetric_rules:
        raise NotExpandedError("system still has symmetric rules; expand first")
    rows: list[list[tuple[int, ...]]] = [[(p,)] for p in range(system.n)]
    for rule in system.directed_rules:
        rows[rule.conclusion].append(rule.premises)
    return tuple(map(tuple, rows))


def render_path_table(system: DeductionSystem) -> str:
    """Text form used by the committed fixtures: ``name: set; set; ...``."""
    lines = []
    for p, row in zip(system.propositions, enumerate_paths(system)):
        sets = ["{" + ", ".join(map(system.name_of, premises)) + "}"
                for premises in row]
        lines.append(f"{p.name}: " + "; ".join(sets))
    return "\n".join(lines) + "\n"


def parse_path_table_text(text: str) -> dict[str, list[frozenset[str]]]:
    """Parse the fixture format back into name-level premise sets."""
    out: dict[str, list[frozenset[str]]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, body = line.partition(":")
        paths = []
        for chunk in body.split(";"):
            chunk = chunk.strip().strip("{}")
            paths.append(frozenset(x.strip() for x in chunk.replace(",", " ").split()))
        out[name.strip()] = paths
    return out


@dataclass(frozen=True)
class EncodeConfig:
    """Unrolling depth, axiom budget, constraint mode and objective sense."""

    nu: int
    budget_k: int = 0
    mode: str = COMPACT
    sense: str = MAX_COVERAGE

    def check(self, n: int) -> None:
        if self.nu < 1:
            raise ConfigError("nu must be >= 1")
        if self.mode not in (PLAIN, COMPACT):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.sense not in (MAX_COVERAGE, MIN_GUESSES):
            raise ConfigError(f"unknown sense {self.sense!r}")
        if self.budget_k < 0:
            raise ConfigError("budget must be >= 0")
        if self.sense == MAX_COVERAGE and self.budget_k > n:
            raise ConfigError(f"budget {self.budget_k} exceeds {n} propositions")


def default_nu(system: DeductionSystem) -> int:
    """Unrolling depth that always reaches the fixpoint: one per proposition."""
    return max(1, system.n)


_Row = tuple[tuple[tuple[int, int], ...], str, int]  # (terms, rel, rhs)


def _emit(system: DeductionSystem, cfg: EncodeConfig
          ) -> tuple[list[tuple], list[_Row], list[_Row]]:
    """The step block of the unrolled instance, as plain tuples, the
    fields of :class:`~dedmin.milp.Variable` and
    :class:`~dedmin.milp.Constraint`: the variables of the guess layer and
    of step 0, its path variables and then the states of copy 1; step 0's
    rows, with ids as at step 0; and the closing rows, the budget row or
    the coverage rows, with ids as in the whole instance.

    Every other step is step 0 again (:func:`_steps`).  Step 0's path
    variables come from one ``(prop, path)`` list.
    """
    table = enumerate_paths(system)
    cfg.check(system.n)
    n = system.n

    # one step's path variables, as (prop, path number); compact mode folds
    # each proposition's carry-over and its last multi-premise path, if it
    # has one, into the state link, and they get no variable
    paths: list[tuple[int, int]] = []
    folds: list[int | None] = []
    for v, row in enumerate(table):
        multi = [j for j in range(1, len(row)) if len(row[j]) >= 2]
        folded = multi[-1] if cfg.mode == COMPACT and multi else None
        folds.append(folded)
        paths.extend((v, j + 1) for j in range(len(row))
                     if folded is None or j not in (0, folded))
    stride = len(paths) + n
    # step 0's ids: states of copy 0 are 0 .. n-1, the path variables
    # follow in order, then the states of copy 1 from stride on
    path_id = {key: n + i for i, key in enumerate(paths)}

    rows: list[_Row] = []
    for v, row in enumerate(table):
        folded = folds[v]
        x_new = stride + v
        for j, premises in enumerate(row):
            lvar = path_id.get((v, j + 1))
            if lvar is None:
                continue  # folded into the state link below
            kappa = len(premises)
            if kappa == 1:
                rows.append((((lvar, 1), (premises[0], -1)), EQUAL, 0))
            else:
                rows.append((((lvar, 1),) + tuple((p, -1) for p in premises),
                             GREATER_EQUAL, 1 - kappa))
                rows.append((((lvar, -kappa),) + tuple((p, 1) for p in premises),
                             GREATER_EQUAL, 0))
        tau = len(row)
        if folded is None:
            lvars = [path_id[v, j + 1] for j in range(tau)]
            if tau == 1:
                rows.append((((x_new, 1), (lvars[0], -1)), EQUAL, 0))
            else:
                rows.append((((x_new, -2),) + tuple((l, 1) for l in lvars),
                             GREATER_EQUAL, -1))
                rows.append((((x_new, tau),) + tuple((l, -1) for l in lvars),
                             GREATER_EQUAL, 0))
        else:
            group = [v] + [path_id[v, j + 1] for j in range(1, tau)
                           if j != folded]
            premises = row[folded]
            kappa = len(premises)
            rows.append((((x_new, (tau - 1) * kappa + 1),)
                         + tuple((g, -kappa) for g in group)
                         + tuple((p, -1) for p in premises),
                         GREATER_EQUAL, 1 - kappa))
            rows.append((((x_new, -kappa),)
                         + tuple((g, kappa) for g in group)
                         + tuple((p, 1) for p in premises),
                         GREATER_EQUAL, 0))

    variables = [(state_var_name(v, 0), STATE, v, 0, None) for v in range(n)]
    variables += [(path_var_name(prop, path, 0), PATH, prop, 0, path)
                  for prop, path in paths]
    variables += [(state_var_name(v, 1), STATE, v, 1, None) for v in range(n)]
    last = cfg.nu * stride  # the id of x0_c{nu}
    if cfg.sense == MAX_COVERAGE:
        closing = [(tuple([(v, 1) for v in range(n)]), LESS_EQUAL,
                    cfg.budget_k)]
    else:
        closing = [(((last + v, 1),), EQUAL, 1) for v in range(n)]
    return variables, rows, closing


def _objective(n: int, nvars: int, sense: str) -> tuple[tuple[int, int], ...]:
    """The objective of an encoding of ``n`` propositions in ``nvars``
    variables: the last copy's states, the last ``n`` variables, when
    maximizing, and the guess layer, the first ``n``, when minimizing."""
    first = nvars - n if sense == MAX_COVERAGE else 0
    return tuple((first + v, 1) for v in range(n))


def _full_cover_row(n: int, nvars: int) -> Constraint:
    """``sum x{p}_c{nu} >= n``, the last step's ``n`` states being the last
    of ``nvars`` variables."""
    return Constraint(_objective(n, nvars, MAX_COVERAGE), GREATER_EQUAL, n)


# (system, cfg, full_cover): what an encoding's instance is built from
Encoding = tuple[DeductionSystem, EncodeConfig, bool]


class StepBlock(NamedTuple):
    """What an encoding's instance holds: its guess layer, step 0 and the
    closing rows, and its layout.  Step ``s`` is step 0 with every copy
    number raised by ``s`` and every variable id by ``s * stride``
    (:func:`_steps`); the instance's rows are ``nu`` blocks of
    ``len(rows)`` followed by the closing rows."""

    variables: tuple[Variable, ...]  # the guess layer and step 0's
    rows: tuple[Constraint, ...]  # step 0's rows
    closing: tuple[Constraint, ...]  # the rows after the last step
    n: int  # propositions: the guess layer is variables 0 .. n-1
    nu: int  # unrolling steps

    @property
    def stride(self) -> int:
        """Variables per step: its path variables, then ``n`` states."""
        return len(self.variables) - self.n

    @property
    def size(self) -> int:
        """The instance's variables: the guess layer and ``nu`` steps."""
        return self.n + self.nu * self.stride

    @property
    def row_count(self) -> int:
        """The instance's rows: ``nu`` steps and the closing rows."""
        return self.nu * len(self.rows) + len(self.closing)


def _block(encoding: Encoding) -> StepBlock:
    """The step block of ``encoding``'s instance: :func:`_emit`'s, closed
    by the full-cover row when ``full_cover`` is set."""
    system, cfg, full_cover = encoding
    variables, rows, closing = _emit(system, cfg)
    block = StepBlock(tuple(map(Variable._make, variables)),
                      tuple(map(Constraint._make, rows)),
                      tuple(map(Constraint._make, closing)), system.n, cfg.nu)
    if full_cover:
        return block._replace(closing=(
            *block.closing, _full_cover_row(block.n, block.size)))
    return block


def _steps(block: StepBlock, names: Sequence[str]
           ) -> Iterator[tuple[list[tuple], list[_Row]]]:
    """The variables and rows of each unrolling step, in order, as plain
    tuples: step 0's from ``block`` with every copy number raised by the
    step and every id by ``step * stride``, and each variable named as in
    ``names``, the names :func:`step_names` gives every variable."""
    n, stride = block.n, block.stride
    first = block.variables[n:]
    # one int object per variable id, shared by every row that names it
    ids = list(range(block.size))
    for step in range(block.nu):
        at = step * stride
        # the rows name step 0's ids; shifted[var] is var + at
        shifted = ids[at:at + stride + n]
        yield ([(name, kind, prop, copy + step, path) for name, (
                    _, kind, prop, copy, path) in zip(
                        names[at + n:at + n + stride], first)],
               [(tuple([(shifted[var], a) for var, a in terms]), rel, rhs)
                for terms, rel, rhs in block.rows])


# the placeholders of copy numbers 0 and 1: characters no name has, which
# str.replace finds fastest
_OPEN = "\0\1"


def opened_names(variables: Sequence[Variable]) -> list[str]:
    """The names of ``variables``, of the guess layer and the first
    unrolling step, with their copy numbers, 0 or 1, left open as
    placeholders that :func:`filled` fills in for any step."""
    return [copy_name(v, _OPEN[v.copy]) for v in variables]


def filled(text: str, step: int) -> str:
    """``text`` with the copy numbers :func:`opened_names` leaves open
    filled in for unrolling step ``step``."""
    return text.replace("\0", str(step)).replace("\1", str(step + 1))


def step_names(block: StepBlock) -> tuple[str, ...]:
    """The names, in id order, of the variables of the encoding whose step
    block is ``block``: the guess layer's, then each step's, step 0's with
    the copy numbers filled in by string operations that run in C."""
    variables, n = block.variables, block.n
    opened = "\n".join(opened_names(variables[n:]))
    steps = "\n".join([filled(opened, step) for step in range(block.nu)])
    return (*[v.name for v in variables[:n]], *steps.split("\n"))


def encode(system: DeductionSystem, cfg: EncodeConfig) -> MilpInstance:
    """Build the unrolled instance; deterministic down to variable order.

    It is :func:`rebuild` of ``(system, cfg, False)``, so the instance's
    ``encoding`` is that triple, ``system`` and ``cfg`` as given, unless
    ``system`` has no propositions.
    """
    return rebuild((system, cfg, False))


def rebuild(encoding: Encoding) -> MilpInstance:
    """The instance of ``encoding``, a ``(system, cfg, full_cover)``
    triple: the rows :func:`_emit` emits for ``system`` and ``cfg``, at
    every step, followed by the full-cover row when ``full_cover`` is set.

    The instance records ``encoding`` and holds only its step block
    (:func:`_block`); it builds its full variables and rows from them, by
    :func:`unroll`, when something reads them.  A system without
    propositions has no encoding: its instance, whose rows no encoding
    has, is built whole and records None.
    """
    sense = encoding[1].sense
    block = _block(encoding)
    if not block.n:  # no variables, and every step has no rows
        return MilpInstance((), block.closing, (), sense)
    return MilpInstance((), (), _objective(block.n, block.size, sense), sense,
                        encoding, block)


def unroll(instance: MilpInstance
           ) -> tuple[tuple[Variable, ...], tuple[Constraint, ...]]:
    """The full variables and rows of ``instance``, which holds its
    encoding's step block: the guess layer, every step as :func:`_steps`
    unrolls it, and the closing rows."""
    block = instance.block
    # step 0 is the block's own variables and rows
    variables, constraints = list(block.variables), list(block.rows)
    for batch, rows in islice(_steps(block, instance.names), 1, None):
        variables += map(Variable._make, batch)
        constraints += map(Constraint._make, rows)
    return tuple(variables), (*constraints, *block.closing)


def read_first_step(variables: Sequence[Variable], sense: str,
                    rows: Iterable[Constraint], count: int,
                    tail: Sequence[Constraint]) -> Encoding | None:
    """The one ``(system, cfg, full_cover)`` an instance can be an encoding
    of, read from its first unrolling step, or None when it can be none.

    ``variables`` are the instance's variables, of which only the guess
    layer, the first step's and the last one are read; ``rows`` are its
    ``count`` rows in order, read up to the end of the first step; and
    ``tail`` holds its last two rows (its only row, when it has one).
    ``n``, ``nu``, the sense and the budget come from the variables and the
    last rows, and each proposition's paths from the rows of the first
    unrolling step.  Whether the instance is that encoding is
    :func:`decode`'s check; :func:`~dedmin.lpio.read_lp` makes the same
    check on the text it reads.

    ``full_cover`` is True when the last row is ``sum x{p}_c{nu} >= n``
    over every proposition and the instance maximizes: it then asks
    whether ``budget_k`` guesses cover every proposition, and the
    encoding's own rows are the ones before it.
    """
    n = 0  # the guess layer x0_c0, x1_c0, ... leads the variables
    while n < len(variables) and \
            variables[n] == Variable(state_var_name(n, 0), STATE, n, 0):
        n += 1
    if n == 0 or not count or not variables[-1].copy:
        return None
    maximize = sense == MAXIMIZE
    full_cover = (maximize
                  and tail[-1] == _full_cover_row(n, len(variables)))
    rows_own = count - full_cover  # the encoding's own rows
    if rows_own == 0:
        return None
    last = tail[-1 - full_cover]
    # the last encoding row is the budget (max) or the last proposition's
    # coverage (min); checking its shape first spares an emission for most
    # instances that are not encodings, such as one with an extra row
    if maximize:
        shaped = (last.rel == LESS_EQUAL
                  and last.terms == tuple((v, 1) for v in range(n)))
    else:
        shaped = (last.rel == EQUAL and last.rhs == 1
                  and last.terms == ((len(variables) - 1, 1),)
                  and variables[-1].kind == STATE)
    if not shaped:
        return None
    paths: dict[tuple, tuple[int, ...]] = {}  # (prop, path number) -> premises
    compact = False
    for c in islice(rows, rows_own):
        if not c.terms:
            return None
        lead, coef = variables[c.terms[0][0]], c.terms[0][1]
        if lead.kind == PATH and lead.copy == 0:
            if coef == 1:  # the path variable, then its premises
                paths[lead.prop, lead.path] = tuple(v for v, _ in c.terms[1:])
        elif lead.kind == STATE and lead.copy == 1:
            if coef > 0 and c.rhs < 0:
                # compact link: the folded path's premises weigh -1, and
                # it has the first path number no path row used
                slot = 2
                while (lead.prop, slot) in paths:
                    slot += 1
                paths[lead.prop, slot] = tuple(v for v, a in c.terms[1:]
                                               if a == -1)
                compact = True
        else:
            break
    rules = []
    for v in range(n):
        j = 2  # path 1 is the carry-over
        while (v, j) in paths:
            rules.append(DirectedRule(paths[v, j], v))
            j += 1
    cfg = EncodeConfig(variables[-1].copy, last.rhs if maximize else 0,
                       COMPACT if compact else PLAIN, sense)
    try:
        system = DeductionSystem.from_names(
            [f"p{i}" for i in range(n)], directed_rules=rules)
        cfg.check(n)
    except ValueError:
        return None
    # the guess layer and nu step blocks: each proposition has its paths'
    # variables, two fewer when compact mode folds two of them, and its
    # next state; this also keeps the encoding the size of the instance
    folded = {r.conclusion for r in rules if len(r.premises) >= 2}
    stride = 2 * n + len(rules) - (2 * len(folded) if compact else 0)
    if len(variables) != n + cfg.nu * stride:
        return None
    return system, cfg, full_cover


def decode(instance: MilpInstance) -> Encoding | None:
    """The ``(system, cfg, full_cover)`` triple whose :func:`rebuild` has
    the variables, rows and objective of ``instance``, or None: the
    ``encoding`` of an instance built without one.

    :func:`read_first_step` names the one triple the instance can be, with
    the names ``p0``, ``p1``, ..., the rules in path-table order and the
    configuration the rows tell (no budget when minimizing, compact only
    when a path was folded).  The instance is compared with that triple's
    step block (:func:`_block`), unrolled one step at a time
    (:func:`_steps`), and its closing rows; a full-cover row after a
    max-sense encoding closes it when ``full_cover`` is set.
    """
    decoded = _decode(instance)
    return None if decoded is None else decoded[0]


def _decode(instance: MilpInstance) -> tuple[Encoding, StepBlock] | None:
    """:func:`decode`'s triple with the instance's step block, or None."""
    variables, constraints = instance.variables, instance.constraints
    encoding = read_first_step(variables, instance.sense, constraints,
                               len(constraints), constraints[-2:])
    if encoding is None:
        return None
    block = _block(encoding)
    # read_first_step has matched the guess layer, variables[:n]
    nvars, nrows = block.n, 0
    for batch, rows in _steps(block, step_names(block)):
        # a named tuple equals the plain tuple of its fields
        if (variables[nvars:nvars + len(batch)] != tuple(batch)
                or constraints[nrows:nrows + len(rows)] != tuple(rows)):
            return None
        nvars += len(batch)
        nrows += len(rows)
    if (nvars != len(variables) or constraints[nrows:] != block.closing
            or instance.objective != _objective(block.n, nvars,
                                                instance.sense)):
        return None
    # the instance's own objects, equal to the block's
    return encoding, block._replace(variables=variables[:len(block.variables)],
                                    rows=constraints[:len(block.rows)],
                                    closing=constraints[nrows:])


def assignment_of(instance: MilpInstance, system: DeductionSystem,
                  guesses: Iterable[int]) -> dict[str, int]:
    """The one assignment of ``instance`` with guess layer ``guesses``.

    ``instance`` is an encoding of ``system``, as its ``encoding`` says,
    so each variable's ``kind``, ``prop``, ``copy`` and ``path`` are what
    :func:`_emit` gives them.  State copy ``c`` of a
    proposition is its bit after ``c`` closure sweeps from the guesses,
    and a path variable of step ``c`` is 1 exactly when all its path's
    premises are known at copy ``c``.  The names come in the instance's
    variable order.  Each variable is read on its own; the solver builds
    the same values with :func:`step_values`, and the tests hold the two
    to each other.
    """
    table = enumerate_paths(system)
    variables = instance.variables
    rounds = sweeps(option_masks(system), mask_of(guesses), variables[-1].copy)
    values = {}
    for v in variables:
        known = rounds[min(v.copy, len(rounds) - 1)]
        if v.kind == STATE:
            values[v.name] = known >> v.prop & 1
        else:
            premises = table[v.prop][v.path - 1]
            values[v.name] = int(all(known >> p & 1 for p in premises))
    return values


def step_values(instance: MilpInstance, guesses: int) -> list[int]:
    """The values, by variable id, of the assignment :func:`assignment_of`
    gives ``instance`` for the guess layer ``guesses``, a bitmask.

    Only the instance's step block and its system's option masks are read,
    and the values are built one step block at a time: step ``s``'s path
    variables from the premise masks of step 0's and the set ``s`` closure
    sweeps know, its states from the set one sweep later.  From the sweeps'
    fixpoint on, every block is the last one again.
    """
    system = instance.encoding[0]
    block = instance.block
    n, nu = block.n, block.nu
    table = enumerate_paths(system)
    masks = [mask_of(table[v.prop][v.path - 1])
             for v in block.variables[n:block.stride]]
    rounds = sweeps(option_masks(system), guesses, nu)
    last = len(rounds) - 1
    values = [guesses >> v & 1 for v in range(n)]
    for step in range(nu):
        if step <= last:
            known, after = rounds[step], rounds[min(step + 1, last)]
            # a path fires when every premise is known: known & m is m
            at_step = [(known & m) // m for m in masks]
            at_step += [after >> v & 1 for v in range(n)]
        values += at_step
    return values


@dataclass(frozen=True)
class ReductionReport:
    """Size difference between the plain and compact encodings."""

    plain_variables: int
    compact_variables: int
    plain_constraints: int
    compact_constraints: int

    @property
    def variables_removed(self) -> int:
        return self.plain_variables - self.compact_variables

    @property
    def constraints_removed(self) -> int:
        return self.plain_constraints - self.compact_constraints


def count_reduction(system: DeductionSystem, cfg: EncodeConfig) -> ReductionReport:
    """How much the folding saves, read from both modes' step blocks."""
    plain, compact = (_block((system, replace(cfg, mode=mode), False))
                      for mode in (PLAIN, COMPACT))
    return ReductionReport(plain.size, compact.size, plain.row_count,
                           compact.row_count)
