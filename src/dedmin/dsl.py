"""Line-oriented text format for deduction systems (``.rules`` files).

The format is designed so that model files read almost like the equations
they came from::

    system: toy
    props: p1 p2 p3 p4
    p2 => p1
    p3 p4 => p1
    [s16, s11, s2, s0]        # symmetric rule
    # comment lines and trailing comments start with '#'

``props:`` declares proposition names in index order (several ``props:``
lines accumulate).  Names may contain letters, digits and underscores.
Commas between names are optional.  Rendering is canonical: one ``props:``
line, symmetric rules before directed rules, each block sorted, and the
output is byte-stable so rendered files can serve as golden fixtures.
"""

from __future__ import annotations

import re

from .core import DeductionSystem, DirectedRule, SymmetricRule, ValidationError

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


class ParseError(ValueError):
    """Malformed ``.rules`` text; carries 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _split_names(text: str, lineno: int, offset: int) -> list[str]:
    names = []
    for raw in text.replace(",", " ").split():
        if not _NAME_RE.match(raw):
            col = offset + text.find(raw) + 1
            raise ParseError(lineno, col, f"bad name {raw!r}")
        names.append(raw)
    return names


def parse_system(text: str) -> DeductionSystem:
    """Parse ``.rules`` text into a :class:`DeductionSystem`.

    Raises :class:`ParseError` for malformed lines, unknown names included,
    and :class:`ValidationError` when the system breaks a core invariant.
    """
    system_name = ""
    names: list[str] = []
    index: dict[str, int] = {}
    symmetric: list[SymmetricRule] = []
    directed: list[DirectedRule] = []

    def resolve(name: str, lineno: int, line: str) -> int:
        if name not in index:
            col = line.find(name) + 1
            raise ParseError(lineno, col, f"undeclared proposition {name!r}")
        return index[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()

        if stripped.startswith("system:"):
            system_name = stripped[len("system:"):].strip()
            continue

        if stripped.startswith("props:"):
            body = stripped[len("props:"):]
            for name in _split_names(body, lineno, len(line) - len(body)):
                if name in index:
                    raise ParseError(lineno, line.find(name) + 1,
                                     f"proposition {name!r} declared twice")
                index[name] = len(names)
                names.append(name)
            continue

        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError(lineno, len(line), "unterminated '['")
            body = stripped[1:-1]
            members = [resolve(m, lineno, line)
                       for m in _split_names(body, lineno, 1)]
            if len(members) < 2:
                raise ParseError(lineno, 1, "symmetric rule needs >= 2 members")
            symmetric.append(SymmetricRule.of(members))
            continue

        if "=>" in stripped:
            left, _, right = stripped.partition("=>")
            premises = [resolve(m, lineno, line)
                        for m in _split_names(left, lineno, 0)]
            conclusions = _split_names(right, lineno, line.find("=>") + 2)
            if len(conclusions) != 1:
                raise ParseError(lineno, line.find("=>") + 3,
                                 "exactly one conclusion expected")
            conclusion = resolve(conclusions[0], lineno, line)
            directed.append(DirectedRule.of(premises, conclusion))
            continue

        raise ParseError(lineno, 1, f"unrecognized line {stripped!r}")

    return DeductionSystem.from_names(names, symmetric, directed,
                                      name=system_name)


def render_system(system: DeductionSystem) -> str:
    """Render canonical ``.rules`` text; ``parse_system`` inverts it exactly.

    Proposition order is preserved (it fixes indices); rules are emitted
    sorted so the bytes do not depend on construction order.
    """
    lines = []
    if system.name:
        lines.append(f"system: {system.name}")
    names = " ".join(system.names())
    lines.append(f"props: {names}" if names else "props:")
    for rule in sorted(system.symmetric_rules, key=SymmetricRule.sort_key):
        lines.append("[" + ", ".join(system.name_of(m) for m in rule.members) + "]")
    for rule in sorted(system.directed_rules, key=DirectedRule.sort_key):
        left = " ".join(system.name_of(p) for p in rule.premises)
        lines.append(f"{left} => {system.name_of(rule.conclusion)}")
    return "\n".join(lines) + "\n"
