"""Every function, method and class in ``src/dedmin`` is named somewhere.

A definition counts as used when its name occurs, other than in its own
``def`` or ``class`` line, as a name, an attribute, an imported name or a
string constant anywhere under ``src/``, ``tests/`` or ``perfbench/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _mentions(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_definition_is_used():
    used = set()
    for _, tree in _trees("src", "tests", "perfbench"):
        used |= _mentions(tree)
    unused = []
    for path, tree in _trees("src/dedmin"):
        for node in ast.walk(tree):
            if (isinstance(node, DEFINITIONS) and node.name not in used
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                              f"{node.name}")
    assert not unused, unused
