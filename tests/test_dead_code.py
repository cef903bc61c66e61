"""Every function, method, class and module-level name in ``src/dedmin`` is
named somewhere.

A definition counts as used when its name occurs, other than in its own
``def`` or ``class`` line or as the target of an assignment, as a name, an
attribute, an imported name or a string constant anywhere under ``src/``,
``tests/`` or ``perfbench/``.  The module-level names are those a
statement at the top of a module assigns: constants and aliases.
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
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _definitions(tree):
    """``(line, name)`` of every def and class, and of every name a
    module-level assignment binds."""
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS):
            yield node.lineno, node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


def test_every_definition_is_used():
    used = set()
    for _, tree in _trees("src", "tests", "perfbench"):
        used |= _mentions(tree)
    unused = []
    for path, tree in _trees("src/dedmin"):
        for lineno, name in _definitions(tree):
            if name not in used and not (name.startswith("__")
                                         and name.endswith("__")):
                unused.append(f"{path.relative_to(ROOT)}:{lineno} {name}")
    assert not unused, unused
