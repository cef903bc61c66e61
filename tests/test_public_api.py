"""The package's public surface, ``dedmin.__all__``."""

import ast
from pathlib import Path

import dedmin


def test_every_listed_name_resolves():
    assert len(set(dedmin.__all__)) == len(dedmin.__all__)
    missing = [name for name in dedmin.__all__ if not hasattr(dedmin, name)]
    assert not missing, missing


def test_every_public_import_is_listed():
    tree = ast.parse(Path(dedmin.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    unlisted = sorted(name for name in imported
                      if not name.startswith("_")
                      and name not in dedmin.__all__)
    assert not unlisted, unlisted
