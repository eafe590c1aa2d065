"""The package's exported names: each one has a caller outside the tests."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lightkg"


def referenced_names(paths) -> set[str]:
    """Every identifier read or written as a ``Name`` or an ``Attribute`` in
    the files ``paths``. A ``def`` or ``class`` statement, an import, a
    docstring or a comment names nothing here."""
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    """Each name ``lightkg/__init__`` imports is used by a module of the
    package, a script or the benchmark harness."""
    init = ast.parse((PACKAGE / "__init__.py").read_bytes())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    callers = [
        *(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(ROOT / "kgbench").glob("*.py"),
    ]
    assert exported
    assert sorted(exported - referenced_names(callers)) == []
