"""Static checks on the package source."""

import ast
from pathlib import Path

import wheelembed

PACKAGE = Path(wheelembed.__file__).resolve().parent


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements, so runtime checks must raise
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {', '.join(found)}"
