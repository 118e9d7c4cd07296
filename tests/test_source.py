"""Checks on the package source itself."""

import ast
from pathlib import Path

import k3ade

SOURCE = Path(k3ade.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so a correctness check kept in
    # one would silently stop running.
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
