"""Checks on the source text itself."""

import ast
from pathlib import Path

import twistchar

SOURCES = sorted(Path(twistchar.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so invariants must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
