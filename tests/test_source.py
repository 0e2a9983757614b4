"""Checks on the source text itself."""

import ast
import sys
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


def test_no_floats_in_the_package():
    # Every value is exact: no float literal and no float() conversion.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
    ]
    assert SOURCES and not found, found


def test_runtime_imports_are_stdlib_only():
    # The package has no runtime dependency: every import is relative or
    # names a standard-library module.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert SOURCES and not found, found
