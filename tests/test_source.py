"""Checks on the source text itself."""

import ast
import os
import subprocess
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


def test_no_dataclasses_import_in_the_package():
    # Each @dataclass compiles its methods with exec when the module is
    # imported, and dataclasses itself loads inspect, dis and ast: every
    # command pays that at start-up.  Records are named tuples instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (
            isinstance(node, ast.Import)
            and any(alias.name == "dataclasses" for alias in node.names)
        )
    ]
    assert SOURCES and not found, found


def test_importing_the_package_leaves_dataclasses_unloaded():
    # A fresh interpreter, as each command runs in one.
    modules = [f"twistchar.{path.stem}" for path in SOURCES if path.stem != "__init__"]
    code = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    src = str(Path(twistchar.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr
