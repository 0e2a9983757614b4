"""Checks on the source text itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# Modules whose import every command would pay for at start-up: each
# @dataclass compiles its methods with exec when its module is imported, and
# dataclasses itself loads inspect, dis and ast; logging loads traceback,
# tokenize and string for six -v lines.  Records are named tuples instead,
# and -v lines are printed.
START_UP_IMPORTS = ("dataclasses", "logging")


@pytest.mark.parametrize("module", START_UP_IMPORTS)
def test_no_start_up_import_in_the_package(module):
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == module)
        or (
            isinstance(node, ast.Import)
            and any(alias.name == module for alias in node.names)
        )
    ]
    assert SOURCES and not found, found


@pytest.mark.parametrize("module", START_UP_IMPORTS)
def test_importing_the_package_leaves_module_unloaded(module):
    # A fresh interpreter, as each command runs in one.
    modules = [f"twistchar.{path.stem}" for path in SOURCES if path.stem != "__init__"]
    code = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        f"print({module!r} in sys.modules)\n"
    )
    src = str(Path(twistchar.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


def _public_names(tree):
    # As the CI step counts them: module-level functions, classes and
    # assigned names without a leading underscore.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _uses(tree):
    # Identifiers a module reads: loaded names, attributes, imported names
    # and the words of string constants other than docstrings (the bench
    # tracer names what it patches in strings).  A module-level statement's
    # reads of the names it defines itself are left out.
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    used = set()
    for statement in tree.body:
        found = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.update(node.name.split("."))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                found.update(re.findall(r"[A-Za-z_]\w*", node.value))
        used |= found - set(_public_names(ast.Module([statement], [])))
    return used


def test_every_public_name_is_used_beyond_its_definition():
    # A public name that no code of the package, its tests or the benchmark
    # reads is dead API: delete it, or make it private where it is used.
    root = Path(twistchar.__file__).parents[2]
    files = [path for folder in ("src", "tests", "bench")
             for path in sorted((root / folder).rglob("*.py"))]
    used = set().union(*(_uses(ast.parse(path.read_text())) for path in files))
    names = [(path.name, name) for path in SOURCES
             for name in _public_names(ast.parse(path.read_text()))]
    unused = [f"{module}: {name}" for module, name in names if name not in used]
    assert names and not unused, unused
