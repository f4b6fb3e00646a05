"""Every import is read: a module's imports name the API it exercises."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src" / "flatspec"
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports, in any scope, __future__ aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def read_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    # a re-export is an import that nothing reads, so the package's
    # __init__.py stays a bare docstring and callers import the modules
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - read_names(tree)) == []


def test_the_cli_loads_only_what_every_run_uses():
    # which modules a bare start-up loads, not how long it takes: the output
    # modules load in the subcommands that print them, while the benchmark's
    # tracer wraps the four eager ones
    code = "import flatspec.cli, json, sys; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(result.stdout))
    absent = ("dataclasses", "inspect", "fractions", "decimal", "csv", "flatspec.graphs")
    assert [name for name in absent if name in loaded] == []
    eager = ("lattice", "spectra", "bieberbach", "families")
    assert [name for name in eager if f"flatspec.{name}" not in loaded] == []
