"""Every import is read: a module's imports name the API it exercises."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
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


# name -> why it stays though nothing else in src reads it
READ_OUTSIDE_SRC = {
    "lattice.shell_vectors": "wrapped by the perfbench tracer",
    "lattice.fixed_vectors": "wrapped by the perfbench tracer",
    "lattice.Shell.count": "read by the perfbench tracer's vector counter",
    "families.hw_groups": "wrapped by the perfbench tracer",
}


def src_reads(node) -> tuple[Counter, Counter]:
    """(names loaded or imported, attributes read) below node."""
    names, attributes = Counter(), Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names[child.id] += 1
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            attributes[child.attr] += 1
    return names, attributes


def test_every_src_name_is_read_in_src():
    # a module-level function or class is read where src, outside its own
    # body, loads or imports its name or reads an attribute of that name; a
    # method, where src reads such an attribute; dunder methods are exempt
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attributes = src_reads(tree)
        names += tree_names
        attributes += tree_attributes
    unread = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own_names, own_attributes = src_reads(node)
            if names[node.name] + attributes[node.name] == own_names[node.name] + own_attributes[node.name]:
                unread.add(f"{module}.{node.name}")
            methods = node.body if isinstance(node, ast.ClassDef) else ()
            for method in methods:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    if attributes[method.name] == src_reads(method)[1][method.name]:
                        unread.add(f"{module}.{node.name}.{method.name}")
    assert sorted(unread - READ_OUTSIDE_SRC.keys()) == []
    assert sorted(READ_OUTSIDE_SRC.keys() - unread) == []
