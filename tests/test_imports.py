"""Every import is read: a module's imports name the API it exercises."""

import ast
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


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("no __all__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path == SRC / "__init__.py":
        # the package imports exactly what it exports
        assert imported_names(tree) == exported_names(tree)
    else:
        assert sorted(imported_names(tree) - read_names(tree)) == []
