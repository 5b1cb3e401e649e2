"""Every name a module imports is used in that module.

No linter ships with the project, so deletions could leave stray imports
behind unnoticed; this parses each source module with ``ast`` instead.
``__init__`` is exempt: its imports are the re-exported public surface.
"""

import ast
from pathlib import Path

import pytest

import qfock

MODULES = sorted(p for p in Path(qfock.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"cli", "fock", "identities", "wick", "analysis"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(imported_names(tree) - used_names(tree)) == []
