"""Every name a module imports is used in that module, and every public
definition has a caller.

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


# Public names with no caller in the package or the benchmark that stay on
# purpose: acceptance criteria 01, 09 and 11 call the first three entry
# points directly, and ``alternating_claim`` is the README's validating
# one-partition form of the claim, whose scan reads bare pair tuples.
UNCALLED_ENTRY_POINTS = {"coset_data", "dilation_check", "deformation_block_check", "alternating_claim"}
BENCH = Path(qfock.__file__).parents[2] / "bench"


def public_definitions(tree: ast.Module) -> dict:
    """Public top-level functions and classes, and the public methods of
    top-level classes as ``Class.method``, each mapped to its bare name."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item.name
    return found


def references(tree: ast.Module, strings: bool) -> set:
    """Names a module reads, outside the body of the definition they name.

    With ``strings``, identifier-like string constants count too: the
    benchmark's tracer looks names up by string.
    """
    names = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                names.add(name)
    return names


def test_every_public_definition_has_a_caller():
    """No test-only API in the package: each public top-level function and
    class, and each public method of a top-level class, is read by the
    package, by the benchmark, or exported."""
    sources = [(p, False) for p in Path(qfock.__file__).parent.glob("*.py")]
    sources += [(p, True) for p in sorted(BENCH.glob("*.py")) if not p.name.startswith("test_")]
    referenced = set(qfock.__all__) | UNCALLED_ENTRY_POINTS
    for path, strings in sources:
        referenced |= references(ast.parse(path.read_text(), filename=str(path)), strings)
    uncalled = {
        f"{path.stem}.{qualname}"
        for path in MODULES
        for qualname, name in public_definitions(
            ast.parse(path.read_text(), filename=str(path))
        ).items()
        if name not in referenced
    }
    assert sorted(uncalled) == []
