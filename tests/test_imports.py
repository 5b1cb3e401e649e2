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
# purpose, each with its reason.  Exporting a name is not a caller.
UNCALLED_ENTRY_POINTS = {
    "coset_data": "acceptance criterion 01 reads the coset inversions of A and B",
    "partition_triple": "acceptance criterion 01 decomposes the figures into (A, B, sigma)",
    "dilation_check": "acceptance criterion 09 compares the compressed dilation with the semigroup",
    "deformation_block_check": "acceptance criterion 11 checks the tail identity block by block",
    "alternating_claim": "the README's validating one-partition form of the claim, whose scan reads bare pair tuples",
}
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


def test_an_export_is_not_a_reference():
    # the re-export pattern of __init__: import aliases and __all__ strings
    tree = ast.parse("from .m import f, g as h\n__all__ = ['f', 'h']\n")
    assert references(tree, strings=False) == {"__all__"}
    assert references(tree, strings=True) == {"__all__", "f", "h"}


def test_every_public_definition_has_a_caller():
    """No test-only API in the package: each public top-level function and
    class, and each public method of a top-level class, is read by the
    package or by the benchmark, or allow-listed above.  The re-exports in
    ``__init__`` are import aliases, which ``references`` does not read, so
    an exported name needs a caller like any other."""
    sources = [(p, False) for p in Path(qfock.__file__).parent.glob("*.py")]
    sources += [(p, True) for p in sorted(BENCH.glob("*.py")) if not p.name.startswith("test_")]
    referenced = set(UNCALLED_ENTRY_POINTS)
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
