"""Only an explicit allow-list of memos may grow without bound.

An ``lru_cache(maxsize=None)`` or ``functools.cache`` memo holds every
argument and result for the life of the process, so each one is pinned
here by name; a new memo must pass a ``maxsize`` or be added on purpose.
"""

import ast
from pathlib import Path

import qfock

MODULES = sorted(Path(qfock.__file__).parent.glob("*.py"))

UNBOUNDED = {
    "word_basis",
    "word_index",
    "word_inner_poly",
}


def is_unbounded_memo(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False  # a bare @lru_cache keeps the bounded default
    sizes = decorator.args[:1] + [kw.value for kw in decorator.keywords if kw.arg == "maxsize"]
    return any(isinstance(size, ast.Constant) and size.value is None for size in sizes)


def unbounded_memos(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(is_unbounded_memo(dec) for dec in node.decorator_list)
    }


def test_the_detector_sees_every_spelling():
    source = """
@lru_cache(maxsize=None)
def a(): pass
@functools.lru_cache(None)
def b(): pass
@functools.cache
def c(): pass
@cache
def d(): pass
@lru_cache(maxsize=64)
def e(): pass
@lru_cache
def f(): pass
"""
    tree = ast.parse(source)
    flagged = {
        node.name for node in tree.body if any(map(is_unbounded_memo, node.decorator_list))
    }
    assert flagged == {"a", "b", "c", "d"}


def test_unbounded_memos_are_the_allow_list():
    found = set().union(*(unbounded_memos(path) for path in MODULES))
    assert found == UNBOUNDED
