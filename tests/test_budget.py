"""The refusal layer: exit 2 means a ``Refused``, and every other exception
is a fault that propagates; one table of bounds, read by the guards and
documented in the README."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import qfock
from qfock import analysis, budget, fock, render, wick
from qfock.cli import main

SRC = Path(qfock.__file__).parent
README = SRC.parents[1] / "README.md"


def test_refused_is_a_value_error():
    assert qfock.Refused is budget.Refused
    assert issubclass(qfock.Refused, ValueError)
    with pytest.raises(ValueError, match="too many"):
        budget.check("MAX_DEFORM_STEPS", budget.bound("MAX_DEFORM_STEPS") + 1, "a test would scan")


def _fault(exc):
    def raise_(*args, **kwargs):
        raise exc

    return raise_


@pytest.mark.parametrize("exc", [ValueError("a fault"), np.linalg.LinAlgError("a fault")])
@pytest.mark.parametrize(
    "module, name, argv",
    [
        (wick, "wick_word_action", ["wick", "--d", "1", "--letters", "1"]),
        (fock, "_content_blocks", ["gram", "--d", "2", "--degree", "2", "--max-degree", "2"]),
        (np.linalg, "eigh", ["schatten", "--d", "2", "--p", "2", "--max-degree", "2"]),
    ],
)
def test_a_fault_inside_a_kernel_propagates(capsys, monkeypatch, exc, module, name, argv):
    analysis.gram_factors.cache_clear()  # so the factorization runs, not its memo
    monkeypatch.setattr(module, name, _fault(exc))
    with pytest.raises(type(exc), match="a fault"):
        main(argv)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, env",
    [
        (["verify-iota", "--q", "abc"], {}),
        (["phi-check", "--d", "2", "--h", "a,b"], {}),
        (["wick", "--d", "1", "--letters", "1"], {"QFOCK_MAX_DIM": "abc"}),
        (["decay", "--letters", "1", "--max-degree", "0"], {}),
        (["render", "--n", "3", "--k", "5"], {}),
        (["verify-ie", "--d", "0"], {}),
        (["deform", "--kcut", "-2000"], {}),
        (["deform", "--kcut", "0"], {}),
    ],
)
def test_refusals_exit_2_with_empty_stdout(capsys, monkeypatch, argv, env):
    # each once reached exit 2 through Python's own errors, or not at all
    # (--kcut -2000 overflowed 2^-kcut with exit 1)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _nested(pairs: int) -> str:
    return ",".join(f"{i}:{2 * pairs + 1 - i}" for i in range(1, pairs + 1))


def test_render_prices_its_grid_before_drawing(capsys, monkeypatch):
    monkeypatch.setattr(render, "_arc_heights", _fault(AssertionError("the layout started")))
    # 2,000 nested pairs on 4,000 points once took 3.8 s and 366 MB
    assert main(["render", "--n", "4000", "--pairs", _nested(2000)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "MAX_RENDER_CELLS" in captured.err
    for argv in (["--n", "200000"], ["--n", "524288"], ["--n", "1446", "--pairs", _nested(723)]):
        with pytest.raises(AssertionError, match="layout started"):
            main(["render", *argv])
    assert main(["render", "--n", "524289"]) == 2


def _guard_names() -> set:
    """String constants in the modules other than ``budget``: a guard names
    its row by a literal."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name != "budget.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            names |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return names


def test_every_bound_is_read_by_a_guard():
    assert sorted(set(budget.BOUNDS) - _guard_names()) == []


def test_every_bound_is_in_the_readme_table():
    rows = dict(re.findall(r"^\| `(\w+)` \| [^|]+ \| ([\d,]+) \|", README.read_text(), re.MULTILINE))
    assert rows == {name: f"{row.value:,}" for name, row in budget.BOUNDS.items()}
