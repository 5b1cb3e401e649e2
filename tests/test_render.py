import itertools
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from matchings import enumerate_partial_partitions, singletons

from qfock.cli import main
from qfock.combinatorics import PartialPartition, crossings
from qfock.render import ascii_diagram, caption, svg_diagram

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "two_crossing_pairs": PartialPartition(8, 0, ((2, 5), (4, 7))),
    "nested_pairs_split": PartialPartition(8, 4, ((1, 6), (2, 5))),
    "three_pairs_split": PartialPartition(8, 4, ((1, 6), (2, 5), (4, 7))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_ascii_golden(name):
    assert ascii_diagram(CASES[name]) == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_svg_golden(name):
    assert svg_diagram(CASES[name]) == (GOLDEN / f"{name}.svg").read_text()


def test_captions_carry_the_statistics():
    assert caption(CASES["two_crossing_pairs"]) == "iota = 3"
    assert caption(CASES["nested_pairs_split"]) == "iota' = 6, iota = 4"
    assert caption(CASES["three_pairs_split"]) == "iota' = 6, iota = 4"


def test_all_singletons_baseline():
    doc = ascii_diagram(PartialPartition(5, 0, ()))
    lines = doc.splitlines()
    assert lines[-1] == "iota = 0"
    assert set(lines[0]) <= {"-", "'"}


def test_block_split_marker_only_with_block():
    assert ":" in ascii_diagram(CASES["nested_pairs_split"])
    assert ":" not in ascii_diagram(CASES["two_crossing_pairs"])


def test_render_dispatch(capsys):
    """The command line picks the diagram by --format; nothing else dispatches."""
    rho = CASES["two_crossing_pairs"]
    argv = ["render", "--n", "8", "--pairs", "2:5,4:7"]
    assert main(argv) == 0
    assert capsys.readouterr().out == ascii_diagram(rho)
    assert main(argv + ["--format", "svg"]) == 0
    assert capsys.readouterr().out == svg_diagram(rho)
    assert main(argv + ["--format", "png"]) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_svg_parses_and_is_seven_bit(name):
    doc = svg_diagram(CASES[name])
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert all(ord(c) < 128 for c in doc)


def pair_crossings(pairs):
    return sum(
        1
        for (i, j), (k, l) in itertools.combinations(sorted(pairs), 2)
        if k < j < l
    )


@st.composite
def partial_partitions(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    k = draw(st.integers(min_value=0, max_value=n))
    points = list(range(1, n + 1))
    pairs = []
    while len(points) >= 2 and draw(st.booleans()):
        a = draw(st.sampled_from(points))
        points.remove(a)
        b = draw(st.sampled_from(points))
        points.remove(b)
        pairs.append((min(a, b), max(a, b)))
    return PartialPartition(n, k, tuple(pairs))


@given(partial_partitions())
def test_ascii_is_seven_bit_and_marks_crossings(rho):
    doc = ascii_diagram(rho)
    assert all(ord(c) < 128 for c in doc)
    body = "\n".join(doc.splitlines()[:-1])  # caption spells "iota"
    assert body.count("+") == pair_crossings(rho.pairs)
    assert body.count("o") == 2 * len(rho.pairs)
    assert body.count("'") == len(singletons(rho))


def test_block_partitions_render_both_statistics():
    for rho in enumerate_partial_partitions(6, 3, 2):
        cap = caption(rho)
        assert cap.startswith("iota' = ")
        assert f"iota = {crossings(rho)}" in cap
