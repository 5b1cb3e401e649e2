import argparse
import contextlib
import functools
import gzip
import hashlib
import importlib.util
import io
import json
import math
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qfock import analysis, cli, wick
from qfock.budget import bound
from qfock.cli import main, parse_pairs, parse_q
from qfock.fock import FockVector, SpaceConfig, gram_matrix, parse_word, word_basis, word_to_str
from qfock.scalars import EXACT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def check_envelope(doc):
    assert set(doc) == {"command", "config", "results", "verified", "violations"}
    assert isinstance(doc["command"], str)
    assert isinstance(doc["config"], dict)
    assert isinstance(doc["results"], list)
    assert isinstance(doc["verified"], bool)
    assert isinstance(doc["violations"], list)
    assert doc["verified"] == (not doc["violations"])


def test_letter_parsing():
    assert parse_word("1,2t", 2) == ((0, 3), 2)
    assert parse_word("1,1,1,1", 1) == ((0, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        parse_word("3", 2)
    assert parse_pairs("1:6,2:5") == ((1, 6), (2, 5))
    assert parse_q("generic") is EXACT
    assert parse_q("0.5").q == 0.5
    assert word_to_str((0, 3), 2) == "1,2t"


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


LETTER_TEXT = st.text(st.one_of(st.sampled_from("0123t, "), st.characters()), max_size=24)


@settings(max_examples=200, deadline=None)
@given(LETTER_TEXT)
def test_moment_letter_fuzz_is_ok_or_usage_error(text):
    assert quiet_main(["moment", "--d", "2", "--letters", text]) in (0, 2)


@settings(max_examples=200, deadline=None)
@given(LETTER_TEXT)
def test_wick_target_fuzz_is_ok_or_usage_error(text):
    assert quiet_main(["wick", "--d", "2", "--letters", "1,2t", "--on", text]) in (0, 2)


@pytest.mark.parametrize("letters", ["١,١", "+1", "1_0"])
def test_letters_outside_ascii_digits_are_usage_errors(capsys, letters):
    assert main(["moment", "--d", "10", "--letters", letters]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("pairs", ["2", "1:2:3", ":"])
def test_malformed_render_pairs_are_usage_errors(capsys, pairs):
    with pytest.raises(ValueError):
        parse_pairs(pairs)
    assert main(["render", "--n", "4", "--k", "2", "--pairs", pairs]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--h", "--k"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_phi_check_refuses_non_finite_coefficients(capsys, flag, value):
    assert main(["phi-check", "--d", "2", "--max-degree", "2", f"{flag}={value},1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


PAIR_TEXT = st.text(st.one_of(st.sampled_from("01234:, "), st.characters()), max_size=24)


@settings(max_examples=200, deadline=None)
@given(PAIR_TEXT, st.sampled_from(["text", "svg", "json"]))
def test_render_pairs_fuzz_is_ok_or_usage_error(text, fmt):
    argv = ["render", "--n", "4", "--k", "2", "--pairs", text, "--format", fmt]
    assert quiet_main(argv) in (0, 2)


COEFFICIENT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e308", "1e-320", "0"]),
    st.text(st.one_of(st.sampled_from("0123456789.e-+_ "), st.characters()), max_size=6),
)
COEFFICIENTS = st.lists(COEFFICIENT, min_size=1, max_size=3).map(",".join)


def _finite_floats(text: str) -> bool:
    try:
        return all(math.isfinite(float(x)) for x in text.split(","))
    except ValueError:
        return True  # refused as unparsable, not as non-finite


@settings(max_examples=100, deadline=None)
@given(COEFFICIENTS, COEFFICIENTS)
def test_phi_check_coefficient_fuzz_never_verifies_non_finite_input(h, k):
    out = io.StringIO()
    argv = ["phi-check", "--d", "2", "--max-degree", "2", f"--h={h}", f"--k={k}", "--format", "json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if not (_finite_floats(h) and _finite_floats(k)):
        assert code == 2 and out.getvalue() == ""
    elif code != 2:
        assert json.loads(out.getvalue())["verified"] is (code == 0)


def test_moment_prints_exact_polynomial(capsys):
    code, out = run(capsys, "moment", "--d", "1", "--q", "generic", "--letters", "1,1,1,1")
    assert code == 0
    assert out == "2 + q\n"


def test_moment_odd_length_is_zero(capsys):
    code, out = run(capsys, "moment", "--d", "1", "--letters", "1,1,1")
    assert code == 0
    assert out == "0\n"


def test_moment_over_the_matching_cap_is_a_usage_error(capsys, monkeypatch):
    # 1,2 twenty times: 19!!^2 matchings and a work bound of 1.3e9 histogram
    # updates, refused before the walk starts
    monkeypatch.setattr(wick, "_open_arc_states", _entered)
    assert main(["moment", "--d", "2", "--letters", ",".join(["1", "2"] * 20)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cap" in captured.err


@pytest.mark.parametrize("m, catalan", [(18, 4862), (60, 3_814_986_502_092_304)])
def test_moment_of_many_equal_letters_is_walked(capsys, m, catalan):
    code, out = run(capsys, "moment", "--d", "1", "--letters", ",".join(["1"] * m))
    assert code == 0
    assert out.startswith(f"{catalan} + ")  # Catalan(m/2) matchings without crossings


def test_moment_of_few_matchings_is_walked_over_the_work_bound(capsys):
    # 1..10 four times: 3^10 matchings, under the matching cap, although the
    # work bound (2.8e11 updates) is over its own
    letters = ",".join(str(a) for a in range(1, 11))
    code, out = run(capsys, "moment", "--d", "10", "--letters", ",".join([letters] * 4))
    assert code == 0
    assert out == (
        "1024q^90 + 5120q^91 + 11520q^94 + 15360q^99 + 13440q^106 + 8064q^115"
        " + 3360q^126 + 960q^139 + 180q^154 + 20q^171 + q^190\n"
    )


def test_moment_with_an_odd_letter_count_is_zero_at_once(capsys):
    letters = ",".join(["1"] * 31 + ["2"])
    for q in ("generic", "0.5"):
        assert main(["moment", "--d", "2", "--letters", letters, "--q", q]) == 0
        assert capsys.readouterr().out in ("0\n", "0.0\n")


def test_exact_gram_over_budget_is_a_usage_error(capsys, monkeypatch, set_bound):
    from qfock import fock

    set_bound("EXACT_GRAM_BUDGET", fock._gram_bytes(3, 2) - 1)
    monkeypatch.setattr(fock, "_content_blocks", _entered)
    assert main(["gram", "--d", "2", "--degree", "3", "--max-degree", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget" in captured.err


@pytest.mark.parametrize("degree", ["300", "990"])
def test_exact_one_letter_gram_past_the_work_bound_is_a_usage_error(capsys, monkeypatch, degree):
    # one entry of Python-int coefficients; degree 990 once overflowed the recursion
    from qfock import fock

    monkeypatch.setattr(fock, "_content_blocks", _entered)
    assert main(["gram", "--d", "1", "--degree", degree, "--max-degree", degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "work bound" in captured.err


@pytest.mark.parametrize("degree", ["256", "400", "4999"])
def test_float_one_letter_gram_past_the_work_bound_is_a_usage_error(capsys, monkeypatch, degree):
    # degree n makes n(n + 1)/2 slot passes on 1 x 1 blocks; none is made
    from qfock import fock

    monkeypatch.setattr(fock, "_content_blocks", _entered)
    assert main(["gram", "--d", "1", "--degree", degree, "--max-degree", degree, "--q", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "work bound" in captured.err


def test_float_gram_work_bound_admits_one_letter_to_degree_255(monkeypatch):
    from qfock import fock

    monkeypatch.setattr(fock, "_content_blocks", _entered)
    with pytest.raises(AssertionError, match="started"):
        main(["gram", "--d", "1", "--degree", "255", "--max-degree", "255", "--q", "0.5"])


def test_diagonal_schatten_of_one_letter_runs_to_the_dimension_cap(capsys, monkeypatch):
    # the closed spectrum needs no Gram block, so QFOCK_MAX_DIM alone bounds it
    from qfock import fock

    monkeypatch.setattr(fock, "_content_blocks", _entered)
    code, doc = run_json(capsys, "schatten", "--d", "1", "--p", "2", "--max-degree", "4999")
    assert code == 0 and doc["verified"]
    assert len(doc["results"][0]["partial_norms"]) == 5000
    assert main(["schatten", "--d", "1", "--p", "2", "--max-degree", "5000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "QFOCK_MAX_DIM" in captured.err


def test_vector_schatten_is_refused_on_the_doubled_space_before_any_work(capsys, monkeypatch):
    # degree 10 on one letter assembles through 2 letters to degree 12: 8,191 words
    from qfock import fock

    for module, name in ((analysis, "wick_apply"), (analysis, "_first_copy_blocks"), (fock, "_content_blocks")):
        monkeypatch.setattr(module, name, _entered)
    assert main(["schatten", "--route", "vector", "--d", "1", "--p", "2", "--max-degree", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "8191 basis words" in captured.err and "QFOCK_MAX_DIM" in captured.err


@pytest.mark.parametrize("n, k", [(14, 7), (15, 5), (16, 8), (40, 20)])
def test_split_past_the_work_bound_is_a_usage_error(capsys, monkeypatch, n, k):
    monkeypatch.setattr(wick, "_straddling_pairs", _entered)
    assert main(["split", "--d", "1", "--letters", ",".join(["1"] * n), "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "work bound" in captured.err


def test_split_work_bound_admits_thirteen_letters_at_every_split():
    from qfock.combinatorics import _count_straddling

    for k in range(14):
        assert _count_straddling(13, k, range(14)) <= bound("MAX_SPLIT_PARTITIONS")
    for argv in LARGE_FLOAT_SPLITS:  # the largest splits the tests run
        n, k = len(argv[4].split(",")), int(argv[6])
        assert _count_straddling(n, k, range(n + 1)) <= bound("MAX_SPLIT_PARTITIONS")


def test_wick_of_the_longest_word_on_the_vacuum_is_the_word(capsys):
    letters = ",".join(["1"] * bound("MAX_WICK_LETTERS"))
    code, doc = run_json(capsys, "wick", "--d", "1", "--letters", letters)
    assert code == 0 and doc["results"] == [{"word": letters, "coeff": "1"}]


@pytest.mark.parametrize("n, m", [(23, 23), (301, 0), (1100, 0), (1100, 1100), (3, 1700)])
def test_wick_past_the_work_bound_is_a_usage_error(capsys, n, m):
    # 1,100 letters once died with RecursionError and exit 1
    argv = ["wick", "--d", "1", "--letters", ",".join(["1"] * n)]
    wick.wick_word_action.cache_clear()
    assert main(argv + ["--on", ",".join(["1"] * m)] if m else argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "work bound" in captured.err
    assert wick.wick_word_action.cache_info()[1:] == (1, 4096, 0)  # refused before any recursion


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--d", "2", "--degree", "11", "--max-degree", "11"],
        ["gram", "--d", "1", "--copies", "2", "--degree", "11", "--max-degree", "11"],
        ["gram", "--d", "3", "--degree", "7", "--max-degree", "7", "--q", "0.5"],
    ],
)
def test_gram_over_the_printed_entry_cap_is_a_usage_error(capsys, monkeypatch, argv):
    from qfock import fock

    monkeypatch.setattr(fock, "_content_blocks", _entered)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cap" in captured.err


def test_gram_entry_cap_admits_d2_degree10(monkeypatch):
    # 1024^2 entries is the cap itself, so assembly starts
    from qfock import fock

    monkeypatch.setattr(fock, "_content_blocks", _entered)
    with pytest.raises(AssertionError, match="started"):
        main(["gram", "--d", "2", "--degree", "10", "--max-degree", "10"])


def _entered(*args, **kwargs):
    raise AssertionError("the scan started before the budget check")


# the identities functions that start a scan's work
SCAN_WORK = ("_straddling_pairs", "_iota_right_table", "word_basis", "_alternating_sum")


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["verify-claim", "--nmax", "30", "--mmax", "6"], "budget"),
        (["verify-claim", "--nmax", "1000000000", "--mmax", "1000000000"], "budget"),
        (["verify-claim", "--nmax", "1000000000", "--mmax", "0"], "at least 1"),
        (["verify-ie", "--nmax", "3", "--split-nmax", "12"], "budget"),
        (["verify-ie", "--d", "1", "--nmax", "1", "--split-nmax", "13"], "budget"),
        (["verify-ie", "--d", "1", "--nmax", "1", "--split-nmax", "12"], "budget"),
        (["verify-ie", "--nmax", "14", "--split-nmax", "3"], "budget"),
        (["verify-ie", "--nmax", "6", "--split-nmax", "6", "--d", "9"], "budget"),
        (["verify-ie", "--nmax", "1000000000", "--split-nmax", "3", "--d", "1"], "budget"),
        (["verify-iota", "--nmax", "12"], "budget"),
        (["verify-claim", "--nmax", "0"], "0 cases"),
        (["verify-claim", "--nmax", "1", "--mmax", "4"], "0 cases"),
        (["verify-claim", "--nmax", "1", "--inject-fault", "--seed", "7"], "0 cases"),
        (["verify-claim", "--nmax", "0", "--reading", "prime-prime", "--inject-fault"], "0 cases"),
    ],
)
def test_oversized_verify_scans_are_usage_errors(capsys, monkeypatch, argv, reason):
    from qfock import identities

    for name in SCAN_WORK:
        monkeypatch.setattr(identities, name, _entered)
    assert main(argv) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-iota", "--nmax", "-3"],
        ["verify-claim", "--nmax", "-3"],
        ["verify-ie", "--nmax", "-1", "--split-nmax", "-1"],
        ["verify-ie", "--nmax", "3", "--split-nmax", "-1"],
        ["verify-ie", "--nmax", "-1", "--split-nmax", "3"],
    ],
)
def test_negative_scan_bounds_are_usage_errors(capsys, monkeypatch, argv):
    from qfock import identities

    for name in SCAN_WORK:
        monkeypatch.setattr(identities, name, _entered)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "n_max >= 0" in captured.err


def test_claim_other_reading_output_is_pinned(capsys):
    # the signed-exponent histogram must print the same polynomials and
    # violations as the term-by-term sum it replaced
    code = main(["verify-claim", "--nmax", "8", "--mmax", "3", "--reading", "prime-prime",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    check_envelope(doc)
    assert doc["results"][0]["cases"] == 900
    assert doc["results"][0]["notes"]["first_nonzero"] == {
        "n": 4, "k": 2, "pairs": [[1, 4], [2, 3]], "value": "-1 + q^2"
    }
    assert len(doc["violations"]) == 300
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3f52f287e17f9db443b3fe73113ecdbe2bbbc5f33980986b2923e7595f558a29"
    )


# Exit code and SHA-256 of stdout of the verify scans, with and without a
# seeded fault.  The iota' violations, the flipped case and every printed
# polynomial are part of these bytes, so a change to the scan routes that
# moves any of them shows here.
VERIFY_DIGESTS = {
    "verify-iota --nmax 6 --format json":
        (0, "c68bf0f27740e0e236d2cd25708652b9f5df7387dd5cb93a76aeece7b739d1f6"),
    "verify-iota --nmax 6 --format json --inject-fault --seed 1":
        (1, "7ad10788617db05e07d2385ebaf4685b18bc56e1e5690a42a18af6f3d54db323"),
    "verify-iota --nmax 6 --format json --inject-fault --seed 7":
        (1, "4ff9738967e6136a5eb6681c02532a714326003ea9335c5e1a4e936421e6b9dd"),
    "verify-iota --nmax 6 --format json --inject-fault --seed 123":
        (1, "cbba80f2ebfd0ba1cc66d696eb4e4318302d0c43bb915b6207734809569f1cbe"),
    "verify-iota --nmax 6 --format text":
        (0, "70ed3535d78128d92673a5c80931f00c4ea34edfdde3f44cff0d2ebe9ddc2a57"),
    "verify-iota --nmax 6 --format text --inject-fault --seed 1":
        (1, "68ccb5c91722c2c8f4e330eb0da97dc05554b6e0b1b6ccc2c4b6f789758e3fd5"),
    "verify-iota --nmax 6 --format text --inject-fault --seed 7":
        (1, "68ccb5c91722c2c8f4e330eb0da97dc05554b6e0b1b6ccc2c4b6f789758e3fd5"),
    "verify-iota --nmax 6 --format text --inject-fault --seed 123":
        (1, "68ccb5c91722c2c8f4e330eb0da97dc05554b6e0b1b6ccc2c4b6f789758e3fd5"),
    "verify-iota --nmax 10 --format json":
        (0, "16e07f3d8ecd9fcb0dd34eb3f7bb5c75baadd2952ca25aee21115236c9637857"),
    "verify-iota --nmax 10 --format json --inject-fault --seed 1":
        (1, "9859631eabde7d716dcdefc9f3ce509aa89599f3cf9929e801e853b1eb21ad02"),
    "verify-iota --nmax 10 --format json --inject-fault --seed 7":
        (1, "4e1ab471583aef491788f1388f7f252e3abb65bb1c64698d95f455fe68bf86a7"),
    "verify-iota --nmax 10 --format json --inject-fault --seed 123":
        (1, "f1d42c2f3955060e0fa11b478454f044a794c30b4b3aa31e39b4e99571b2727c"),
    "verify-iota --nmax 10 --format text":
        (0, "92f78050970b0d447bc72e2a0c82cd78787173ed443a0573238890166c70a81b"),
    "verify-iota --nmax 10 --format text --inject-fault --seed 1":
        (1, "cb14cbec71ac9618114e4cee394292cfe7d994b35d80904c9702acce9e96845a"),
    "verify-iota --nmax 10 --format text --inject-fault --seed 7":
        (1, "cb14cbec71ac9618114e4cee394292cfe7d994b35d80904c9702acce9e96845a"),
    "verify-iota --nmax 10 --format text --inject-fault --seed 123":
        (1, "cb14cbec71ac9618114e4cee394292cfe7d994b35d80904c9702acce9e96845a"),
    "verify-ie --format json":
        (0, "22cdf6982b733afc45753ff77660494b2cff14bca98d39c4d5456d94b6895614"),
    "verify-ie --format json --inject-fault --seed 1":
        (1, "425c6bbee9e7c1e909d023e06c2db9900894cbb66ab249d57f9abe832c7e8387"),
    "verify-ie --format json --inject-fault --seed 7":
        (1, "8f1f527f98fc33cf6ed3ee8852485651e484b675d5a67b1ed2a84732726fb8be"),
    "verify-ie --format json --inject-fault --seed 123":
        (1, "4bede16d11638f08f448031677d0144ed5aafe22d44df11048c334f6136e65d2"),
    "verify-ie --format text":
        (0, "28872cc12965aee594585ec4b1fad155585d9dffb53ec9f541116bad96b2dd28"),
    "verify-ie --format text --inject-fault --seed 1":
        (1, "43d10d66ceb83277bbd768077d4866efa04361818b92fa307eba674219429e27"),
    "verify-ie --format text --inject-fault --seed 7":
        (1, "43d10d66ceb83277bbd768077d4866efa04361818b92fa307eba674219429e27"),
    "verify-ie --format text --inject-fault --seed 123":
        (1, "43d10d66ceb83277bbd768077d4866efa04361818b92fa307eba674219429e27"),
    "verify-ie --merged --format json":
        (0, "cb4db8b748b78faf61cf1e7c5310b49d27b57fe6bc8daaacff3120248c38ea9f"),
    "verify-ie --merged --format json --inject-fault --seed 1":
        (1, "37f2e6eae14cbf24876ef9f969e1d89fa1eff3bea1763445f676681b0612aeee"),
    "verify-ie --merged --format json --inject-fault --seed 7":
        (1, "b25d2cf9a474823e4756c7af9c2731ed50c9a4b277aa20b254eb213f6a96692b"),
    "verify-ie --merged --format json --inject-fault --seed 123":
        (1, "e986532b5b85f250d945d25a1615b7602ae74e3655e6ef5e9dc2f07933ba3aef"),
    "verify-ie --merged --format text":
        (0, "88f9bc5215125b32d7d0a42748ef4f62118188712d6279466f8ab17f62d29d50"),
    "verify-ie --merged --format text --inject-fault --seed 1":
        (1, "d669a8272d4417c185a1a6c1832a9d3af1e7beb19b6145a870969680aa1b3c8f"),
    "verify-ie --merged --format text --inject-fault --seed 7":
        (1, "d669a8272d4417c185a1a6c1832a9d3af1e7beb19b6145a870969680aa1b3c8f"),
    "verify-ie --merged --format text --inject-fault --seed 123":
        (1, "d669a8272d4417c185a1a6c1832a9d3af1e7beb19b6145a870969680aa1b3c8f"),
    "verify-claim --format json":
        (0, "6c0935b37e53748daf6b756fecd73b9184cb41a44784342d8afc635c01795c31"),
    "verify-claim --format json --inject-fault --seed 1":
        (1, "42cd48e94374d8714e80261dff85cb72a333f866450191d35a6804c7ac3bdb05"),
    "verify-claim --format json --inject-fault --seed 7":
        (1, "af957c09a9f41453a93ddf219c5eb3554d3d6879aebd61b6e014466fed337f85"),
    "verify-claim --format json --inject-fault --seed 123":
        (1, "80b008553ba3362ac4c6f590d802c39b705d15162075db8f06b8a2baf811935e"),
    "verify-claim --format text":
        (0, "c2c4d9251f49faadc9fee726d2d4eb9d4676d6b28ab71bc469a7ccd79ff1f834"),
    "verify-claim --format text --inject-fault --seed 1":
        (1, "5771fe0da863f7a78077efab5be25f2bc003e2c4081b0b699bcae78435cf0d58"),
    "verify-claim --format text --inject-fault --seed 7":
        (1, "5771fe0da863f7a78077efab5be25f2bc003e2c4081b0b699bcae78435cf0d58"),
    "verify-claim --format text --inject-fault --seed 123":
        (1, "5771fe0da863f7a78077efab5be25f2bc003e2c4081b0b699bcae78435cf0d58"),
}


@pytest.mark.parametrize("argv", sorted(VERIFY_DIGESTS))
def test_verify_scans_print_their_pinned_bytes(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERIFY_DIGESTS[argv]


# Exit code and SHA-256 of stdout of the benchmark's ``gram`` runs, full
# and tiny sizes, at its four float q values and generic, in json and
# text.  Every entry's digits, the zeros between contents and the layout
# of the envelope are part of these bytes.
GRAM_DIGESTS = {
    "gram --d 3 --degree 5 --max-degree 5 --q 0.5 --format json":
        (0, "888c835042c558badd01852d1b2a07c2fe7090a5f90cc2ff73be022b43b39f61"),
    "gram --d 3 --degree 5 --max-degree 5 --q 0.5 --format text":
        (0, "10fe1cbd95dda97382c7d1a8b2de467c3dfdb7ece37bda435d238ae7f5142267"),
    "gram --d 3 --degree 5 --max-degree 5 --q 0.3 --format json":
        (0, "d3758978351756f58162d821b081ed48a074eb494b670f848082d174efd20247"),
    "gram --d 3 --degree 5 --max-degree 5 --q 0.3 --format text":
        (0, "b3a3e8a0ff03c782a6e461f43645f3e4018a3ecb2d52a29378baac38703fd8cb"),
    "gram --d 3 --degree 5 --max-degree 5 --q -0.4 --format json":
        (0, "14fc8f8769644effbb4ed97914826498b2fb9293fda51dc765086b540023a574"),
    "gram --d 3 --degree 5 --max-degree 5 --q -0.4 --format text":
        (0, "de4fc26ee4208d11029e53d3caa4fb3ec9d0b24bd308a81b62cde9e9d1c5aabe"),
    "gram --d 3 --degree 5 --max-degree 5 --q 0.7 --format json":
        (0, "0988eab4af75f55a1dc31effa6a3edfcf4ad2999dd2041b19019c519e20e0546"),
    "gram --d 3 --degree 5 --max-degree 5 --q 0.7 --format text":
        (0, "ef0d066225fd4053ca6ff74a652ebabd69a631c8239043cd4e9729eb5c46ee9c"),
    "gram --d 3 --degree 5 --max-degree 5 --q generic --format json":
        (0, "905a476b902b04be9e3c4c65ad9535af6601bedcf59cd5cc61bda5c476fbd616"),
    "gram --d 3 --degree 5 --max-degree 5 --q generic --format text":
        (0, "e627d18f6cbfe7b9ff8e892ded88e98a764206e659d4f6e94d09a8f5a40717c0"),
    "gram --d 2 --degree 3 --max-degree 3 --q 0.5 --format json":
        (0, "36fd35f67dd241c3341ecf7a1dfddfa7cd27a08387f692ffa225d63649d1c80d"),
    "gram --d 2 --degree 3 --max-degree 3 --q 0.5 --format text":
        (0, "1b52fd3fe767faa7369253f9764dc3f028e449546031fdfc15621c4b7e165a09"),
    "gram --d 2 --degree 3 --max-degree 3 --q 0.3 --format json":
        (0, "bf0a75c5a7b7a7cfe5df454d3eb076c87d43f5f06f57c783989f9e26012f074e"),
    "gram --d 2 --degree 3 --max-degree 3 --q 0.3 --format text":
        (0, "995b7f607fce2f5f5e16fda9539591ddeb1f66c8205bd36863ec8deffe18fb4c"),
    "gram --d 2 --degree 3 --max-degree 3 --q -0.4 --format json":
        (0, "dad5efd33483ce5e3be62baa2a407e9c3b321daa47f320354fcb4282153b2d2f"),
    "gram --d 2 --degree 3 --max-degree 3 --q -0.4 --format text":
        (0, "73561502800a57cf69b085365700e09befb5fd518c6971237440af5fed9ca186"),
    "gram --d 2 --degree 3 --max-degree 3 --q 0.7 --format json":
        (0, "9974db36fd1dbf9c4ede6a779c2454a42f9e41162e5171221362661f0cebeca8"),
    "gram --d 2 --degree 3 --max-degree 3 --q 0.7 --format text":
        (0, "bbfd18b1b23bcd306b916a07e606f70729b60f843b8c0008006969e1a5b0d1e7"),
    "gram --d 2 --degree 3 --max-degree 3 --q generic --format json":
        (0, "1d400ecea3012cabe888bc581dd37cde940b9af490bd74cfd0d0bd8ea77930ee"),
    "gram --d 2 --degree 3 --max-degree 3 --q generic --format text":
        (0, "764264e6cb3c29ee7bcc1208755766f8becec85d22c94451b0e105be5fa0cbb9"),
}


@pytest.mark.parametrize("argv", sorted(GRAM_DIGESTS))
def test_gram_prints_its_pinned_bytes(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GRAM_DIGESTS[argv]


# Exit code and SHA-256 of stdout of ``wick`` and ``split``, in json and
# text: one letter fourteen deep, two copies, float q, a truncation below
# the product's degree, and a space over the QFOCK_MAX_DIM cap.  Every
# word and polynomial the Wick kernel gives is part of these bytes.
ONES_14 = ",".join(["1"] * 14)
WICK_DIGESTS = {
    "wick --d 1 --letters " + ONES_14 + " --on " + ONES_14 + " --format json":
        (0, "a4f00a8d8ee71e3f987f5d18424787eb630f747d48aad0363df18089de06d395"),
    "wick --d 1 --letters " + ONES_14 + " --on " + ONES_14 + " --format text":
        (0, "5001dc9e1ccddbde8963903f19ad88e41ff60fb18faf37b234d4481b331520e5"),
    "wick --d 2 --letters 1,2t,1t --on 2t,1 --format json":
        (0, "bae4e7d06c18fa177d277c3d085c53c9d0702d167f8ba88be99fbfd69eaf5467"),
    "wick --d 2 --letters 1,2t,1t --on 2t,1 --format text":
        (0, "47be207292ca13a6ee3da8beb7a2ddc96bd6e919e70f1bc660202e85c6396c14"),
    "wick --d 2 --letters 1,2,2,1 --on 2,1,1 --q 0.5 --format json":
        (0, "ed4a1b6b6d1a8f02417ee557ce0f652942c26b411c9b7344b4ae55b3152b752b"),
    "wick --d 2 --letters 1,2,2,1 --on 2,1,1 --q 0.5 --format text":
        (0, "45938d0d9a510a05a1b421ed488c00fff741b8caa27c7d347ca9b77e7f9e094d"),
    "wick --d 3 --letters 1,2,3,1 --on 3,1,2 --q -0.3 --format json":
        (0, "445fb00c408bdf26719ad9f3a1904e31f69db603a06c6fa55adfcb9d9a0e4b6f"),
    "wick --d 3 --letters 1,2,3,1 --on 3,1,2 --q -0.3 --format text":
        (0, "e3df9ecc2025b28fb20baa25f0b7a83030ddd16a9dc9fa966d9ca94c6e748186"),
    "wick --d 3 --letters 1,2,3,1 --on 3,1,2,1,2 --q -0.3 --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "wick --d 3 --letters 1,2,3,1 --on 3,1,2,1,2 --q -0.3 --format text":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "wick --d 2 --letters 1,2,1 --on 2,1,1 --max-degree 4 --format json":
        (0, "2c3a0cd011d556a46ea6154604fa4905ba92dc13bede7019912e62b37443dcda"),
    "wick --d 2 --letters 1,2,1 --on 2,1,1 --max-degree 4 --format text":
        (0, "224f6bde64a68a3d2fc3a4727ff6a4cc3c10cc1c1c384e9b5c37d9eb545d8ef5"),
    "split --d 2 --letters 1,2,2,1,2,1 --k 3 --format json":
        (0, "db7989c6a4e44bdddae31fdee56d50b415070a5d2cd3178a4d35ef3a135bb5e0"),
    "split --d 2 --letters 1,2,2,1,2,1 --k 3 --format text":
        (0, "8485345e42ea2e01e855f9aac3b061d11af5c7979618bda745e262bd69f0d3aa"),
    "split --d 2 --letters 1,2t,1t,2 --k 2 --format json":
        (0, "71a2a7ef26a9f5c92b4fb52d02dd07f269253ac76c6525bf5bf5ca03e184f3bd"),
    "split --d 2 --letters 1,2t,1t,2 --k 2 --format text":
        (0, "953a07f59e007f5c5bfe89811f849a843a30a96d5c54a47d1f8783317fe45f4c"),
    "split --d 1 --letters 1,1,1,1,1,1 --k 3 --q 0.7 --format json":
        (0, "2b461bc602dc0eb9ed0f832f9556346af7caf38d3554f4707b106d5a6fb3e5e4"),
    "split --d 1 --letters 1,1,1,1,1,1 --k 3 --q 0.7 --format text":
        (0, "3442e8a274be130e81d33cf87d4581bc2175e287fff177f516ca1c880b8c8406"),
    "split --d 2 --letters 1,2,1,2,1 --k 2 --max-degree 7 --format json":
        (0, "46676523faf64467550cd0e027380373bfbde00e305787d684807fb9e3a0170b"),
    "split --d 2 --letters 1,2,1,2,1 --k 2 --max-degree 7 --format text":
        (0, "0f8477394647ea41a5334b9eb57b0a41a9ea03a4f49b480713d12d326c4a0d3e"),
}


@pytest.mark.parametrize("argv", sorted(WICK_DIGESTS))
def test_wick_and_split_print_their_pinned_bytes(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == WICK_DIGESTS[argv]


# Exit code and SHA-256 of stdout of the ENVELOPE_ARGV and FAILING_ARGV
# runs whose output has no BLAS roundoff, in json and text: the envelope
# bytes themselves, beside the json.dumps oracle of
# test_json_stdout_is_the_oracle_text_of_its_payload.
ENVELOPE_DIGESTS = {
    "moment --d 2 --letters 1,2,2,1 --format json":
        (0, "abcce2aec03d1bcee5c64293577ed4b546e701a6050cf43f6bade2fc839264fc"),
    "moment --d 2 --letters 1,2,2,1 --format text":
        (0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    "wick --d 2 --letters 1,2t --on 2,1 --format json":
        (0, "f277f6ca3f1212f917eaa7a8a685fd06ef98d27967da9047558218b98f9f83d4"),
    "wick --d 2 --letters 1,2t --on 2,1 --format text":
        (0, "c4f7b98416aa223799dad9e49d5dcf3162401ef8c3548da9ee1b8ad9c549769b"),
    "split --d 2 --letters 1,2,2,1 --k 2 --q 0.5 --format json":
        (0, "84b9fc4fdc45684ba86507bc39602c3e72a2e98410f61329607f18d59d074bc1"),
    "split --d 2 --letters 1,2,2,1 --k 2 --q 0.5 --format text":
        (0, "31d81bac2739e05c988dd924846156c9b80d5d7ab930f1fbd4a561aeb616fa1d"),
    "clt --d 1 --letters 1,1,1,1 --N 2 --format json":
        (0, "01d74dd336649f5e7c3437892bb0c173d6a1c6ca56ea0a5c8778df4751418e70"),
    "clt --d 1 --letters 1,1,1,1 --N 2 --format text":
        (0, "3e8feffdc641c593c47f4273567278f6f8094c6600bf6b748db1e77fb87481eb"),
    "clt --d 2 --N 2 --left 1,2 --right 1,2 --format json":
        (0, "16baf165e61866444ee904838630ed14afa0c77a08540c8a5dbd38446e06daf4"),
    "clt --d 2 --N 2 --left 1,2 --right 1,2 --format text":
        (0, "75387acc2dd595973788c8e1e7495daaedc613ab6b04eab92ed01142991f08e4"),
    "verify-iota --nmax 4 --format json":
        (0, "ab645b28db55eebf20cd50d6e7c0c1a098926e9971d5634adecb51ec5c2d366c"),
    "verify-iota --nmax 4 --format text":
        (0, "1766754f3765a820d784a9deac8c6e0de3e62d815732bab7bbd70cc875f8df1a"),
    "verify-ie --nmax 3 --split-nmax 3 --format json":
        (0, "62ab8387dddaab69cc6b0f5f8a2d7b8e8e384c0c7116e39ea69b90f5eef1ad08"),
    "verify-ie --nmax 3 --split-nmax 3 --format text":
        (0, "aeda20ef5f8d7e9b125c7f85a3f2e91a7dc7c6195ccbc5639d31bd7e9217daac"),
    "verify-claim --nmax 4 --mmax 2 --reading prime-prime --format json":
        (1, "6c7d44cb077eedd035a34c43383a5a82f7a3a5dce27993e20c94ef94d4098f1c"),
    "verify-claim --nmax 4 --mmax 2 --reading prime-prime --format text":
        (1, "6b4bb87a93c3c295e526292f06d07bcc444b07c715b0b737922014430730dcea"),
    "render --n 8 --k 4 --pairs 1:6,2:5 --format json":
        (0, "c5b1943379d074c4e925c95ac17db45e392a927963e4e7425037b4d4cb0e167d"),
    "render --n 8 --k 4 --pairs 1:6,2:5 --format text":
        (0, "9e0311911d1673eed5590835d588090d44a9a00a62dd4bb52ae15d1ec865725b"),
    "verify-iota --nmax 5 --inject-fault --seed 7 --format json":
        (1, "6683f33da1b4662d66187170c3b95827191b3b6492586408492a36dbb44ab583"),
    "verify-iota --nmax 5 --inject-fault --seed 7 --format text":
        (1, "965f03b62378690224107d439e208b303538f7962441d24996f4a11120995862"),
    "verify-ie --nmax 4 --split-nmax 4 --inject-fault --seed 7 --format json":
        (1, "0dd898c0538bc7e88ff55441dc739fa8006967e46deb9296fc07f9232cc34c2c"),
    "verify-ie --nmax 4 --split-nmax 4 --inject-fault --seed 7 --format text":
        (1, "831b2d2e1af7b5e0308d3e4173aa4e6644b031e24a1cd8382c3ec55a9ba5b041"),
    "verify-claim --nmax 6 --mmax 2 --inject-fault --seed 7 --format json":
        (1, "f0f8dc898c51fd1e1605f77e66b7038a406754b33157941bb0c6416d3d006d70"),
    "verify-claim --nmax 6 --mmax 2 --inject-fault --seed 7 --format text":
        (1, "f9274ca660a4ddcbb629e7f70db0d193b1e9fdfb110385fe84f8a7ca4584cd0d"),
}


@pytest.mark.parametrize("argv", sorted(ENVELOPE_DIGESTS))
def test_envelopes_print_their_pinned_bytes(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == ENVELOPE_DIGESTS[argv]


def test_envelope_digests_cover_the_exact_envelope_argv():
    # gram has its own table; the rest print floats through numpy's BLAS
    floats = ("gram", "schatten", "phi-check", "decay", "deform", "tail")
    exact = [argv for argv in ENVELOPE_ARGV + FAILING_ARGV if argv[0] not in floats]
    assert {" ".join(argv + ["--format", fmt]) for argv in exact for fmt in ("json", "text")} == set(ENVELOPE_DIGESTS)


def test_gram_degree_above_truncation(capsys):
    # refused by gram_matrix itself, before any work
    assert main(["gram", "--d", "2", "--degree", "7", "--max-degree", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "outside 0..6" in captured.err


def test_gram_json(capsys):
    code, doc = run_json(capsys, "gram", "--d", "1", "--degree", "2", "--max-degree", "2")
    assert code == 0
    check_envelope(doc)
    assert doc["results"][0]["matrix"] == [["1 + q"]]


def _gram_rows(matrix, mode) -> list:
    """Gram entries as output scalars, from the dense ``gram_matrix`` result:
    the route the exact ``gram`` printout replaced, kept as its oracle."""
    cells = matrix.tolist()
    if not mode.is_exact:
        return cells
    printed = {key: str(p) for key, p in {id(p): p for row in cells for p in row}.items()}
    return [[printed[key] for key in map(id, row)] for row in cells]


@pytest.mark.parametrize("d,copies", [(1, 1), (2, 1), (3, 1), (1, 2)])
def test_exact_gram_printout_matches_the_dense_matrix_rows(capsys, d, copies):
    for degree in range(6):
        cfg = SpaceConfig(d, copies, degree, EXACT)
        rows = _gram_rows(gram_matrix(degree, cfg), EXACT)
        argv = ["gram", "--d", str(d), "--copies", str(copies), "--degree", str(degree), "--max-degree", str(degree)]
        code, doc = run_json(capsys, *argv)
        assert code == 0 and doc["results"][0]["matrix"] == rows
        code, out = run(capsys, *argv, "--format", "text")
        assert code == 0 and out == "\n".join("\t".join(row) for row in rows) + "\n"


@pytest.mark.parametrize("q", ["0.5", "-0.4", "0.0", "-0.0", "0.95"])
@pytest.mark.parametrize("d,copies", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
def test_float_gram_printout_matches_the_dense_matrix_rows(capsys, d, copies, q):
    for degree in range(6):
        if (d * copies) ** degree > 256:  # keeps the test quick; the digests pin larger blocks
            break
        cfg = SpaceConfig(d, copies, degree, parse_q(q))
        dense = gram_matrix(degree, cfg)
        rows = dense.tolist()
        # the printout starts every row from a shared 0.0 row: every entry
        # between words of different letter content is +0.0 in the dense matrix
        contents = [sorted(w) for w in word_basis(degree, cfg.letters)]
        between = [(s, t) for s, u in enumerate(contents) for t, v in enumerate(contents) if u != v]
        assert all(repr(rows[s][t]) == "0.0" for s, t in between)
        argv = ["gram", "--d", str(d), "--copies", str(copies), "--degree", str(degree), "--max-degree", str(degree), "--q", q]
        code, out = run(capsys, *argv, "--format", "json")
        matrix = json.loads(out)["results"][0]["matrix"]
        assert code == 0 and matrix == rows
        assert [list(map(repr, row)) for row in matrix] == [list(map(repr, row)) for row in rows]
        code, out = run(capsys, *argv, "--format", "text")
        assert code == 0 and out == "\n".join("\t".join(map(str, row)) for row in rows) + "\n"


def test_float_gram_entries_equal_as_floats_keep_their_own_text(capsys, monkeypatch):
    # each distinct entry is rendered once: -0.0 and 0.0 compare equal but print apart
    from qfock import fock

    dense = gram_matrix(2, SpaceConfig(2, 1, 2, parse_q("0.5")))
    dense[1, 2], dense[2, 1], dense[3, 3] = -0.0, 0.0, -dense[3, 3]  # words 1,2 and 2,1 share a content
    blocks = fock._content_blocks

    def altered(degree, letters, q=None):  # the content blocks of ``dense``
        for content, words, block in blocks(degree, letters, q):
            yield content, words, dense[words][:, words]

    monkeypatch.setattr(fock, "_content_blocks", altered)
    argv = ["gram", "--d", "2", "--degree", "2", "--max-degree", "2", "--q", "0.5"]
    code, out = run(capsys, *argv, "--format", "text")
    assert code == 0 and out == "\n".join("\t".join(map(repr, row)) for row in dense.tolist()) + "\n"
    assert out.splitlines()[1].split("\t")[1:3] == ["1.0", "-0.0"]
    code, out = run(capsys, *argv, "--format", "json")
    matrix = json.loads(out)["results"][0]["matrix"]
    assert [list(map(repr, row)) for row in matrix] == [list(map(repr, row)) for row in dense.tolist()]


@pytest.mark.parametrize("q", ["0.9999", "0.99999"])
def test_float_gram_entries_that_overflow_print_as_the_dense_matrix(capsys, q):
    # [200]_q! overflows near q = 1: json writes null, text writes inf
    cfg = SpaceConfig(1, 1, 200, parse_q(q))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = gram_matrix(200, cfg).tolist()
        argv = ["gram", "--d", "1", "--degree", "200", "--max-degree", "200", "--q", q]
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out, parse_constant=_no_constants)["results"][0]["matrix"] == nulled(rows)
        code, out = run(capsys, *argv, "--format", "text")
    assert rows == [[math.inf]]
    assert code == 0 and out == "inf\n"


@pytest.mark.parametrize("q", ["1e30", "-1e30", "1.0", "-1.0"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_float_gram_refuses_q_outside_the_unit_interval(capsys, q, fmt):
    # the printout's +0.0 between contents and its n! bound rely on |q| < 1
    argv = ["gram", "--d", "2", "--degree", "10", "--max-degree", "10", f"--q={q}", "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "requires |q| < 1" in captured.err


@pytest.mark.parametrize("q", ["0.5", "generic"])
def test_gram_envelope_writes_each_row_as_one_piece(q):
    argv = ["gram", "--d", "2", "--degree", "3", "--max-degree", "3", "--q", q, "--format", "json"]
    args = cli.build_parser().parse_args(argv)
    results, violations, _ = cli.cmd_gram(args, parse_q(q))
    payload = cli.envelope(args, results, violations)
    out = cli.emit(args, payload)
    rows = results[0]["matrix"]
    assert [type(row) for row in rows] == [cli._Row] * 8
    assert all(out.count(row.text) == 1 for row in rows)
    assert out == json.dumps(payload, indent=2) + "\n"
    # a row met at any other depth is a fault, not a usage error
    with pytest.raises(TypeError):
        cli.emit(args, {"matrix": rows})


def test_emit_writes_the_row_marker_string_as_json_does():
    # with no rows in the payload, the marker string is plain text
    args = argparse.Namespace(command="any", format="json")
    for tree in ({"marker": cli._ROW_STAND_IN}, [cli._ROW_STAND_IN, {cli._ROW_STAND_IN: 1}]):
        assert cli.emit(args, tree) == json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize("where", ["words", "matrix", "config"])
def test_emit_refuses_the_row_marker_string_beside_gram_rows(where):
    # the marker string beside real rows miscounts the markers: a fault
    argv = ["gram", "--d", "2", "--degree", "2", "--max-degree", "2", "--format", "json"]
    args = cli.build_parser().parse_args(argv)
    results, violations, _ = cli.cmd_gram(args, EXACT)
    payload = cli.envelope(args, results, violations)
    if where == "config":
        payload["config"]["q"] = '"' + cli._ROW_STAND_IN
    else:
        results[0][where].append(cli._ROW_STAND_IN)
    with pytest.raises(TypeError):
        cli.emit(args, payload)


def test_wick_on_vacuum_returns_the_word(capsys):
    code, doc = run_json(capsys, "wick", "--d", "2", "--letters", "1,2")
    assert code == 0
    check_envelope(doc)
    assert doc["results"] == [{"word": "1,2", "coeff": "1"}]


def test_split_routes_agree(capsys):
    code, doc = run_json(capsys, "split", "--d", "2", "--letters", "1,2,2,1", "--k", "2")
    assert code == 0
    check_envelope(doc)
    assert doc["verified"] is True
    words = {r["word"]: r["coeff"] for r in doc["results"]}
    assert words[""] == "1"
    assert words["2,2"] == "q^2"


# coefficients up to about 300 and 3000, where an absolute 1e-12 is below one ulp
LARGE_FLOAT_SPLITS = [
    ["split", "--d", "1", "--letters", ",".join("1" * 10), "--k", "5", "--q", "0.9"],
    ["split", "--d", "1", "--letters", ",".join("1" * 12), "--k", "6", "--q", "0.95"],
]


@pytest.mark.parametrize("argv", LARGE_FLOAT_SPLITS)
def test_float_split_routes_agree_relative_to_magnitude(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["verified"] is True
    assert max(abs(r["coeff"]) for r in doc["results"]) > 250


def _nudged(fn, factor):
    def nudged(*args):
        value = fn(*args)
        return value.scale(factor) if isinstance(value, FockVector) else value * factor

    return nudged


@pytest.mark.parametrize(
    "route, argv",
    [
        ("wick_split_product", LARGE_FLOAT_SPLITS[0]),
        ("wick_split_product", ["split", "--d", "2", "--letters", "1,2,2,1", "--k", "2"]),
        ("offdiag_reference", ["clt", "--d", "2", "--N", "3", "--left", "1,2", "--right", "1,2"]),
        ("offdiag_reference", ["clt", "--d", "2", "--N", "3", "--left", "1,2", "--right", "1,2",
                               "--q", "0.5"]),
    ],
)
def test_perturbed_route_still_fails(capsys, monkeypatch, route, argv):
    # 1e-9 relative is far above the float tolerance; exact mode sees any change
    factor = 1 + 1e-9 if "--q" in argv else 2
    monkeypatch.setattr(cli, route, _nudged(getattr(cli, route), factor))
    code, doc = run_json(capsys, *argv)
    assert code == 1
    check_envelope(doc)
    assert doc["verified"] is False and len(doc["violations"]) == 1


def test_clt_moments_stabilize(capsys):
    code, doc = run_json(capsys, "clt", "--d", "1", "--letters", "1,1,1,1", "--N", "3")
    assert code == 0
    check_envelope(doc)
    assert all(r["moment"] == "2 + q" for r in doc["results"])


def test_clt_offdiagonal_identity(capsys):
    code, doc = run_json(capsys, "clt", "--d", "2", "--left", "1,2", "--right", "1,2", "--N", "3")
    assert code == 0
    check_envelope(doc)
    assert doc["results"][0]["coefficient"] == doc["results"][0]["reference"]


def test_clt_requires_letters(capsys):
    assert main(["clt", "--d", "1", "--N", "2"]) == 2


@pytest.mark.parametrize("N", ["7", "1000"])
def test_clt_walks_partitions_not_colorings(capsys, N):
    # 7^8 and 1000^8 colorings, but 4140 set partitions of 8 letters
    code, doc = run_json(capsys, "clt", "--letters", ",".join("1" * 8), "--N", N)
    assert code == 0 and len(doc["results"]) == int(N) + 1
    assert {r["moment"] for r in doc["results"]} == {"14 + 28q + 28q^2 + 20q^3 + 10q^4 + 4q^5 + q^6"}


@pytest.mark.parametrize(
    "argv",
    [
        ["clt", "--letters", ",".join("1" * 12), "--N", "5"],  # 2,079,475 partitions
        ["clt", "--d", "2", "--left", "1,2,1,2,1,2", "--right", "2,1,2,1,2,1", "--N", "5"],
        ["clt", "--letters", "1,1", "--N", "2000000"],  # 2 partitions, 2,000,000 rows
    ],
)
def test_clt_guard_refuses_before_any_work(capsys, monkeypatch, argv):
    def no_walk(*args, **kwargs):
        raise AssertionError("the partition walk started")

    monkeypatch.setattr(wick, "patterns", no_walk)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "too many" in err


def test_clt_guard_admits_up_to_the_cap(capsys, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("the partition walk started")

    monkeypatch.setattr(wick, "patterns", walk)
    # 700,075 partitions and 4 rows; 2 partitions and 1,999,998 rows
    for argv in (["--letters", ",".join("1" * 12), "--N", "4"], ["--letters", "1,1", "--N", "1999998"]):
        with pytest.raises(AssertionError, match="started"):
            main(["clt", *argv])
    assert main(["clt", "--letters", "1,1", "--N", "1999999"]) == 2
    assert "too many" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-iota", "--nmax", "5"],
        ["verify-ie", "--nmax", "4", "--split-nmax", "4"],
        ["verify-claim", "--nmax", "6", "--mmax", "2"],
    ],
)
def test_verifiers_pass(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 0
    check_envelope(doc)
    assert doc["verified"] is True
    assert all(r["passed"] for r in doc["results"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-iota", "--nmax", "5"],
        ["verify-ie", "--nmax", "4", "--split-nmax", "4"],
        ["verify-claim", "--nmax", "6", "--mmax", "2"],
    ],
)
def test_injected_fault_flips_exit_code(capsys, argv):
    code, doc = run_json(capsys, *argv, "--inject-fault", "--seed", "7")
    assert code == 1
    check_envelope(doc)
    assert doc["verified"] is False
    assert doc["violations"]


def test_verify_ie_merged(capsys):
    code, doc = run_json(capsys, "verify-ie", "--nmax", "3", "--split-nmax", "3", "--merged")
    assert code == 0
    assert len(doc["results"]) == 1


def test_claim_other_reading_reports_witness(capsys):
    code, doc = run_json(
        capsys, "verify-claim", "--nmax", "4", "--mmax", "2", "--reading", "prime-prime"
    )
    assert code == 1
    check_envelope(doc)
    witness = doc["results"][0]["notes"]["first_nonzero"]
    assert witness["n"] == 4
    assert witness["value"] == "-1 + q^2"


def test_schatten_agrees_with_closed_form(capsys):
    code, doc = run_json(capsys, "schatten", "--d", "2", "--p", "2", "--q", "0.5")
    assert code == 0
    check_envelope(doc)
    row = doc["results"][0]
    assert row["norm"] == pytest.approx(row["closed_form"])
    assert row["threshold"] == pytest.approx(1.0)


def test_schatten_needs_float_mode(capsys):
    assert main(["schatten", "--d", "2", "--p", "2", "--q", "generic"]) == 2


@pytest.mark.parametrize("flag", ["--p", "--hk"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_schatten_refuses_non_finite_p_and_hk(capsys, flag, value):
    # every number would print as NaN, and NaN compares as no violation
    argv = ["schatten", "--d", "2", "--p", "2", f"{flag}={value}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["phi-check", "--d", "1", "--tol"],
        ["tail", "--letters", "1,1", "--top", "0", "--t"],
        ["deform", "--kcut", "1", "--tmin"],
        ["deform", "--kcut", "1", "--tmax"],
    ],
    ids=lambda argv: argv[-1],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_float_options_refuse_non_finite_values(capsys, argv, value):
    # a NaN tolerance failed every check and a NaN time printed nan with exit 0
    assert main(argv[:-1] + [f"{argv[-1]}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_schatten_overflowing_norm_is_a_violation(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run_json(capsys, "schatten", "--d", "2", "--p", "2", "--hk", "1e308")
    assert code == 1
    check_envelope(doc)
    assert doc["results"][0]["norm"] is None


def test_diagonal_schatten_does_no_linear_algebra(capsys, monkeypatch):
    from qfock import fock

    for module, name in ((analysis, "gram_factors"), (fock, "_content_blocks"),
                         (analysis.np.linalg, "eigh"), (analysis.np.linalg, "svd")):
        monkeypatch.setattr(module, name, _entered)
    code, doc = run_json(capsys, "schatten", "--d", "2", "--p", "2", "--max-degree", "7")
    assert code == 0 and doc["verified"]
    with pytest.raises(AssertionError, match="started"):
        main(["schatten", "--route", "vector", "--d", "2", "--p", "2", "--max-degree", "3"])


def test_vector_schatten_agrees_with_the_closed_form_and_the_diagonal_route(capsys):
    argv = ["schatten", "--d", "2", "--p", "2", "--max-degree", "3"]
    code, vector = run_json(capsys, *argv, "--route", "vector")
    assert code == 0
    check_envelope(vector)
    _, diagonal = run_json(capsys, *argv)
    row = vector["results"][0]
    assert abs(row["norm"] - row["closed_form"]) <= 1e-10 * row["closed_form"]
    assert abs(row["norm"] - diagonal["results"][0]["norm"]) <= 1e-10 * row["norm"]


def test_diagonal_schatten_admits_q_near_one(capsys):
    # the Gram block of degree 2 has eigenvalue 1 - q, under the 1e-12 floor
    argv = ["schatten", "--d", "2", "--p", "2", "--q", "0.9999999999999", "--max-degree", "2"]
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["verified"]
    assert main(argv + ["--route", "vector"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "floor" in captured.err


def test_schatten_sums_past_the_float_range_of_d_to_the_n(capsys, monkeypatch):
    # 2**1100 is no float; the sum converges, its term ratio being 0.5
    monkeypatch.setenv("QFOCK_MAX_DIM", str(10 ** 400))
    argv = ["schatten", "--d", "2", "--p", "2", "--max-degree", "1100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run_json(capsys, *argv)
        assert code == 0 and doc["verified"]
        row = doc["results"][0]
        assert abs(row["norm"] - math.sqrt(2.0)) <= 1e-10
        assert abs(row["norm"] - row["closed_form"]) <= 1e-10
        code, doc = run_json(capsys, *argv, "--hk", "1e308")
    assert code == 1
    check_envelope(doc)
    assert doc["results"][0]["norm"] is None


def test_phi_check(capsys):
    code, doc = run_json(capsys, "phi-check", "--d", "2", "--q", "0.5")
    assert code == 0
    check_envelope(doc)
    assert doc["results"][0]["deviation"] < 1e-10


def test_phi_check_overflow_is_not_verified(capsys):
    # <h, k> overflows to inf and the deviation to NaN, which must not read
    # as 0; numpy's floating-point warnings stay off stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run_json(capsys, "phi-check", "--d", "2", "--max-degree", "3", "--h", "1e308,1e308")
    assert code == 1
    check_envelope(doc)
    assert not doc["verified"]
    assert doc["results"][0]["deviation"] is None


@pytest.mark.parametrize("max_degree", ["0", "1"])
def test_phi_check_below_degree_two_checks_nothing(capsys, max_degree):
    code, doc = run_json(capsys, "phi-check", "--d", "2", "--max-degree", max_degree)
    assert code == 0
    check_envelope(doc)
    assert doc["results"][0]["deviation"] == 0.0


def test_decay(capsys):
    code, doc = run_json(capsys, "decay", "--d", "1", "--letters", "1t", "--q", "0.5")
    assert code == 0
    check_envelope(doc)
    assert doc["results"][0]["max_offband"] == 0.0


def test_deform_csv_header(capsys):
    code, out = run(capsys, "deform", "--kcut", "1", "--nmax", "2", "--steps", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,t,left,right,ratio"
    assert len(lines) == 1 + 2 * 3


def test_deform_steps_over_the_cap_are_a_usage_error(capsys, monkeypatch):
    assert bound("MAX_DEFORM_STEPS") >= 9  # the default, used by README and the benchmark
    monkeypatch.setattr(cli, "deformation_scan", _entered)
    for steps in (bound("MAX_DEFORM_STEPS") + 1, 1_000_000_000):
        assert main(["deform", "--kcut", "1", "--steps", str(steps)]) == 2
        assert "cap" in capsys.readouterr().err


def test_deform_grid_point_whose_tail_rounds_to_zero_is_a_usage_error(capsys, monkeypatch):
    # the degree-kcut right side, (1 - exp(-2t))^kcut, about (2t)^kcut, underflows to 0
    monkeypatch.setattr(analysis, "second_quantize", _entered)
    for kcut, nmax, tmin, tmax in (("11", "11", "1e-30", "1e-30"), ("2", "3", "1e-170", "1e-3")):
        assert main(["deform", "--kcut", kcut, "--nmax", nmax, "--tmin", tmin, "--tmax", tmax, "--steps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "tail rounds to 0" in captured.err
    monkeypatch.undo()
    code, out = run(capsys, "deform", "--kcut", "1", "--nmax", "1", "--tmin", "3e-17", "--tmax", "2e-3", "--steps", "3")
    assert code == 0
    assert out.splitlines()[1].startswith("1,3e-17,")


def test_deform_at_a_t_where_exp_rounds_to_one(capsys):
    # e^(-t) is 1.0 at t = 3e-17, but 1 - e^(-2t) and 1 - e^(-nt) are not 0
    argv = ("deform", "--kcut", "1", "--nmax", "2", "--tmin", "3e-17", "--tmax", "3e-17", "--steps", "1")
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["verified"]
    [(n, t, left, right, ratio), _] = doc["results"][0]["rows"]
    assert n == 1 and math.isclose(left, math.sqrt(2 * 3e-17), rel_tol=1e-12, abs_tol=0)


def test_deform_json(capsys):
    code, doc = run_json(capsys, "deform", "--kcut", "1", "--nmax", "2", "--steps", "3")
    assert code == 0
    check_envelope(doc)
    assert doc["results"][0]["crosscheck_dev"] < 1e-10


def test_deform_runs_at_the_largest_admitted_degree(capsys):
    # QFOCK_MAX_DIM admits the doubled one-letter space to degree 11 (4,095
    # words) and refuses 12; the cross-check's norms at degree 11 go through
    # one 2,048-wide Gram block, not word pair by word pair
    code, doc = run_json(capsys, "deform", "--d", "1", "--kcut", "1", "--nmax", "11", "--steps", "9")
    assert code == 0 and doc["verified"]
    assert doc["results"][0]["crosscheck_dev"] < 1e-12
    assert len(doc["results"][0]["rows"]) == 11 * 9
    assert main(["deform", "--d", "1", "--kcut", "1", "--nmax", "12"]) == 2
    assert capsys.readouterr().out == ""


def test_tail(capsys):
    code, doc = run_json(capsys, "tail", "--d", "1", "--letters", "1", "--t", "0.5", "--top", "0")
    assert code == 0
    import math

    assert doc["results"][0]["tail"] == pytest.approx(math.exp(-0.5))


def test_render_text_matches_golden(capsys, tmp_path):
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "nested_pairs_split.txt"
    code, out = run(capsys, "render", "--n", "8", "--k", "4", "--pairs", "1:6,2:5")
    assert code == 0
    assert out == golden.read_text()


def test_render_svg_to_file(capsys, tmp_path):
    target = tmp_path / "diagram.svg"
    code = main(
        ["render", "--n", "6", "--pairs", "1:4,2:6", "--format", "svg", "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    ET.fromstring(target.read_text())


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        code = main(["moment", "--d", "1", "--letters", "1,1", "--out", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["text", "svg", "json"])
def test_render_refuses_an_empty_ground_set(capsys, fmt):
    assert main(["render", "--n", "0", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_render_json_statistics(capsys):
    code, doc = run_json(capsys, "render", "--n", "8", "--k", "4", "--pairs", "1:6,2:5")
    assert code == 0
    assert doc["results"][0]["iota"] == 4
    assert doc["results"][0]["iota_prime"] == 6


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["moment", "--d", "1", "--letters", "1,1", "--frob"]) == 2
    assert main(["moment", "--d", "2", "--letters", "5"]) == 2
    assert main(["moment", "--d", "1", "--letters", "1,1", "--q", "1.5"]) == 2
    # --max-degree 0 is honoured, as --max-degree 1 is for a word of degree 2
    capsys.readouterr()
    assert main(["wick", "--d", "1", "--letters", "1", "--max-degree", "0"]) == 2
    assert main(["split", "--d", "1", "--letters", "1,1", "--k", "1", "--max-degree", "0"]) == 2
    assert main(["tail", "--letters", "1", "--t", "1", "--top", "0", "--max-degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("above max degree 0") == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qfock.cli", "moment", "--d", "1", "--letters", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


# ---------------------------------------------------------------------------
# the JSON envelope is exactly json.dumps(payload, indent=2) with non-finite
# float values as null, the oracle here


def nulled(obj):
    """The payload json.dumps should see: NaN and infinite values as None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: nulled(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [nulled(value) for value in obj]
    return obj


def _no_constants(name):
    raise AssertionError(f"{name} is not JSON")

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(), st.characters()
)
JSON_KEYS = st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.booleans(), st.none())
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, kids, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=150, deadline=None)
@given(JSON_TREES)
def test_emit_is_json_dumps_with_indent_two(tree):
    args = argparse.Namespace(command="any", format="json")
    assert cli.emit(args, tree) == json.dumps(nulled(tree), indent=2) + "\n"


def test_emit_writes_specials_and_empties_as_json_does():
    tree = {
        1: [float("nan"), float("inf"), -float("inf"), -0.0],
        2.5: ("é", "☃\n", ()),
        None: {True: {}, False: []},
        "x": [[], {}, [[1, 2], {"k": (3,)}]],
    }
    args = argparse.Namespace(command="any", format="json")
    assert cli.emit(args, tree) == json.dumps(nulled(tree), indent=2) + "\n"


def test_emit_writes_non_finite_keys_as_json_does():
    # a flat dict goes to the C encoder in one call, a nested one key by key
    for tree in ({float("inf"): None}, {float("nan"): 1, -float("inf"): float("inf")},
                 {float("inf"): [float("nan")], 1: {-float("inf"): 2.5}}):
        args = argparse.Namespace(command="any", format="json")
        assert cli.emit(args, tree) == json.dumps(nulled(tree), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["phi-check", "--d", "2", "--max-degree", "3", "--h", "1e308,1e308"],
    ["schatten", "--d", "2", "--p", "2", "--hk", "1e308"],
    ["schatten", "--route", "vector", "--d", "1", "--max-degree", "5", "--q", "0.8", "--p", "1", "--hk", "1e308"],
])
def test_overflowing_envelopes_are_strict_json(capsys, argv):
    # both keep numpy's floating-point warnings to themselves
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    check_envelope(doc)
    assert None in doc["results"][0].values()


ENVELOPE_ARGV = [
    ["gram", "--d", "3", "--degree", "5", "--max-degree", "5", "--q", "0.5"],
    ["gram", "--d", "3", "--degree", "5", "--max-degree", "5", "--q", "generic"],
    ["moment", "--d", "2", "--letters", "1,2,2,1"],
    ["wick", "--d", "2", "--letters", "1,2t", "--on", "2,1"],
    ["split", "--d", "2", "--letters", "1,2,2,1", "--k", "2", "--q", "0.5"],
    ["clt", "--d", "1", "--letters", "1,1,1,1", "--N", "2"],
    ["clt", "--d", "2", "--N", "2", "--left", "1,2", "--right", "1,2"],
    ["verify-iota", "--nmax", "4"],
    ["verify-ie", "--nmax", "3", "--split-nmax", "3"],
    ["verify-claim", "--nmax", "4", "--mmax", "2", "--reading", "prime-prime"],
    ["schatten", "--d", "2", "--p", "2"],
    ["phi-check", "--d", "2", "--max-degree", "3", "--h", "0.6,0.8"],
    ["decay", "--d", "1", "--letters", "1t", "--max-degree", "4"],
    ["deform", "--kcut", "1", "--nmax", "2", "--steps", "2"],
    ["tail", "--d", "1", "--letters", "1,1", "--t", "0.5", "--top", "1"],
    ["render", "--n", "8", "--k", "4", "--pairs", "1:6,2:5"],
]


# runs whose envelope carries violations
FAILING_ARGV = [
    ["verify-iota", "--nmax", "5", "--inject-fault", "--seed", "7"],
    ["verify-ie", "--nmax", "4", "--split-nmax", "4", "--inject-fault", "--seed", "7"],
    ["verify-claim", "--nmax", "6", "--mmax", "2", "--inject-fault", "--seed", "7"],
    ["schatten", "--d", "2", "--p", "2", "--hk", "1e308"],
    ["phi-check", "--d", "2", "--h", "1e200,1e200"],
]


@pytest.mark.parametrize(
    "argv", ENVELOPE_ARGV + FAILING_ARGV, ids=lambda argv: " ".join(argv[:1] + argv[-1:])
)
def test_json_stdout_is_the_oracle_text_of_its_payload(capsys, monkeypatch, argv):
    # main emits once, and exits 1 exactly when the envelope has violations
    payloads = []

    def recording_emit(args, payload, text=None):
        payloads.append(payload)
        return emit(args, payload, text)

    emit = cli.emit
    monkeypatch.setattr(cli, "emit", recording_emit)
    code = main(argv + ["--format", "json"])
    assert len(payloads) == 1
    assert capsys.readouterr().out == json.dumps(nulled(payloads[0]), indent=2) + "\n"
    assert code == (1 if payloads[0]["violations"] else 0)
    assert argv not in FAILING_ARGV or code == 1


@pytest.mark.parametrize("q", ["abc", "1.5"])
@pytest.mark.parametrize("argv", ENVELOPE_ARGV, ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
def test_bad_q_is_a_usage_error_on_every_subcommand(capsys, argv, q):
    # main parses --q for every subcommand, also where its value is unused
    assert main(argv + ["--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _format_choices() -> dict:
    """Each subcommand's ``--format`` choices, read from the parser."""
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: next(a for a in sub._actions if a.dest == "format").choices
        for name, sub in subparsers.choices.items()
    }


FORMAT_ARGV = [
    argv + ["--format", fmt] for argv in ENVELOPE_ARGV for fmt in _format_choices()[argv[0]]
]


def test_format_argv_cover_every_subcommand():
    assert {argv[0] for argv in ENVELOPE_ARGV} == set(_format_choices())


@pytest.mark.parametrize("argv", FORMAT_ARGV, ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
def test_every_offered_format_writes_output(capsys, argv):
    # every format a subcommand offers has text to write, so emit never
    # meets a format it cannot serve
    assert main(argv) in (0, 1)
    assert capsys.readouterr().out.strip()


SESSION_ARGV = [
    ["moment", "--d", "1", "--letters", "1,1,1,1"],
    ["gram", "--d", "2", "--degree", "2", "--max-degree", "3", "--format", "text"],
    ["moment", "--d", "1", "--letters", "1,1", "--frob"],
    ["render", "--n", "6", "--pairs", "1:4,2:6", "--format", "svg"],
    ["gram", "--d", "2", "--degree", "2", "--max-degree", "3", "--q", "0.5"],
    ["verify-iota", "--nmax", "4", "--inject-fault", "--seed", "3"],
    ["moment", "--d", "1", "--letters", "1,1,1,1", "--format", "json", "--q", "0.5"],
    ["render", "--n", "6", "--pairs", "1:4,2:6"],
    ["verify-iota", "--nmax", "4", "--format", "text"],
    ["deform", "--kcut", "1", "--nmax", "2", "--steps", "3"],
    ["clt", "--d", "1", "--N", "2"],
]


def test_repeated_main_calls_match_fresh_parsers():
    def session(fresh: bool) -> list:
        seen = []
        for argv in SESSION_ARGV:
            if fresh:
                cli.build_parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            seen.append((code, out.getvalue(), err.getvalue()))
        return seen

    fresh = session(fresh=True)
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 2]
    assert session(fresh=False) == fresh
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# main parses a named subcommand with that subcommand's parser alone; every
# argv must behave as it does on the full tree


def _outcome(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _first_argv(command: str) -> list:
    return next(argv for argv in ENVELOPE_ARGV if argv[0] == command)


def _parser_probes(command: str) -> list:
    valid = _first_argv(command)
    return [
        [command, "--help"],
        # every required argument missing; the verify scans have none, so a missing value
        [command, "--nmax"] if command.startswith("verify-") else [command],
        [command, "--format", "xml"],
        valid + ["--format", "xml"],
        valid + ["--bogus"],
        valid + ["stray"],
        valid + ["--bogus", "1", "stray"],
        [command, "--for", "xml"],  # an abbreviation of --format
        valid + ["--form"],
    ]


COMMANDS = sorted(cli._SUBCOMMANDS)
PARSER_ARGV = [argv for command in COMMANDS for argv in _parser_probes(command)] + [
    ["--help"],
    ["-h"],
    [],
    ["nope"],
    ["nope", "--d", "1"],
    ["--q", "0.5", "gram"],
    ["gram", "--deg", "x", "--d", "2", "--max-degree", "2"],
    ["gram", "--de", "2", "--d", "2", "--max-degree", "2", "--format", "text"],
    ["verify-ie", "--s", "1"],  # ambiguous: --split-nmax or --seed
]


def test_parser_probes_cover_every_subcommand():
    assert COMMANDS == sorted(_format_choices()) and len(COMMANDS) == 14
    assert {argv[0] for argv in PARSER_ARGV if argv} >= set(COMMANDS)


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
def test_the_per_command_parser_behaves_as_the_full_tree(monkeypatch, argv):
    got = _outcome(argv)
    full = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full)
    assert got == _outcome(argv)
    assert got[0] == 0 or got[1] == ""


@pytest.mark.parametrize("command", COMMANDS)
def test_the_per_command_parser_gives_the_full_tree_namespace(command):
    argv = _first_argv(command)
    args = vars(cli.build_parser(command).parse_args(argv))
    assert list(args) == list(vars(cli.build_parser().parse_args(argv)))
    assert args == vars(cli.build_parser().parse_args(argv))
    assert next(iter(args)) == "command"  # the envelope writes config in this order
    parser = cli.build_parser(command)
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == [command]


def test_main_builds_the_full_tree_only_when_it_must(monkeypatch):
    built = []
    real = cli.build_parser

    def recording(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "build_parser", recording)
    # the full tree is always asked for as build_parser(), never with None,
    # so it takes one memo key, not two
    for argv, expected in [
        (["render", "--n", "4", "--pairs", "1:3"], [("render",)]),
        (["render", "--n", "4", "--bogus"], [("render",), ()]),
        (["--help"], [()]),
        ([], [()]),
        (["nope"], [()]),
    ]:
        built.clear()
        _outcome(argv)
        assert built == expected


def test_the_parser_memo_holds_every_parser_main_builds():
    cli.build_parser.cache_clear()
    for argv in [[command, "--bogus"] for command in COMMANDS] + [["--help"], [], ["nope"]]:
        _outcome(argv)
    info = cli.build_parser.cache_info()
    assert info.currsize == info.maxsize == len(COMMANDS) + 1
    assert info.misses == info.maxsize  # nothing was built twice or evicted


# ---------------------------------------------------------------------------
# the benchmark's output contract: every command-line stage of
# bench/workloads.py prints what bench/reference records for it, byte for
# byte for the exact stages and number by number for the float ones


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def _bench_references(workload):
    with gzip.open(BENCH / "reference" / f"{workload}.json.gz", "rt") as fh:
        rows = (line.rstrip("\n").split("\t") for line in fh)
        return {(size, key): json.loads(record) for size, key, record in rows}


BENCH_WORKLOADS = _bench_workloads()


def _cli_stages(exact: bool) -> list:
    return [
        pytest.param(workload, size, stage, argv, id=f"{size}-{stage.name}-{i}")
        for workload, stages in BENCH_WORKLOADS.WORKLOADS.items()
        for stage in stages
        if stage.exact is exact
        for size in BENCH_WORKLOADS.SIZES
        for i, argv in enumerate(stage.variants(size))
        if argv[0] != "three-trace"  # the one stage that is not a subcommand
    ]


EXACT_CLI_STAGES = _cli_stages(exact=True)
FLOAT_CLI_STAGES = _cli_stages(exact=False)


@pytest.mark.parametrize("workload, size, stage, argv", EXACT_CLI_STAGES)
def test_exact_benchmark_stages_print_their_reference_bytes(capsys, workload, size, stage, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    reference = _bench_references(workload)[(size, " ".join(argv))]
    assert code == reference["exit"]
    assert stage.cases(json.loads(out)) == reference["cases"]
    assert hashlib.sha256(out.encode()).hexdigest() == reference["sha256"]


def _differs(got, want) -> bool:
    """Whether a float stage's output differs from its reference as the
    benchmark judges it: numbers to a relative 1e-9 (absolute 1e-12 near
    zero), everything else equal."""
    if isinstance(want, dict):
        return not isinstance(got, dict) or set(got) != set(want) or any(_differs(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return not isinstance(got, list) or len(got) != len(want) or any(map(_differs, got, want))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return (
            isinstance(got, bool)
            or not isinstance(got, (int, float))
            or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        )
    return type(got) is not type(want) or got != want


def test_float_comparison_is_the_benchmarks():
    assert not _differs({"a": [1.0, 2e-13, "x"]}, {"a": [1.0 + 1e-10, 0.0, "x"]})
    for got in ({"a": [1.0 + 1e-8, 0.0, "x"]}, {"a": [1.0, 2e-12, "x"]}, {"a": [1.0, 0.0, "y"]},
                {"a": [1.0, 0.0]}, {"a": [True, 0.0, "x"]}, {"b": [1.0, 0.0, "x"]}):
        assert _differs(got, {"a": [1.0, 0.0, "x"]})


@pytest.mark.parametrize("workload, size, stage, argv", FLOAT_CLI_STAGES)
def test_float_benchmark_stages_match_their_reference(capsys, workload, size, stage, argv):
    code = main(list(argv))
    payload = json.loads(capsys.readouterr().out)
    reference = _bench_references(workload)[(size, " ".join(argv))]
    assert code == reference["exit"]
    assert stage.cases(payload) == reference["cases"]
    assert not _differs(payload, reference["payload"])


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--d", "1", "--degree", "65", "--max-degree", "65", "--q", "0.5"],
        ["schatten", "--d", "1", "--max-degree", "70", "--p", "2", "--q", "0.5"],
    ],
)
def test_degrees_past_numpy_dimension_limit_run(capsys, argv):
    # numpy arrays have at most 64 axes; Gram assembly uses none per slot
    code, doc = run_json(capsys, *argv)
    assert code == 0
    check_envelope(doc)
