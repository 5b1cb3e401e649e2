import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from qfock.cli import main, parse_letters, parse_pairs, parse_q, word_str
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
    assert parse_letters("1,2t", 2) == ((0, 3), 2)
    assert parse_letters("1,1,1,1", 1) == ((0, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        parse_letters("3", 2)
    assert parse_pairs("1:6,2:5") == ((1, 6), (2, 5))
    assert parse_q("generic") is EXACT
    assert parse_q("0.5").q == 0.5
    assert word_str((0, 3), 2) == "1,2t"


def test_moment_prints_exact_polynomial(capsys):
    code, out = run(capsys, "moment", "--d", "1", "--q", "generic", "--letters", "1,1,1,1")
    assert code == 0
    assert out == "2 + q\n"


def test_moment_odd_length_is_zero(capsys):
    code, out = run(capsys, "moment", "--d", "1", "--letters", "1,1,1")
    assert code == 0
    assert out == "0\n"


def test_gram_degree_above_truncation(capsys):
    assert main(["gram", "--d", "2", "--degree", "7", "--max-degree", "6"]) == 2


def test_gram_json(capsys):
    code, doc = run_json(capsys, "gram", "--d", "1", "--degree", "2", "--max-degree", "2")
    assert code == 0
    check_envelope(doc)
    assert doc["results"][0]["matrix"] == [["1 + q"]]


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


def test_phi_check(capsys):
    code, doc = run_json(capsys, "phi-check", "--d", "2", "--q", "0.5")
    assert code == 0
    check_envelope(doc)
    assert doc["results"][0]["deviation"] < 1e-10


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


def test_deform_json(capsys):
    code, doc = run_json(capsys, "deform", "--kcut", "1", "--nmax", "2", "--steps", "3")
    assert code == 0
    check_envelope(doc)
    assert doc["results"][0]["crosscheck_dev"] < 1e-10


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qfock.cli", "moment", "--d", "1", "--letters", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
