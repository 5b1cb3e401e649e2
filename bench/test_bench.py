"""Tests of the benchmark itself: tiny runs of every workload, and the gate.

    python3 -m pytest bench/test_bench.py

These run the benchmark on its ``tiny`` stage sizes, so they take seconds;
they are not part of the package's test suite.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

from tracer import PER_LAYER_UNITS
from worker import first_difference
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
END_TO_END = {"run_s", "cases_per_s", "setup_s", "peak_rss_mb"}


def run_bench(*args: str, root: str = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--seconds", "0", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines()], proc.stderr


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct(workload):
    code, lines, err = run_bench("--workload", workload, "--seed", "7", "--size", "tiny")
    result = lines[-1]
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[workload])
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    code, lines, err = run_bench("--workload", "exact-wick", "--size", "tiny", "--trace", "1")
    result = lines[-1]
    assert code == 0, err
    assert set(result["metrics"]) == set(PER_LAYER_UNITS) | {"trace.overhead"}
    assert result["metrics"]["scalars.ring_ops"]["value"] > 0
    assert result["metrics"]["combinatorics.partitions_yielded"]["value"] > 0


def _copy_bench(root) -> None:
    """A checkout at ``root`` with a copy of the benchmark and the real sources."""
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root / "BENCHMARK.json")


def _corrupt(path: str, command: str, mutate) -> None:
    with gzip.open(path, "rt") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh]
    with gzip.open(path, "wt") as fh:
        for size, key, text in lines:
            record = json.loads(text)
            if size == "tiny" and key.startswith(command + " "):
                mutate(record)
            fh.write(f"{size}\t{key}\t{json.dumps(record)}\n")


def _shift_gram_entry(record: dict) -> None:
    record["payload"]["results"][0]["matrix"][0][0] *= 1 + 1e-6


@pytest.mark.parametrize(
    "workload, command, mutate",
    [
        ("exact-scan", "verify-iota", lambda record: record.update(sha256="0" * 64)),
        ("exact-wick", "three-trace", lambda record: record.update(cases=record["cases"] + 1)),
        ("float-gram", "gram", _shift_gram_entry),
    ],
)
def test_wrong_reference_fails_the_run(tmp_path, workload, command, mutate):
    _copy_bench(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    _corrupt(str(tmp_path / "bench" / "reference" / f"{workload}.json.gz"), command, mutate)
    code, lines, _ = run_bench("--workload", workload, "--size", "tiny", root=str(tmp_path))
    result = lines[-1]
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert lines[-2]["summary"]["fail_ratio"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    _copy_bench(tmp_path)
    code, lines, err = run_bench("--workload", "exact-scan", "--size", "tiny", root=str(tmp_path))
    assert code != 0
    assert lines == []
    assert "qfock" in err


@pytest.mark.parametrize(
    "got, want, same",
    [
        (1.0 + 1e-11, 1.0, True),
        (1.0 + 1e-8, 1.0, False),
        (3e-16, 0.0, True),
        (True, 1, False),
        ("2 + q", "2 + q", True),
        ([1.0, 2.0], [1.0], False),
        ({"a": 1.0}, {"b": 1.0}, False),
    ],
)
def test_float_comparison(got, want, same):
    assert (first_difference(got, want) is None) == same
