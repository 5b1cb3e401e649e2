"""One benchmark iteration: run every stage of a workload once, in this process.

``run.py`` starts this script in a fresh interpreter for every iteration,
so the memo caches inside qfock start cold each time without the benchmark
touching them.  The process imports qfock from ``src/`` of the checkout it
sits in, picks the stage inputs from the seed, and stamps the monotonic
clock: everything before the stamp is set-up.  It then reads the
references of the picked inputs only, runs the stages and checks each
output against its reference, timing each stage with its check, and prints
one JSON report as its last line.  A calibration kernel is timed right
after the stamp and after every stage, so ``run.py`` can tell how fast the
host was running next to each measured interval.

With ``--spans-out`` the run is traced (see ``tracer.py``): the report then
carries the per-layer metrics and the spans go to that file.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import itertools
import json
import math
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
REFERENCE_DIR = os.path.join(BENCH, "reference")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import qfock  # noqa: E402
import qfock.cli  # noqa: E402

from workloads import SIZES, WORKLOADS, plan  # noqa: E402

CALIBRATION_STEPS = 40_000
REL_TOL = 1e-9
# Noise-level outputs (roundoff deviations near 1e-16) are compared on this
# absolute floor instead; every other number in the float outputs is O(1).
ABS_TOL = 1e-12


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work: tuples, a dict, ints."""
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_STEPS):
        key = (i & 63, (i >> 6) & 63)
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start


def cli_stage(argv: tuple) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qfock.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def three_trace(argv: tuple) -> tuple:
    """Vacuum trace of W(xi) W(eta) W(theta) two ways, for every word triple.

    Words are nonempty, over ``--d`` letters, with total length at most
    ``--total``.  The direct route applies the Wick product twice; the
    formula route is ``three_wick_trace``.  Every trace is printed so the
    values themselves are checked against the reference too.
    """
    opts = dict(zip(argv[1::2], argv[2::2]))
    total, d = int(opts["--total"]), int(opts["--d"])
    cfg = qfock.SpaceConfig(d, 1, total, qfock.EXACT)
    words = {m: list(itertools.product(range(d), repeat=m)) for m in range(1, total - 1)}
    traces, mismatches = {}, []
    for l, m in itertools.product(range(1, total - 1), repeat=2):
        for n in range(1, total - l - m + 1):
            for wt, we, wx in itertools.product(words[l], words[m], words[n]):
                xi, eta, theta = (qfock.FockVector.from_word(cfg, w) for w in (wx, we, wt))
                direct = qfock.wick_apply(xi, qfock.wick_apply(eta, theta))
                formula = qfock.three_wick_trace(xi, eta, theta)
                key = "|".join("".join(str(c + 1) for c in w) for w in (wx, we, wt))
                if not (direct.coeffs.get((), qfock.EXACT.zero()) - formula).is_zero():
                    mismatches.append(key)
                traces[key] = str(formula)
    payload = {
        "command": "three-trace",
        "cases": len(traces),
        "verified": not mismatches,
        "mismatches": mismatches,
        "traces": traces,
    }
    return (0 if not mismatches else 1), json.dumps(payload) + "\n", ""


def run_stage(argv: tuple, tracer=None, stage: str = "") -> tuple:
    """(exit code, stdout, stderr) of one stage."""
    fn, layer = (three_trace, "bench") if argv[0] == "three-trace" else (cli_stage, "cli")
    if tracer is None:
        return fn(argv)
    return tracer.run_stage(stage, layer, fn, argv)


def argv_key(argv: tuple) -> str:
    return " ".join(argv)


def reference_path(workload: str) -> str:
    """Gzipped text, one line per input: size, argv key and record, tab-separated."""
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_references(workload: str, size: str, keys) -> dict:
    """argv key -> record as JSON text, for the given keys only.

    The other variants' lines are dropped as they are read, and a record is
    parsed only when its stage is checked, so the references add next to
    nothing to the measured process's peak memory.
    """
    wanted, references = set(keys), {}
    with gzip.open(reference_path(workload), "rt") as fh:
        for line in fh:
            line_size, key, record = line.rstrip("\n").split("\t")
            if line_size == size and key in wanted:
                references[key] = record
    return references


def make_record(stage, code: int, text: str) -> dict:
    """What a reference keeps of one stage output."""
    payload = json.loads(text)
    record = {"exit": code, "cases": stage.cases(payload)}
    if stage.exact:
        record["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    else:
        record["payload"] = payload
    return record


def first_difference(got, want):
    """Path of the first place two parsed outputs differ, or None.

    Numbers match to a relative REL_TOL (absolute ABS_TOL near zero);
    everything else must be equal.
    """
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return None if got == want and type(got) is type(want) else "$"
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return "$"
        return None if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL) else "$"
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return "$"
        for i, (g, w) in enumerate(zip(got, want)):
            where = first_difference(g, w)
            if where:
                return f"[{i}]" + where.lstrip("$")
        return None
    if not isinstance(got, dict) or set(got) != set(want):
        return "$"
    for key in want:
        where = first_difference(got[key], want[key])
        if where:
            return f".{key}" + where.lstrip("$")
    return None


def check(stage, code: int, text: str, reference_text) -> tuple:
    """(verified cases, error or None) of one stage output."""
    if reference_text is None:
        return 0, "no reference recorded for this input"
    reference = json.loads(reference_text)
    got = make_record(stage, code, text)
    if got["exit"] != reference["exit"]:
        return 0, f"exit code {got['exit']}, reference {reference['exit']}"
    if got["cases"] != reference["cases"]:
        return 0, f"{got['cases']} cases, reference {reference['cases']}"
    if stage.exact and got["sha256"] != reference["sha256"]:
        return 0, "stdout differs from the reference"
    if not stage.exact:
        where = first_difference(got["payload"], reference["payload"])
        if where:
            return 0, f"output differs from the reference at {where}"
    return got["cases"], None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--warmup", action="store_true", help="import, then exit")
    args = parser.parse_args(argv)
    if os.path.dirname(os.path.abspath(qfock.__file__)) != os.path.join(SRC, "qfock"):
        print(f"error: qfock imported from {qfock.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.warmup:
        return 0
    steps = plan(args.workload, args.size, args.seed)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    calibration = [calibrate()]

    references = load_references(args.workload, args.size, (argv_key(a) for _, a in steps))
    tracer = None
    if args.spans_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    for stage, stage_argv in steps:
        began = time.perf_counter()
        try:
            code, out, err = run_stage(stage_argv, tracer, stage.name)
            cases, error = check(stage, code, out, references.get(argv_key(stage_argv)))
            if error and err:
                error += f"; stderr: {err.strip()[-300:]}"
        except Exception as exc:  # a crashing stage is a failed stage, not a crashed run
            cases, error, out = 0, f"{type(exc).__name__}: {exc}", ""
        results.append(
            {
                "stage": stage.name,
                "argv": list(stage_argv),
                "cases": cases,
                "scan": stage.scan,
                "error": error,
                "output_bytes": len(out),  # JSON output is ASCII
                "seconds": time.perf_counter() - began,
            }
        )
        calibration.append(calibrate())

    report = {
        "ready_ns": ready_ns,
        "run_s": sum(r["seconds"] for r in results),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calibration_s": calibration,
        "stages": results,
        "env": environment(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        report["layers"] = layer_metrics(tracer, results)
        with open(args.spans_out, "w") as fh:
            json.dump(tracer.span_records(), fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
