"""Benchmark entry point: time qfock workloads end to end, with checked outputs.

    python3 bench/run.py --workload exact-scan --seed 0 --seconds 40 --trace 0

One client in a closed loop: each iteration is a fresh interpreter running
``worker.py`` to completion, and the next starts only after it exits.  The
loop runs for ``--seconds`` (and at least MIN_SAMPLES iterations), after
one untimed warm-up process that leaves the bytecode caches written.

``--trace 0`` reports the end-to-end metrics (see ``end_to_end``).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the fastest traced one, plus ``trace.overhead``.
Every stage output is checked in both modes; a mismatch fails the stage,
and any failed stage makes the exit code 1.  The last line of stdout is the
result object; the line before it is a summary with the environment and
the spread of every metric over the iterations, and ``.bench_out/`` keeps
every iteration's report (and the spans of the fastest traced iteration).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER_UNITS
from workloads import SIZES, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MIN_SAMPLES = 3
# One BLAS thread: the largest matrix is 243 x 243, and a second thread
# spinning after each call competes with the interpreter on a 2-core host.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 120
# The calibration kernel's time on an uncontended core of the 2-core Xeon
# host the benchmark was built on; scaled times are seconds on that core.
REFERENCE_CALIBRATION_S = 0.010

END_TO_END_UNITS = {
    "run_s": "s",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    """A worker process that could not run at all (not a failed stage)."""


def _monotonic_ns() -> int:
    # the worker stamps the same system-wide clock, so the difference is set-up time
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def git_commit(root: str):
    """HEAD of the checkout, or None outside a git work tree or without git."""
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    for var in ("QFOCK_MAX_DIM", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    return env


def run_worker(args, env: dict, *extra: str) -> str:
    """Run worker.py once to completion; its stdout."""
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def spawn(args, env: dict, *extra: str) -> dict:
    """One timed iteration: the worker's report, with setup_s added."""
    started = _monotonic_ns()
    report = json.loads(run_worker(args, env, *extra).splitlines()[-1])
    report["setup_s"] = (report["ready_ns"] - started) / 1e9
    return report


def failures(report: dict) -> list:
    return [f"{s['stage']}: {s['error']}" for s in report["stages"] if s["error"]]


def spread(values: list) -> dict:
    ordered = sorted(values)
    q1, q2, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"n": len(ordered), "min": ordered[0], "q1": q1, "median": q2, "q3": q3, "max": ordered[-1]}


def scaled(seconds: float, calibration: float) -> float:
    """An interval rescaled to the reference host speed.

    ``calibration`` is the time the worker's calibration kernel took next
    to the interval.  Other tenants of a shared host slow every piece of
    interpreter work alike for seconds to minutes at a time, so the ratio
    of the two is steady where either time alone is not.
    """
    return seconds * REFERENCE_CALIBRATION_S / calibration


def stage_seconds(report: dict) -> list:
    """Scaled time of each stage: the kernel ran just before and just after it."""
    cal = report["calibration_s"]
    return [
        scaled(stage["seconds"], (cal[i] + cal[i + 1]) / 2)
        for i, stage in enumerate(report["stages"])
    ]


def run_seconds(reports: list) -> float:
    """Sum over stages of the median scaled stage time."""
    per_stage = zip(*(stage_seconds(r) for r in reports))
    return sum(statistics.median(times) for times in per_stage)


def end_to_end(reports: list) -> tuple:
    """(metrics, per-iteration spread of the raw and scaled figures)."""
    run_s = run_seconds(reports)
    cases = min(sum(s["cases"] for s in r["stages"]) for r in reports)
    setup = [scaled(r["setup_s"], r["calibration_s"][0]) for r in reports]
    rss = [r["peak_rss_kb"] / 1024 for r in reports]
    metrics = {
        "run_s": run_s,
        "cases_per_s": cases / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    spreads = {
        "raw run_s": spread([r["run_s"] for r in reports]),
        "scaled run_s": spread([sum(stage_seconds(r)) for r in reports]),
        "raw setup_s": spread([r["setup_s"] for r in reports]),
        "scaled setup_s": spread(setup),
        "calibration_s": spread([c for r in reports for c in r["calibration_s"]]),
        "peak_rss_mb": spread(rss),
    }
    return (
        {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()},
        spreads,
    )


def per_layer(traced: list, untraced: list) -> tuple:
    """(metrics, spread of traced run_s) from the fastest traced iteration.

    All layer figures come from that one iteration so they add up; the
    counts are the same in every iteration.  Layer times are not scaled.
    """
    fastest = min(traced, key=lambda r: r["run_s"])
    metrics = {
        name: {"value": fastest["layers"][name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
    overhead = run_seconds(traced) / run_seconds(untraced)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics, {"raw traced run_s": spread([r["run_s"] for r in traced])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    # exit through SystemExit so subprocess.run kills and reaps a running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "qfock", "__init__.py")):
        print(f"error: no qfock sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = worker_env()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = os.path.join(out_dir, f"{tag}-spans.json")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "nproc": nproc,
        "blas_threads": BLAS_THREADS,
        "loadavg": os.getloadavg(),
        "commit": git_commit(ROOT),
    }

    untraced, traced = [], []
    try:
        run_worker(args, env, "--warmup")
        deadline = time.monotonic() + args.seconds
        while len(untraced) < MIN_SAMPLES or time.monotonic() < deadline:
            untraced.append(spawn(args, env))
            if args.trace:
                traced.append(spawn(args, env, "--spans-out", f"{spans_out}.{len(traced)}"))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if traced:
        # keep the spans of the iteration the per-layer metrics come from
        fastest = min(range(len(traced)), key=lambda i: traced[i]["run_s"])
        for i in range(len(traced)):
            if i == fastest:
                os.replace(f"{spans_out}.{i}", spans_out)
            else:
                os.remove(f"{spans_out}.{i}")

    reports = untraced + traced
    attempted = sum(len(r["stages"]) for r in reports)
    failed_stages = [f for r in reports for f in failures(r)]
    record["env"] = untraced[0]["env"]
    record["fail_ratio"] = len(failed_stages) / attempted
    record["failures"] = sorted(set(failed_stages))
    metrics, record["spread"] = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    result = {
        "correct": not failed_stages,
        "attempted": attempted,
        "failed": len(failed_stages),
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump({**record, "result": result, "untraced": untraced, "traced": traced}, fh, indent=1)
    print(json.dumps({"summary": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
