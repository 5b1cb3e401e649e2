"""Record the reference output of every stage variant of every workload.

    python3 bench/record.py

Writes ``bench/reference/<workload>.json.gz``.  Run it only when an output
is meant to change; the benchmark fails any stage whose output differs
from what was recorded here.  A variant that does not verify (non-zero
exit code or ``"verified": false``) is refused rather than recorded.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

import worker
from workloads import SIZES, WORKLOADS


def record_workload(name: str) -> list:
    """One reference line per size and stage variant (see worker.reference_path)."""
    lines = []
    for size in SIZES:
        for stage in WORKLOADS[name]:
            for argv in stage.variants(size):
                code, out, err = worker.run_stage(argv)
                if code != 0 or not json.loads(out)["verified"]:
                    raise SystemExit(f"refusing to record {' '.join(argv)}: exit {code} {err}")
                record = json.dumps(worker.make_record(stage, code, out), sort_keys=True)
                lines.append(f"{size}\t{worker.argv_key(argv)}\t{record}\n")
    return lines


def main() -> int:
    os.makedirs(worker.REFERENCE_DIR, exist_ok=True)
    for name in sorted(WORKLOADS):
        text = "".join(record_workload(name))
        path = worker.reference_path(name)
        # mtime 0 and no file name in the header keep the bytes reproducible
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", filename="", mtime=0) as fh:
            fh.write(text.encode())
        print(f"{path}: {os.path.getsize(path)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
