"""Stage tables of the three benchmark workloads.

A stage is one call into qfock: a CLI subcommand run in-process through
``qfock.cli.main``, or the three-factor trace cross-check, which has no
subcommand and is named ``three-trace`` here.  Each stage lists its input
variants per size.  The seed picks one variant per stage; every variant of
a stage does the same amount of work (the same letter multiset in another
order, or another q, h, k on the same space), so the seed changes the
inputs but not the cost.  Stages with a single variant ignore the seed:
an exhaustive scan has no input left to choose, a word of equal letters
has only one arrangement, the exact Gram block has no input but its size,
and the other arrangements of the off-diagonal CLT words cost a different
number of ring operations.  Seed 0 picks the first variant of every stage.

The ``full`` size is what the benchmark measures; ``tiny`` exists so the
benchmark's own tests can run every stage and check it in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

SIZES = ("full", "tiny")


def _scan_cases(payload: dict) -> int:
    return sum(r["cases"] for r in payload["results"])


def _records(payload: dict) -> int:
    return len(payload["results"])


def _field_len(key: str) -> Callable[[dict], int]:
    return lambda payload: len(payload["results"][0][key])


@dataclass(frozen=True)
class Stage:
    """One stage: its name, how its output is checked, and its variants.

    ``exact`` stages are compared byte for byte with the reference; the
    others are compared number by number to a relative 1e-9, so a faster
    route that reorders float sums still passes.  ``cases`` counts the
    verified cases in a parsed output: scan cases, cross-check
    comparisons, or computed blocks.
    """

    name: str
    exact: bool
    cases: Callable[[dict], int]
    full: tuple
    tiny: tuple
    scan: bool = False

    def variants(self, size: str) -> tuple:
        return self.full if size == "full" else self.tiny

    def pick(self, size: str, seed: int) -> tuple:
        options = self.variants(size)
        if seed == 0:
            return options[0]
        return options[random.Random(f"{self.name}:{seed}").randrange(len(options))]


def _json(*argv: str) -> tuple:
    return argv + ("--format", "json")


# Arrangements of six 1s and six 2s, the alternating word first.  The
# moment's pair-partition sum stops multiplying a term at its first pair of
# unequal letters, so the work depends on the arrangement; these all cost
# the same 19,959 ring operations.
_MIXED_12 = (
    "1,2,1,2,1,2,1,2,1,2,1,2",
    "2,1,2,1,2,1,2,1,2,1,2,1",
    "1,2,2,1,1,2,2,1,1,2,2,1",
    "2,1,1,2,2,1,1,2,2,1,1,2",
    "1,2,1,2,2,1,1,2,2,1,1,2",
    "2,1,2,1,1,2,2,1,2,1,1,2",
    "1,2,2,1,2,1,1,2,1,2,2,1",
    "1,2,1,2,1,2,2,2,2,1,1,1",
)
_MIXED_4 = ("1,2,1,2", "1,1,2,2", "2,1,1,2")

_FLOAT_Q = ("0.5", "0.3", "-0.4", "0.7")
_SCHATTEN_Q_HK = (("0.8", "1.0"), ("0.7", "0.5"), ("0.6", "-1.5"), ("0.75", "2.0"))
_DECAY_Q = ("0.5", "0.4", "0.6", "-0.3")
_DEFORM_Q = ("0.5", "0.3", "0.7", "-0.5")
# Creation and annihilation skip zero weights, so h and k keep both
# entries nonzero (and <h, k> nonzero) in every variant.
_PHI_Q_H_K = (
    ("0.5", "0.6,0.8", "0.6,0.8"),
    ("0.3", "0.8,0.6", "0.6,0.8"),
    ("-0.4", "0.6,-0.8", "0.8,-0.6"),
    ("0.7", "0.8,0.6", "0.8,0.6"),
)


WORKLOADS = {
    # Headline exhaustive verifiers: identities, partial-partition
    # enumeration and the scalar ring; no numpy and no Gram assembly.
    "exact-scan": (
        Stage(
            "verify-iota", True, _scan_cases, scan=True,
            full=(_json("verify-iota", "--nmax", "10"),),
            tiny=(_json("verify-iota", "--nmax", "5"),),
        ),
        Stage(
            "verify-claim", True, _scan_cases, scan=True,
            full=(_json("verify-claim", "--nmax", "9", "--mmax", "3"),),
            tiny=(_json("verify-claim", "--nmax", "5", "--mmax", "2"),),
        ),
        Stage(
            "verify-ie", True, _scan_cases, scan=True,
            full=(_json("verify-ie", "--nmax", "5", "--split-nmax", "6"),),
            tiny=(_json("verify-ie", "--nmax", "3", "--split-nmax", "4"),),
        ),
    ),
    # Wick kernel, pair-partition and colouring enumeration, plus the exact
    # Gram block on the same fock route that float-gram uses in float mode.
    "exact-wick": (
        Stage(
            "three-trace", True, lambda payload: payload["cases"],
            full=(("three-trace", "--total", "7", "--d", "2"),),
            tiny=(("three-trace", "--total", "4", "--d", "2"),),
        ),
        Stage(
            "moment-equal", True, _records,
            full=(_json("moment", "--d", "1", "--letters", ",".join("1" * 12)),),
            tiny=(_json("moment", "--d", "1", "--letters", ",".join("1" * 4)),),
        ),
        Stage(
            "moment-mixed", True, _records,
            full=tuple(_json("moment", "--d", "2", "--letters", w) for w in _MIXED_12),
            tiny=tuple(_json("moment", "--d", "2", "--letters", w) for w in _MIXED_4),
        ),
        Stage(
            "clt-equal", True, _records,
            full=(_json("clt", "--N", "2", "--letters", ",".join("1" * 8)),),
            tiny=(_json("clt", "--N", "2", "--letters", ",".join("1" * 4)),),
        ),
        Stage(
            "clt-offdiag", True, _records,
            full=(_json("clt", "--d", "2", "--N", "4", "--left", "1,2,1", "--right", "1,2,1"),),
            tiny=(_json("clt", "--d", "2", "--N", "2", "--left", "1,2", "--right", "1,2"),),
        ),
        Stage(
            "gram-exact", True, _records,
            full=(_json("gram", "--d", "3", "--degree", "5", "--max-degree", "5", "--q", "generic"),),
            tiny=(_json("gram", "--d", "2", "--degree", "3", "--max-degree", "3", "--q", "generic"),),
        ),
    ),
    # Float Gram assembly, eigh and SVD; the Wick product in float mode.
    "float-gram": (
        Stage(
            "gram-float", False, _records,
            full=tuple(
                _json("gram", "--d", "3", "--degree", "5", "--max-degree", "5", "--q", q)
                for q in _FLOAT_Q
            ),
            tiny=tuple(
                _json("gram", "--d", "2", "--degree", "3", "--max-degree", "3", "--q", q)
                for q in _FLOAT_Q
            ),
        ),
        Stage(
            "schatten", False, _field_len("partial_norms"),
            full=tuple(
                _json("schatten", "--d", "2", "--q", q, "--max-degree", "7", "--p", "2", "--hk", hk)
                for q, hk in _SCHATTEN_Q_HK
            ),
            tiny=tuple(
                _json("schatten", "--d", "2", "--q", q, "--max-degree", "3", "--p", "2", "--hk", hk)
                for q, hk in _SCHATTEN_Q_HK
            ),
        ),
        Stage(
            "decay", False, _field_len("blocks"),
            full=tuple(
                _json("decay", "--d", "1", "--letters", "1,1", "--max-degree", "6", "--q", q)
                for q in _DECAY_Q
            ),
            tiny=tuple(
                _json("decay", "--d", "1", "--letters", "1,1", "--max-degree", "4", "--q", q)
                for q in _DECAY_Q
            ),
        ),
        Stage(
            "deform", False, _field_len("rows"),
            full=tuple(
                _json("deform", "--kcut", "1", "--nmax", "4", "--d", "2", "--q", q)
                for q in _DEFORM_Q
            ),
            tiny=tuple(
                _json("deform", "--kcut", "1", "--nmax", "2", "--d", "1", "--q", q)
                for q in _DEFORM_Q
            ),
        ),
        Stage(
            "phi-check", False, _records,
            full=tuple(
                _json("phi-check", "--d", "2", "--max-degree", "5", "--q", q, "--h", h, "--k", k)
                for q, h, k in _PHI_Q_H_K
            ),
            tiny=tuple(
                _json("phi-check", "--d", "2", "--max-degree", "3", "--q", q, "--h", h, "--k", k)
                for q, h, k in _PHI_Q_H_K
            ),
        ),
    ),
}


def plan(workload: str, size: str, seed: int) -> list:
    """(stage, argv) for every stage of the workload, inputs picked by the seed."""
    return [(stage, stage.pick(size, seed)) for stage in WORKLOADS[workload]]
