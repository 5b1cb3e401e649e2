"""The refusal policy: one exception type and one table of work bounds.

An input is refused when it cannot be read (a command-line argument or an
environment value) or when a guard counts its work past a row of
``BOUNDS``.  Every refusal is a ``Refused``, raised before the work
starts, and ``cli.main`` turns a ``Refused``, and nothing else, into
exit 2.  ``Refused`` is a ValueError, so a library caller's ``except
ValueError`` still catches it; a plain ValueError left in the package is a
check that only a wrong library call can fire.

Only the policy lives here.  Each guard counts its work beside the code it
prices (``fock._gram_bytes``, ``wick._wick_work``, ...) and hands the count
to ``check`` with the name of its row.  Rows are read at call time, so a
test may patch one.  A row named like an environment variable (QFOCK_*)
holds the default of that setting.  This module imports nothing from the
package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


class Refused(ValueError):
    """An input declined before any work; exit 2 on the command line."""


@dataclass(frozen=True)
class Bound:
    """A row: the most ``unit``s a guard admits, and why."""

    value: int
    unit: str
    reason: str


BOUNDS = {
    "SCAN_BUDGET": Bound(50_000, "cases", "the case budget of one verify scan, counted by arithmetic"),
    "MAX_SPLIT_PARTITIONS": Bound(
        50_000, "straddling partitions", "a split's walk, or a two-mode scan's tables under the scan budget"
    ),
    "EXACT_GRAM_BUDGET": Bound(2 ** 28, "bytes", "the memory budget of exact Gram assembly at its peak"),
    "EXACT_GRAM_WORK": Bound(2 ** 28, "coefficient additions", "exact Gram assembly up to the degree"),
    "MAX_GRAM_ENTRIES": Bound(2 ** 20, "entries", "the cap on what gram prints, 74 MB of JSON at 2^20"),
    "FLOAT_GRAM_TAKES": Bound(2 ** 15, "slot passes", "float gram; one letter reaches degree 255"),
    "SCHATTEN_TAKES": Bound(2 ** 16, "slot passes", "schatten's degrees 0..D; one letter reaches 72"),
    "QFOCK_MAX_DIM": Bound(5000, "basis words", "a truncated space; the environment can set another cap"),
    "MAX_WICK_LETTERS": Bound(300, "letters", "the Wick kernel recurses two frames a letter"),
    "MAX_WICK_WORK": Bound(300_000_000, "coefficient updates", "one Wick kernel call"),
    "MAX_MATCHINGS": Bound(2_100_000, "matchings", "a moment word this small is walked whatever its work"),
    "MAX_MOMENT_WORK": Bound(2_000_000, "histogram updates", "the cap on the moment walk of a larger word"),
    "MAX_CLT_PARTITIONS": Bound(2_000_000, "set partitions and rows", "clt's color sums and its rows"),
    "MAX_DEFORM_STEPS": Bound(10_000, "grid points", "the cap on deform's grid"),
    "MAX_RENDER_CELLS": Bound(2 ** 22, "cells", "render's ASCII grid, 4n columns by pairs + 2 rows"),
}


def bound(name: str) -> int:
    """The value of a row at this call, or of its environment variable when
    the row is a QFOCK_* setting and the variable is set."""
    text = os.environ.get(name) if name.startswith("QFOCK_") else None
    if text is None:
        return BOUNDS[name].value
    try:
        return int(text)
    except ValueError:
        raise Refused(f"{name} must be an integer, got {text!r}") from None


def check(name: str, need: int, what: str) -> None:
    """Refuse ``need`` units of work over the named bound; ``what`` reads
    as the start of a sentence that ends with the count."""
    if need > bound(name):
        refuse(name, need, what)


def refuse(name: str, need: int, what: str):
    """Raise the ``Refused`` of ``need`` units past the named bound; for a
    guard that compares with ``BOUNDS`` itself, on a hot path."""
    row = BOUNDS[name]
    past = f"past the work bound {name} = {bound(name)}"
    raise Refused(f"{what} {need} {row.unit}: too many, {past} ({row.reason})")
