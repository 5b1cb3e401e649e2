"""Splitting identities for Wick products, verified exactly in generic q.

A degree-n word split at position n-k can be rebuilt from products
W(left part) W(right part) by inclusion-exclusion over the contractions
between the two parts.  This module materializes both presentations of
the correction maps (subset pairs with coset weights vs straddling pair
partitions with the insertion statistic), compares them term by term, and
scans every identity in the chain exhaustively.  Scans run with polynomial
scalars, so one pass certifies all q in (-1, 1).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from math import comb, factorial

from .combinatorics import (
    PartialPartition,
    crossings,
    enumerate_partial_partitions,
    iota_prime,
    iota_prime_closed_form,
    max_pairs,
)
from .fock import FockVector, SpaceConfig, word_basis, word_inner_poly, word_to_str
from .scalars import EXACT, QPolynomial
from .wick import subset_iota, subset_iota_chosen, wick_apply

# Largest case count the claim, two-mode and inclusion-exclusion scans
# accept; see check_budget.
SCAN_BUDGET = 50_000


@dataclass
class ScanReport:
    """Outcome of an exhaustive identity scan."""

    name: str
    cases: int = 0
    violations: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, ok: bool, label) -> None:
        self.cases += 1
        if not ok:
            self.violations.append(label)

    def summary(self) -> str:
        state = "ok" if self.passed else f"{len(self.violations)} violations"
        return f"{self.name}: {self.cases} cases, {state}"


def _finalize(name: str, results: list, fault, notes=None) -> ScanReport:
    # fault hook: flip one comparison so exit-code wiring can be exercised
    if fault is not None and results:
        idx = fault % len(results)
        ok, label = results[idx]
        results[idx] = (not ok, label)
    report = ScanReport(name=name, notes=dict(notes or {}))
    for ok, label in results:
        report.record(ok, label)
    return report


# cases each scan checks at one ground-set size n
_CASE_COUNTS = {
    "claim": lambda n, m_max: sum(
        comb(n - k, m) * comb(k, m) * factorial(m)
        for k in range(n + 1)
        for m in range(1, min(m_max, n // 2) + 1)
    ) if n >= 2 else 0,
    "two-mode": lambda n, d: d ** n * sum(min(k, n - k) + 1 for k in range(n + 1)),
    "sweep": lambda n, d: (n + 1) * d ** n,
}


def check_budget(scan: str, n_max: int, size: int) -> int:
    """Cases a scan would check, counted by arithmetic; over ``SCAN_BUDGET``
    raises ValueError before any work.

    ``scan`` is "claim" (size = m_max), "two-mode" or "sweep" (size = d).
    The sum over n stops as soon as it passes the budget, so a huge n_max
    costs nothing; a size below 1, which would leave the scan looping over
    empty levels, is refused as well.

    >>> check_budget("claim", 9, 3), check_budget("two-mode", 6, 2), check_budget("sweep", 5, 2)
    (2244, 1621, 321)
    """
    if size < 1:
        raise ValueError(f"{scan} scan needs a size of at least 1, got {size}")
    cases = 0
    for n in range(n_max + 1):
        cases += _CASE_COUNTS[scan](n, size)
        if cases > SCAN_BUDGET:
            raise ValueError(
                f"{scan} scan would check more than {SCAN_BUDGET} cases, over the budget"
            )
    return cases


def merge_reports(name: str, reports) -> ScanReport:
    merged = ScanReport(name=name)
    for rep in reports:
        merged.cases += rep.cases
        merged.violations.extend(rep.violations)
        merged.notes.update(rep.notes)
    return merged


def _label(word: tuple, d: int) -> str:
    """A word as scan reports name it: its text form, "vac" for the vacuum."""
    return word_to_str(word, d) or "vac"


def _homogeneous_degree(v: FockVector) -> int:
    degrees = v.degrees()
    if len(degrees) > 1:
        raise ValueError("homogeneous tensor required")
    return degrees[0] if degrees else 0


@dataclass
class WickPairCombination:
    """Formal sum  sum_i  c_i * W(left_i) W(right_i)  with polynomial weights."""

    terms: list  # (QPolynomial, FockVector, FockVector)

    def scaled(self, p) -> "WickPairCombination":
        return WickPairCombination([(p * c, left, right) for c, left, right in self.terms])

    def apply_to_vacuum(self, cfg: SpaceConfig) -> FockVector:
        """Materialize  sum c * W(left) W(right) Omega  through the Wick action."""
        vacuum = FockVector.vacuum(cfg)
        total = FockVector(cfg, {})
        for coeff, left, right in self.terms:
            v = wick_apply(left, wick_apply(right, vacuum))
            total = total + v.scale(cfg.scalar.of(coeff))
        return total


def w_jnk(xi_left: FockVector, xi_right: FockVector, j: int, mode: str = "subset-sum") -> WickPairCombination:
    """Level-j contraction map between the two halves of a split word.

    mode "subset-sum" pairs every j-subset A of left positions with every
    j-subset B of right positions, weighted q^(iota(A)+iota(B)) times the
    q-inner product of the extracted subwords (complement-first coset order
    on the left, chosen-first on the right).  mode "rho-sum" runs over
    straddling partitions with j pairs, weighted q^iota'(rho) times the
    letter contractions.  The two agree after scaling the subset form by
    q^C(j,2); j=0 gives the bare product map in both modes.
    """
    if j < 0:
        raise ValueError("contraction level must be nonnegative")
    if mode not in ("subset-sum", "rho-sum"):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = xi_left.cfg
    if not cfg.compatible(xi_right.cfg):
        raise ValueError("space mismatch")
    if cfg.scalar.mode != "exact":
        raise ValueError("split identities run with exact scalars")
    _homogeneous_degree(xi_left)
    _homogeneous_degree(xi_right)
    expand = _w_subset_terms if mode == "subset-sum" else _w_rho_terms
    terms = []
    for lw, lc in sorted(xi_left.coeffs.items()):
        for rw, rc in sorted(xi_right.coeffs.items()):
            scale = lc * rc
            for coeff, lrem, rrem in expand(lw, rw, j):
                terms.append(
                    (
                        scale * coeff,
                        FockVector.from_word(cfg, lrem),
                        FockVector.from_word(cfg, rrem),
                    )
                )
    return WickPairCombination(terms)


def _w_subset_terms(lw: tuple, rw: tuple, j: int) -> list:
    nl, nr = len(lw), len(rw)
    out = []
    for a_set in itertools.combinations(range(1, nl + 1), j):
        inside_a = set(a_set)
        sub_l = tuple(lw[p - 1] for p in a_set)
        rem_l = tuple(lw[p - 1] for p in range(1, nl + 1) if p not in inside_a)
        ia = subset_iota(nl, a_set)
        for b_set in itertools.combinations(range(1, nr + 1), j):
            inner = word_inner_poly(sub_l, tuple(rw[p - 1] for p in b_set))
            if inner.is_zero():
                continue
            inside_b = set(b_set)
            rem_r = tuple(rw[p - 1] for p in range(1, nr + 1) if p not in inside_b)
            ib = subset_iota_chosen(nr, b_set)
            out.append((inner.shift(ia + ib), rem_l, rem_r))
    return out


def _w_rho_terms(lw: tuple, rw: tuple, j: int) -> list:
    n = len(lw) + len(rw)
    k = len(rw)
    if j > max_pairs(n, k):
        return []
    word = lw + rw
    out = []
    for rho in enumerate_partial_partitions(n, k, j):
        # orthonormal letters: every contracted pair must match exactly
        if any(word[a - 1] != word[b - 1] for a, b in rho.pairs):
            continue
        paired = {x for p in rho.pairs for x in p}
        rem_l = tuple(word[p - 1] for p in range(1, n - k + 1) if p not in paired)
        rem_r = tuple(word[p - 1] for p in range(n - k + 1, n + 1) if p not in paired)
        out.append((QPolynomial.monomial(iota_prime(rho)), rem_l, rem_r))
    return out


def _gathered(terms: list, shift: int = 0) -> dict:
    """Term list collected by (left rest, right rest), zeros dropped, times q^shift."""
    out: dict = {}
    for coeff, lrem, rrem in terms:
        key = (lrem, rrem)
        out[key] = out[key] + coeff if key in out else coeff
    return {key: p.shift(shift) for key, p in out.items() if not p.is_zero()}


def two_mode_scan(n_max: int = 6, d: int = 2, fault=None) -> ScanReport:
    """q^C(j,2) * subset-sum form == rho-sum form, all splits of all words.

    The two term lists of ``w_jnk`` are compared collected by remainder
    pair, without wrapping the remainders as vectors.
    """
    check_budget("two-mode", n_max, d)
    results = []
    for n in range(n_max + 1):
        cfg = SpaceConfig(d=d, copies=1, max_degree=max(n, 1), scalar=EXACT)
        for k in range(n + 1):
            for word in word_basis(n, cfg.letters):
                lw, rw = word[: n - k], word[n - k :]
                for j in range(max_pairs(n, k) + 1):
                    subset = _gathered(_w_subset_terms(lw, rw, j), comb(j, 2))
                    rho = _gathered(_w_rho_terms(lw, rw, j))
                    results.append((subset == rho, (n, k, j, _label(word, d))))
    return _finalize(f"two-mode split equality (n <= {n_max}, d = {d})", results, fault)


def _inclusion_exclusion_results(n: int, k: int, d: int) -> list:
    if not 0 <= k <= n:
        raise ValueError(f"split size {k} outside 0..{n}")
    cfg = SpaceConfig(d=d, copies=1, max_degree=max(n, 1), scalar=EXACT)
    results = []
    for word in word_basis(n, cfg.letters):
        left = FockVector.from_word(cfg, word[: n - k])
        right = FockVector.from_word(cfg, word[n - k :])
        total = FockVector(cfg, {})
        # empty levels above min(k, n-k) keep the sum honest up to max(k, n-k)
        for j in range(max(k, n - k) + 1):
            combo = w_jnk(left, right, j, "subset-sum").scaled(QPolynomial.monomial(comb(j, 2)))
            piece = combo.apply_to_vacuum(cfg)
            total = total + piece.scale(-1 if j % 2 else 1)
        ok = (total - FockVector.from_word(cfg, word)).is_zero()
        results.append((ok, _label(word, d)))
    return results


def inclusion_exclusion_verify(n: int, k: int, d: int, fault=None) -> ScanReport:
    """sum_j (-1)^j q^C(j,2) w^j applied to the vacuum returns each split word."""
    results = _inclusion_exclusion_results(n, k, d)
    return _finalize(f"inclusion-exclusion n={n} k={k} d={d}", results, fault)


def inclusion_exclusion_sweep(n_max: int = 5, d: int = 2, fault=None) -> ScanReport:
    """``inclusion_exclusion_verify`` for every n <= n_max and every split k."""
    check_budget("sweep", n_max, d)
    results = [
        result
        for n in range(n_max + 1)
        for k in range(n + 1)
        for result in _inclusion_exclusion_results(n, k, d)
    ]
    return _finalize(f"inclusion-exclusion sweep (n <= {n_max}, d = {d})", results, fault)


def alternating_claim(pi: PartialPartition, reading: str = "prime-plain") -> QPolynomial:
    """Alternating sum over splittings of pi's pairs into inserted/leftover.

    Each splitting contributes (-1)^j q^e where j pairs go to the inserted
    partition rho (statistic iota', original labels) and the leftover sigma
    is relabeled onto the reduced ground set: each endpoint moves down by
    the number of removed points below it, so the split moves left by j.
    reading "prime-plain" takes e = iota'(rho) + iota(sigma); "prime-prime"
    takes iota'(sigma) instead.  Both statistics run on the pair tuples, and
    the signs are collected by exponent before one polynomial is built.
    Empty pi gives 1; one or more pairs should cancel to 0.
    """
    if reading not in ("prime-plain", "prime-prime"):
        raise ValueError(f"unknown reading {reading!r}")
    if not pi.respects_block():
        raise ValueError("pairs must straddle the split")
    leftover_stat = crossings if reading == "prime-plain" else iota_prime
    pairs = pi.pairs
    hist: dict = {}
    for mask in range(1 << len(pairs)):
        chosen, rest = [], []
        for bit, pair in enumerate(pairs):
            (chosen if mask >> bit & 1 else rest).append(pair)
        removed = sorted(x for pair in chosen for x in pair)
        sigma = tuple((l - bisect_left(removed, l), r - bisect_left(removed, r)) for l, r in rest)
        expo = iota_prime(tuple(chosen)) + leftover_stat(sigma)
        hist[expo] = hist.get(expo, 0) + (-1 if len(chosen) % 2 else 1)
    return QPolynomial.from_powers(hist)


def claim_scan(n_max: int = 8, m_max: int = 3, reading: str = "prime-plain", fault=None) -> ScanReport:
    """The alternating sum vanishes for every straddling partition with
    1 <= m <= m_max pairs; a surviving value is recorded verbatim."""
    check_budget("claim", n_max, m_max)
    results = []
    notes: dict = {}
    for n in range(2, n_max + 1):
        for k in range(n + 1):
            for m in range(1, min(m_max, max_pairs(n, k)) + 1):
                for pi in enumerate_partial_partitions(n, k, m):
                    value = alternating_claim(pi, reading)
                    ok = value.is_zero()
                    results.append((ok, (n, k, pi.pairs)))
                    if not ok and "first_nonzero" not in notes:
                        notes["first_nonzero"] = {
                            "n": n,
                            "k": k,
                            "pairs": pi.pairs,
                            "value": str(value),
                        }
    return _finalize(f"alternating claim ({reading})", results, fault, notes)


def iota_prime_identity_scan(n_max: int = 8, fault=None) -> ScanReport:
    """Insertion statistic == coset/permutation closed form, exhaustively."""
    if n_max > 10:
        raise ValueError("scan capped at n <= 10")
    results = []
    for n in range(n_max + 1):
        for k in range(n + 1):
            for j in range(max_pairs(n, k) + 1):
                for rho in enumerate_partial_partitions(n, k, j):
                    ok = iota_prime(rho) == iota_prime_closed_form(rho)
                    results.append((ok, (n, k, rho.pairs)))
    return _finalize(f"iota-prime closed form (n <= {n_max})", results, fault)
