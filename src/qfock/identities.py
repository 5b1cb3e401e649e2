"""Splitting identities for Wick products, verified exactly in generic q.

A degree-n word split at position n-k can be rebuilt from products
W(left part) W(right part) by inclusion-exclusion over the contractions
between the two parts.  This module computes both presentations of the
level-j contraction maps collected by (left rest, right rest) (subset
pairs with coset weights vs straddling pair partitions with the insertion
statistic), compares them, and scans every identity in the chain
exhaustively.  Subsets, partitions and their statistics do not depend on
the letters, so each is built once per size as a table of shapes and the
per-word work only reads letters at the tabled positions.  Nor does any
verdict change when the letters are relabeled, so each identity is checked
once per pattern (the set partition of positions by equal letter) and
every word of that orbit reports its verdict.  The
inclusion-exclusion sweep works on word dictionaries through the Wick
kernel ``wick_word_action``.  Scans run with polynomial scalars, so one
pass certifies all q in (-1, 1).

The level maps are {power of q: count} histograms per remainder pair and
are compared as such; the sweep lifts one polynomial per target word.
The iota' scan builds each block of straddling partitions from the
triples (A, B, sigma) of the closed form, each A against one table of
(B, sigma) entries, and runs the insertion walk on every case's bare
endpoints.  The claim scan walks bare pair tuples.  Every scan streams
its cases a block at a time, the verdicts of one level or one pattern
list with a way to name each case, and keeps the violations only.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import comb

from . import budget
from .budget import Refused
from .combinatorics import (
    PartialPartition,
    _count_straddling,
    _iota_prime_pairs,
    _iota_walk,
    _picker,
    _straddling_pairs,
    coset_inversions,
    inversions,
    max_pairs,
    pattern,
    patterns,
)
from .fock import word_basis, word_inner_poly, word_to_str
from .scalars import QPolynomial
from .wick import wick_word_action


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

    def summary(self) -> str:
        state = "ok" if self.passed else f"{len(self.violations)} violations"
        return f"{self.name}: {self.cases} cases, {state}"


def _finalize(name: str, blocks, cases: int, fault, notes=None) -> ScanReport:
    """The report of a scan that streams its cases a block at a time.

    A block is (verdicts, label): the verdicts of its cases in scan order
    and ``label(t)``, the name of its case t.  ``cases`` is the count
    ``check_budget`` returned, so the fault hook can flip case
    ``fault % cases`` (to exercise the exit-code wiring) while the blocks
    stream.  A block that holds no failed case and not the flipped one is
    passed after one ``all``; labels are built for violations only.
    ``notes`` is read after the last block, so a scan may fill it while it
    streams.  A scan that streams another number of cases than it counted
    is a bug.
    """
    flip = _flip_index(fault, cases)
    violations = []
    start = 0
    for verdicts, label in blocks:
        t = flip - start
        start += len(verdicts)
        if 0 <= t < len(verdicts):  # the flipped case fails if it held and passes if it failed
            verdicts = list(verdicts)
            verdicts[t] = not verdicts[t]
        elif all(verdicts):
            continue
        violations.extend(label(s) for s, ok in enumerate(verdicts) if not ok)
    if start != cases:
        raise RuntimeError(f"{name}: streamed {start} cases, counted {cases}")
    return ScanReport(name, cases, violations, dict(notes or {}))


def _flip_index(fault, cases: int) -> int:
    # the case the fault hook flips, -1 for none
    return -1 if fault is None else fault % cases


def _straddling_count(n: int, js: range) -> int:
    # block-respecting partitions of {1..n} over every split k with a pair
    # count j in js
    return sum(_count_straddling(n, k, js) for k in range(n + 1))


# cases each scan checks at one ground-set size n
_CASE_COUNTS = {
    "claim": lambda n, m_max: _straddling_count(n, range(1, min(m_max, n // 2) + 1)),
    "two-mode": lambda n, d: d ** n * sum(min(k, n - k) + 1 for k in range(n + 1)),
    "sweep": lambda n, d: (n + 1) * d ** n,
    "iota": lambda n, _: _straddling_count(n, range(n // 2 + 1)),
}


def check_budget(scan: str, n_max: int, size: int) -> int:
    """Cases a scan would check, counted by arithmetic; over ``SCAN_BUDGET``
    it is refused before any work.

    ``scan`` is "claim" (size = m_max), "two-mode" or "sweep" (size = d),
    or "iota" (size unused).
    The two-mode scan is also refused when its partition tables would hold
    more than ``MAX_SPLIT_PARTITIONS`` straddling partitions, whatever d is.  The
    sums over n stop as soon as one passes the budget, so a huge n_max
    costs nothing.  A scan with 0 cases would pass without checking
    anything, so it is refused as well: a negative n_max, and a claim scan
    with n_max below 2 (its smallest partition has one pair on 2 points).
    So is a size below 1, which would leave the scan looping over empty
    levels.

    >>> check_budget("claim", 9, 3), check_budget("two-mode", 6, 2), check_budget("sweep", 5, 2)
    (2244, 1621, 321)
    """
    if n_max < 0:
        raise Refused(f"{scan} scan needs n_max >= 0, got {n_max}")
    if size < 1:
        raise Refused(f"{scan} scan needs a size of at least 1, got {size}")
    cases = partitions = 0
    for n in range(n_max + 1):
        cases += _CASE_COUNTS[scan](n, size)
        budget.check("SCAN_BUDGET", cases, f"{scan} scan would check at least")
        if scan == "two-mode":
            partitions += _straddling_count(n, range(n // 2 + 1))
            budget.check("MAX_SPLIT_PARTITIONS", partitions, f"{scan} scan would tabulate at least")
    if not cases:
        raise Refused(f"{scan} scan would check 0 cases up to n_max = {n_max}")
    return cases


def merge_reports(name: str, reports) -> ScanReport:
    merged = ScanReport(name=name)
    for rep in reports:
        merged.cases += rep.cases
        merged.violations.extend(rep.violations)
        merged.notes.update(rep.notes)
    return merged


# The scans use a shape table only while they walk the words of one (n, k),
# so a few dozen tables cover every level in use.
@lru_cache(maxsize=32)
def _subset_shapes(nl: int, nr: int, j: int) -> tuple:
    """Word-independent half of the level-j subset map of a split nl|nr.

    One (A, left rest, B, right rest, iota(A) + iota(B)) per pair of
    j-subsets A of the left positions and B of the right ones, in
    lexicographic order of (A, B), each position set as a ``_picker``.
    iota(A) counts the complement-first coset inversions, iota(B) the
    chosen-first ones.
    """
    shapes = []
    for a_set in itertools.combinations(range(1, nl + 1), j):
        a = _picker(tuple(p - 1 for p in a_set))
        a_rest = _picker(tuple(p - 1 for p in range(1, nl + 1) if p not in a_set))
        ia = coset_inversions(nl, a_set, False)
        for b_set in itertools.combinations(range(1, nr + 1), j):
            b = _picker(tuple(p - 1 for p in b_set))
            b_rest = _picker(tuple(p - 1 for p in range(1, nr + 1) if p not in b_set))
            shapes.append((a, a_rest, b, b_rest, ia + coset_inversions(nr, b_set, True)))
    return tuple(shapes)


def _subset_level(lw: tuple, rw: tuple, j: int) -> dict:
    """q^C(j,2) times the level-j contraction map of the split word lw|rw,
    subset form, as {(left rest, right rest): {power of q: count}}.

    Each j-subset A of left positions meets each j-subset B of right
    positions with weight q^(iota(A)+iota(B)) times the q-inner product of
    the extracted subwords.  Inner products have nonnegative coefficients
    and their zero coefficients are skipped, so every count is positive and
    two maps are equal exactly when their polynomials are.  Level 0 is the
    bare product.
    """
    shift = comb(j, 2)
    hists: dict = {}
    for a, a_rest, b, b_rest, iota in _subset_shapes(len(lw), len(rw), j):
        inner = word_inner_poly(a(lw), b(rw)).coeffs
        if not inner:
            continue
        key = (a_rest(lw), b_rest(rw))
        hist = hists.get(key)
        if hist is None:
            hists[key] = hist = {}
        for power, c in enumerate(inner, iota + shift):
            if c:
                hist[power] = hist.get(power, 0) + c
    return hists


@lru_cache(maxsize=32)
def _rho_shapes(n: int, k: int, j: int) -> tuple:
    """Word-independent half of the level-j map over straddling partitions.

    One (left endpoints, right endpoints, left rest, right rest,
    iota'(rho)) per partition of {1..n} with j pairs straddling n-k, each
    position set as a ``_picker``, endpoints listed pair by pair.
    """
    split = n - k
    shapes = []
    for pairs in _straddling_pairs(n, k, j):  # none for j > max_pairs(n, k)
        paired = {x - 1 for pair in pairs for x in pair}
        shapes.append((
            _picker(tuple(l - 1 for l, _ in pairs)),
            _picker(tuple(r - 1 for _, r in pairs)),
            _picker(tuple(p for p in range(split) if p not in paired)),
            _picker(tuple(p for p in range(split, n) if p not in paired)),
            _iota_prime_pairs(pairs),
        ))
    return tuple(shapes)


def _rho_level(lw: tuple, rw: tuple, j: int) -> dict:
    """The same map over straddling partitions with j pairs, weighted
    q^iota'(rho), as {(left rest, right rest): {power of q: count}}; it
    equals ``_subset_level``, and each count is at least 1."""
    word = lw + rw
    hists: dict = {}
    for lefts, rights, l_rest, r_rest, iota in _rho_shapes(len(word), len(rw), j):
        # orthonormal letters: every contracted pair must match exactly
        if lefts(word) != rights(word):
            continue
        key = (l_rest(word), r_rest(word))
        hist = hists.get(key)
        if hist is None:
            hists[key] = hist = {}
        hist[iota] = hist.get(iota, 0) + 1
    return hists


def _by_pattern(n: int, d: int, check) -> tuple:
    """The block of every degree-n word over d letters, in word order:
    (check(word) per word, label).  Relabeling letters keeps every verdict,
    so ``check`` runs once per pattern.  A label is the word's text form,
    "vac" for the vacuum."""
    table = _pattern_labels(n, d)
    verdicts = {p: check(p) for p in patterns(n, d)}
    return [verdicts[p] for p, _ in table], partial(_word_label, table)


@lru_cache(maxsize=16)
def _pattern_labels(n: int, d: int) -> tuple:
    # (pattern, label) per word of _by_pattern; a scan asks once per split k
    return tuple((pattern(word), word_to_str(word, d) or "vac") for word in word_basis(n, d))


def _word_label(table: tuple, t: int) -> str:
    return table[t][1]


def _two_mode_verdicts(n: int, k: int, word: tuple) -> tuple:
    lw, rw = word[: n - k], word[n - k :]
    return tuple(_subset_level(lw, rw, j) == _rho_level(lw, rw, j) for j in range(max_pairs(n, k) + 1))


def two_mode_scan(n_max: int = 6, d: int = 2, fault=None) -> ScanReport:
    """q^C(j,2) * subset-sum form == rho-sum form, all splits of all words.

    The two maps are compared collected by remainder pair.  Subsets,
    partitions and their statistics are built once per (n, k, j) shape,
    and each split is checked once per pattern.
    """
    cases = check_budget("two-mode", n_max, d)

    def blocks():
        # one block per (n, k): its words in order, each with every level j
        for n in range(n_max + 1):
            for k in range(n + 1):
                per_word, word_label = _by_pattern(n, d, partial(_two_mode_verdicts, n, k))
                levels = max_pairs(n, k) + 1
                label = partial(_level_label, n, k, levels, word_label)
                yield [ok for oks in per_word for ok in oks], label

    return _finalize(f"two-mode split equality (n <= {n_max}, d = {d})", blocks(), cases, fault)


def _level_label(n: int, k: int, levels: int, word_label, t: int) -> tuple:
    return n, k, t % levels, word_label(t // levels)


def _inclusion_exclusion_image(lw: tuple, rw: tuple) -> dict:
    """sum_j (-1)^j q^C(j,2) w^j(lw, rw) applied to the vacuum, as
    {word: QPolynomial} with zeros dropped; the identity says this is
    {lw + rw: 1}.

    The signed level histograms times each kernel polynomial add into one
    {power of q: integer} dict per target word, and each target word
    becomes one polynomial at the end.
    """
    total: dict = {}
    for j in range(min(len(lw), len(rw)) + 1):
        sign = -1 if j % 2 else 1
        for (lrem, rrem), hist in _subset_level(lw, rw, j).items():
            # W(rrem) on the vacuum is the word rrem itself; read at its reach
            for target, p in wick_word_action(lrem, rrem, len(lrem) + len(rrem)):
                acc = total.get(target)
                if acc is None:
                    total[target] = acc = {}
                kernel = p.coeffs
                for power, count in hist.items():
                    count *= sign
                    for e, c in enumerate(kernel, power):
                        acc[e] = acc.get(e, 0) + count * c
    return {word: p for word, acc in total.items() if (p := QPolynomial.from_powers(acc))}


def _inclusion_exclusion_results(n: int, k: int, d: int) -> tuple:
    """The ``_by_pattern`` block of the degree-n words split k letters from
    the right."""
    one = QPolynomial.one()
    return _by_pattern(n, d, lambda w: _inclusion_exclusion_image(w[: n - k], w[n - k :]) == {w: one})


def inclusion_exclusion_sweep(n_max: int = 5, d: int = 2, fault=None) -> ScanReport:
    """The inclusion-exclusion identity for every word of degree n <= n_max
    and every split k."""
    cases = check_budget("sweep", n_max, d)
    blocks = (_inclusion_exclusion_results(n, k, d) for n in range(n_max + 1) for k in range(n + 1))
    return _finalize(f"inclusion-exclusion sweep (n <= {n_max}, d = {d})", blocks, cases, fault)


def alternating_claim(pi: PartialPartition, reading: str = "prime-plain") -> QPolynomial:
    """Alternating sum over splittings of pi's pairs into inserted/leftover.

    Each splitting contributes (-1)^j q^e where j pairs go to the inserted
    partition rho (statistic iota', original labels) and the leftover sigma
    is relabeled onto the reduced ground set: each endpoint moves down by
    the number of removed points below it, so the split moves left by j.
    reading "prime-plain" takes e = iota'(rho) + iota(sigma); "prime-prime"
    takes iota'(sigma) instead.  Empty pi gives 1.  The value depends on
    the pairs alone, not on n or the split.

    Lemma: in the prime-plain reading the sum of a nonempty pi is 0.
    Moving p* = (ls, rs), the pair with the largest left endpoint, between
    rho and sigma flips the sign and keeps the exponent: every other pair
    starts before ls and ends after it, so it crosses p* or nests around
    it, and then iota'(rho) grows and iota(sigma) shrinks by the same
    rs - ls - 1 less the number of chosen pairs crossing p*.  So the terms
    cancel in pairs; ``toggle_cancels`` in tests/test_identities.py derives
    both exponent changes in closed form and checks them.  The
    prime-prime sum does not vanish in general: both statistics run on the
    pair tuples of all 2^m splittings, and the signs are collected by
    exponent before one polynomial is built.
    """
    _check_reading(reading)
    if not pi.respects_block():
        raise ValueError("pairs must straddle the split")
    return _alternating_sum(pi.pairs, reading)


def _check_reading(reading: str) -> None:
    if reading not in ("prime-plain", "prime-prime"):
        raise ValueError(f"unknown reading {reading!r}")


def _alternating_sum(pairs: tuple, reading: str) -> QPolynomial:
    # alternating_claim on a pair tuple already known to straddle one split,
    # in a reading already checked
    if reading == "prime-plain":
        return QPolynomial.zero() if pairs else QPolynomial.one()
    # every sub-tuple of block-respecting pairs respects the block too, so
    # the statistic runs unchecked
    hist: dict = {}
    for mask in range(1 << len(pairs)):
        chosen, rest = [], []
        for bit, pair in enumerate(pairs):
            (chosen if mask >> bit & 1 else rest).append(pair)
        removed = sorted(x for pair in chosen for x in pair)
        sigma = tuple((l - bisect_left(removed, l), r - bisect_left(removed, r)) for l, r in rest)
        expo = _iota_prime_pairs(chosen) + _iota_prime_pairs(sigma)
        hist[expo] = hist.get(expo, 0) + (-1 if len(chosen) % 2 else 1)
    return QPolynomial.from_powers(hist)


def claim_scan(n_max: int = 8, m_max: int = 3, reading: str = "prime-plain", fault=None) -> ScanReport:
    """The alternating sum vanishes for every straddling partition with
    1 <= m <= m_max pairs; a surviving value is recorded verbatim.

    Every (n, k, pairs) is a case of its own, but the sum reads the pairs
    only, and one pair tuple straddles every split between its largest
    left and smallest right endpoint at every n from its largest right
    endpoint on.  So the scan walks the bare pair tuples.  The prime-prime
    reading sums 2^m terms per tuple, so it computes one value per distinct
    tuple (792 for the 2,244 cases of n_max = 9, m_max = 3) and every case
    reads its verdict from it.  In the prime-plain reading each value is 0
    by the lemma of ``alternating_claim`` and is returned at once, so none
    is kept.  Only the violations are kept.
    """
    cases = check_budget("claim", n_max, m_max)
    _check_reading(reading)
    notes: dict = {}
    sums: dict = {}  # pair tuple -> its alternating sum, kept in the prime-prime reading
    keep = reading == "prime-prime"

    def value(pairs: tuple) -> QPolynomial:
        known = sums.get(pairs)
        if known is None:
            known = _alternating_sum(pairs, reading)
            if keep:
                sums[pairs] = known
        return known

    def blocks():
        # one block per (n, k, m)
        for n in range(2, n_max + 1):
            for k in range(n + 1):
                for m in range(1, min(m_max, max_pairs(n, k)) + 1):
                    tuples = list(_straddling_pairs(n, k, m))
                    values = [value(pairs) for pairs in tuples]
                    oks = [v.is_zero() for v in values]
                    if "first_nonzero" not in notes and not all(oks):
                        t = oks.index(False)
                        notes["first_nonzero"] = {"n": n, "k": k, "pairs": tuples[t], "value": str(values[t])}
                    yield oks, partial(_pairs_label, n, k, tuples)

    return _finalize(f"alternating claim ({reading})", blocks(), cases, fault, notes)


def _pairs_label(n: int, k: int, tuples: list, t: int) -> tuple:
    return n, k, tuples[t]


@lru_cache(maxsize=8)
def _sigma_table(j: int) -> tuple:
    """(picker, inversions(sigma) + C(j,2)) per permutation sigma of j
    items, 0-based; the picker reads position sigma(s) for each s."""
    shift = comb(j, 2)
    return tuple((_picker(sigma), inversions(sigma) + shift) for sigma in itertools.permutations(range(j)))


def _iota_right_table(n: int, k: int, j: int) -> list:
    """(right endpoints in pairing order, iota(B) + inversions(sigma) + C(j,2))
    per j-subset B of the right block {n-k+1..n}, then per sigma in S_j.

    A j-subset A_1 < ... < A_j of {1..n-k} pairs with an entry's endpoints
    in order into a straddling partition with closed form iota(A) + number.

    >>> _iota_right_table(4, 2, 2)
    [((3, 4), 1), ((4, 3), 2)]
    """
    table = []
    for b in itertools.combinations(range(1, k + 1), j):
        ib, rights = coset_inversions(k, b, True), tuple(r + n - k for r in b)
        table.extend((pick(rights), ib + inv) for pick, inv in _sigma_table(j))
    return table


def iota_prime_identity_scan(n_max: int = 8, fault=None) -> ScanReport:
    """Insertion statistic == coset/permutation closed form, exhaustively.

    Each (n, k, j) block pairs every j-subset A of the left block with
    every entry of ``_iota_right_table``: the closed form is read once per
    A, B and sigma, and the insertion walk runs on each case's endpoints
    without building its pairs, which respect the split by construction.
    Blocks stream in construction order, one comprehension of verdicts
    each.  Labels are rebuilt from case indices, only the block that holds
    the fault's case is sorted by pair tuple, and the violations are sorted
    at the end, so cases and labels keep the enumerator's order.
    """
    cases = check_budget("iota", n_max, 1)
    flip = _flip_index(fault, cases)

    def blocks():
        start = 0
        for n in range(n_max + 1):
            for k in range(n + 1):
                for j in range(max_pairs(n, k) + 1):
                    table = _iota_right_table(n, k, j)
                    subsets = itertools.combinations(range(1, n - k + 1), j)
                    lefts = [(a, coset_inversions(n - k, a, False)) for a in subsets]
                    oks = [_iota_walk(a, rights) == ia + c for a, ia in lefts for rights, c in table]
                    label = partial(_iota_label, n, k, lefts, table)
                    if 0 <= flip - start < len(oks):  # the enumerator's order, by pair tuple
                        labels, oks = zip(*sorted(zip(map(label, range(len(oks))), oks)))
                        label = labels.__getitem__
                    start += len(oks)
                    yield oks, label

    report = _finalize(f"iota-prime closed form (n <= {n_max})", blocks(), cases, fault)
    # a label (n, k, pairs) sorts by its block (n, k, j = len(pairs)), then by pair tuple
    report.violations.sort(key=lambda label: (label[0], label[1], len(label[2]), label[2]))
    return report


def _iota_label(n: int, k: int, lefts: list, table: list, t: int) -> tuple:
    # case t pairs left subset t // len(table) with entry t % len(table)
    return n, k, tuple(zip(lefts[t // len(table)][0], table[t % len(table)][0]))
