"""Acceptance suite: one test and one verdict line per headline criterion.

Tolerances are stated inline and are part of the package contract; none of
them may be loosened.  Verdict lines go to the real stdout so they survive
pytest's capture.
"""

import itertools
import math
import sys
import time

import numpy as np
from test_fock import basis_one_particle, field_operator

from qfock.analysis import (
    deformation_block_check,
    deformation_scan,
    dilation_check,
    phi_hk_check,
    phi_hk_operator,
    phi_schatten_closed_form,
    schatten_norm,
    schatten_term_ratio,
    schatten_threshold,
)
from qfock.combinatorics import (
    PartialPartition,
    coset_data,
    crossings,
    inversions,
    iota_prime,
    partition_triple,
)
from qfock.fock import FockVector, SpaceConfig, gram_matrix
from qfock.identities import (
    claim_scan,
    inclusion_exclusion_sweep,
    iota_prime_identity_scan,
    two_mode_scan,
)
from qfock.scalars import EXACT, ScalarMode
from qfock.wick import (
    clt_moments,
    moment_pair_partitions,
    offdiag_reference,
    offdiag_wick_coefficient,
    three_wick_trace,
    wick_apply,
)


VERDICTS: list = []


def _verdict(num: int, label: str, failures: list, detail: str = "") -> None:
    state = "PASS" if not failures else "FAIL"
    extra = f" [{detail}]" if detail else ""
    line = f"criterion {num:02d} {state}: {label}{extra}"
    VERDICTS.append(line)  # conftest prints these in the terminal summary
    print(line)
    assert not failures, failures[:5]


def test_c01_diagram_statistics():
    two = PartialPartition(8, 4, ((2, 5), (4, 7)))
    nested = PartialPartition(8, 4, ((1, 6), (2, 5)))
    three = PartialPartition(8, 4, ((1, 6), (2, 5), (4, 7)))
    a2, b2, s2 = partition_triple(two)
    a3, b3, s3 = partition_triple(three)
    checks = {
        "crossings, two pairs": (crossings(two), 3),
        "iota', nested pair example": (iota_prime(nested), 6),
        "crossings, nested pair example": (crossings(nested), 4),
        "iota', two pairs": (iota_prime(two), 3),
        "iota', three pairs": (iota_prime(three), 6),
        "left coset, two pairs": (coset_data(a2)[1], 1),
        "right coset, two pairs": (coset_data(b2, chosen_first=True)[1], 1),
        "matching, two pairs": (inversions(s2), 0),
        "left coset, three pairs": (coset_data(a3)[1], 2),
        "right coset, three pairs": (coset_data(b3, chosen_first=True)[1], 0),
        "matching, three pairs": (inversions(s3), 1),
    }
    failures = [f"{k}: {got} != {want}" for k, (got, want) in checks.items() if got != want]
    _verdict(1, "anchored diagram statistics, exact integers", failures)


def test_c02_insertion_statistic_closed_form():
    start = time.time()
    scan = iota_prime_identity_scan(8)
    elapsed = time.time() - start
    failures = [str(v) for v in scan.violations]
    if scan.cases < 900:
        failures.append(f"only {scan.cases} cases enumerated")
    if elapsed >= 30:
        failures.append(f"scan took {elapsed:.1f}s")
    _verdict(2, "iota' = iota(A)+iota(B)+inv(sigma)+C(j,2), n <= 8",
             failures, f"{scan.cases} cases in {elapsed:.2f}s")


def test_c03_wick_axiom():
    failures = []
    for d in (1, 2):
        cfg = SpaceConfig(d, 1, 4, EXACT)
        for n in range(5):
            for word in itertools.product(range(d), repeat=n):
                xi = FockVector.from_word(cfg, word)
                out = wick_apply(xi, FockVector.vacuum(cfg))
                if not (out - xi).is_zero():
                    failures.append(f"W{word} vacuum mismatch, d={d}")
    _verdict(3, "Wick on the vacuum returns its word, d <= 2, n <= 4", failures)


def test_c04_moment_formula():
    failures = []
    cases = 0
    d = 2
    cfg = SpaceConfig(d, 1, 8, EXACT)
    fields = [field_operator(basis_one_particle(a, cfg), cfg) for a in range(d)]

    def dfs(suffix, state, depth):
        nonlocal cases
        cases += 1
        vac = state.coeffs.get((), EXACT.zero())
        ref = moment_pair_partitions(suffix, EXACT)
        if not (vac - ref).is_zero():
            failures.append(f"word {suffix}: {vac} != {ref}")
        if depth == 8:
            return
        for a in range(d):
            dfs((a,) + suffix, fields[a].apply(state), depth + 1)

    dfs((), FockVector.vacuum(cfg), 0)
    fourth = moment_pair_partitions((0, 0, 0, 0), EXACT)
    if str(fourth) != "2 + q":
        failures.append(f"fourth moment is {fourth}")
    _verdict(4, "pair partitions match the ladder route, length <= 8",
             failures, f"{cases} words, tau(s^4) = {fourth}")


def test_c05_inclusion_exclusion_and_claim():
    failures = []
    for d in (1, 2):
        sweep = inclusion_exclusion_sweep(5, d)
        failures.extend(f"d={d}: {v}" for v in sweep.violations)
    claim = claim_scan(8, 3, "prime-plain")
    failures.extend(str(v) for v in claim.violations)
    other = claim_scan(8, 3, "prime-prime")
    witness = other.notes.get("first_nonzero")
    if other.passed or witness is None:
        failures.append("second exponent reading left no recorded witness")
    elif (witness["n"], witness["value"]) != (4, "-1 + q^2"):
        failures.append(f"unexpected witness {witness}")
    _verdict(5, "alternating splitting sum, n <= 5 all k, claim m <= 3 n <= 8",
             failures, f"other reading first violates at {witness}")


def test_c06_two_mode_equality():
    scan = two_mode_scan(6, 2)
    failures = [str(v) for v in scan.violations]
    _verdict(6, "subset sum times q^C(j,2) equals the insertion-weighted sum, n <= 6",
             failures, f"{scan.cases} cases")


def test_c07_three_product_trace():
    failures = []
    cases = 0
    cfg = SpaceConfig(2, 1, 8, EXACT)
    words = {m: list(itertools.product(range(2), repeat=m)) for m in range(1, 7)}
    for l in range(1, 7):
        for wt in words[l]:
            theta = FockVector.from_word(cfg, wt)
            for m in range(1, 8 - l):
                for we in words[m]:
                    eta = FockVector.from_word(cfg, we)
                    applied = wick_apply(eta, theta)
                    for n in range(1, 9 - l - m):
                        for wx in words[n]:
                            xi = FockVector.from_word(cfg, wx)
                            direct = wick_apply(xi, applied).coeffs.get((), EXACT.zero())
                            formula = three_wick_trace(xi, eta, theta)
                            cases += 1
                            if not (direct - formula).is_zero():
                                failures.append(f"{wx}|{we}|{wt}")
    _verdict(7, "three-factor vacuum trace by subset sums, n+m+l <= 8",
             failures, f"{cases} triples")


def test_c08_clt_exactness():
    failures = []
    diag_words = [(0,) * m for m in (2, 4, 6)] + [(0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1, 0, 1)]
    for word in diag_words:
        limit = moment_pair_partitions(word, EXACT)
        for N, got in enumerate(clt_moments(4, word, EXACT), 1):
            if not (got - limit).is_zero():
                failures.append(f"{word} at N={N}: {got} != {limit}")
    limit = moment_pair_partitions((0,) * 8, EXACT)
    for N, got in enumerate(clt_moments(2, (0,) * 8, EXACT), 1):
        if not (got - limit).is_zero():
            failures.append(f"length 8 at N={N}")
    pairs = 0
    for m in range(1, 4):
        for f_word in itertools.product(range(2), repeat=m):
            for h_word in itertools.product(range(2), repeat=m):
                for N in range(1, 5):
                    got = offdiag_wick_coefficient(N, f_word, h_word, EXACT)
                    ref = offdiag_reference(N, f_word, h_word, EXACT)
                    pairs += 1
                    if not (got - ref).is_zero():
                        failures.append(f"offdiag {f_word}|{h_word} N={N}")
    skew = offdiag_wick_coefficient(3, (0,), (0, 1, 1), EXACT)
    if not skew.is_zero():
        failures.append(f"length-skewed coefficient {skew} nonzero")
    _verdict(8, "finite-size moments are size-independent; off-diagonal factorizes",
             failures, f"{pairs} off-diagonal comparisons")


def test_c09_dilation_identity():
    failures = []
    worst = 0.0
    for d in (1, 2):
        cfg = SpaceConfig(d, 2, 4, ScalarMode.at(0.5))
        for t in (0.1, 0.5):
            dev = dilation_check(t, cfg)
            worst = max(worst, dev)
            if dev >= 1e-12:
                failures.append(f"d={d} t={t}: deviation {dev}")
    _verdict(9, "first-copy compression of the rotated space is the semigroup",
             failures, f"worst deviation {worst:.2e}")


def test_c10_diagonal_form_and_schatten(monkeypatch):
    failures = []
    monkeypatch.setenv("QFOCK_MAX_DIM", "6000")
    cfg = SpaceConfig(2, 2, 6, ScalarMode.at(0.5))
    for h, k in (((1.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (0.6, 0.4)), ((0.6, 0.8), (0.8, -0.6))):
        dev = phi_hk_check(h, k, cfg)
        if dev >= 1e-10:
            failures.append(f"compression deviation {dev} for {h}, {k}")
    for q, d in ((0.5, 2), (0.8, 3)):
        single = SpaceConfig(d, 1, 6, ScalarMode.at(q))
        e1 = (1.0,) + (0.0,) * (d - 1)
        op = phi_hk_operator(e1, e1, single, route="diagonal")
        for p in (1.0, 2.0, 5.0):
            norm = schatten_norm(op, p, single).norm
            closed = phi_schatten_closed_form(q, d, p, 1.0, 6)
            if abs(norm - closed) > 1e-10 * closed:
                failures.append(f"(q,d)=({q},{d}) p={p}: {norm} vs {closed}")
        star = schatten_threshold(q, d)
        if abs(star - (-math.log(d) / math.log(q))) > 1e-12:
            failures.append(f"threshold {star} wrong for (q,d)=({q},{d})")
        if not schatten_term_ratio(q, d, 1.1 * star) < 1.0 < schatten_term_ratio(q, d, 0.9 * star):
            failures.append(f"term ratio does not bracket p* for (q,d)=({q},{d})")
    small = SpaceConfig(2, 1, 3, ScalarMode.at(0.5))
    via_vec = phi_hk_operator((1.0, 0.0), (1.0, 0.0), small, route="vector")
    via_diag = phi_hk_operator((1.0, 0.0), (1.0, 0.0), small, route="diagonal")
    for n in range(4):
        if np.abs(via_vec.block(n, n) - via_diag.block(n, n)).max() >= 1e-12:
            failures.append(f"vector and diagonal routes differ at degree {n}")
    _verdict(10, "rank-one compression is diagonal; Schatten norms and threshold",
             failures)


def test_c11_deformation_estimate():
    failures = []
    cfg = SpaceConfig(2, 2, 4, ScalarMode.at(0.5))
    worst = 0.0
    for n in range(1, 5):
        for kcut in range(1, n + 1):
            for t in (0.05, 0.1, 0.2):
                dev = deformation_block_check(n, kcut, t, cfg)
                worst = max(worst, dev)
                if dev >= 1e-10:
                    failures.append(f"n={n} kcut={kcut} t={t}: {dev}")
    constants = {}
    scan_cfg = SpaceConfig(1, 2, 4, ScalarMode.at(0.5))
    for k in (1, 2):
        cap = 2.0 ** (-k)
        grid = [cap / 10 + i * (cap * 0.9 - cap / 10) / 8 for i in range(9)]
        report = deformation_scan(k, 4, grid, scan_cfg)
        constants[k] = report.max_ratio
        if not math.isfinite(report.max_ratio):
            failures.append(f"unbounded ratio at k={k}")
        if report.crosscheck_dev >= 1e-10:
            failures.append(f"operator crosscheck {report.crosscheck_dev} at k={k}")
    detail = "identity dev %.2e; ratio constants k=1: %.4f, k=2: %.4f" % (
        worst, constants[1], constants[2])
    _verdict(11, "tail comparison identity on all degree <= 4 words; bounded ratio",
             failures, detail)


def test_c12_gram_positivity():
    failures = []
    smallest = math.inf
    for q in (0.9, -0.9, 0.5, -0.5, 0.0):
        for d in (1, 2, 3):
            cfg = SpaceConfig(d, 1, 5, ScalarMode.at(q))
            for degree in range(6):
                g = gram_matrix(degree, cfg)
                low = float(np.linalg.eigvalsh(g).min()) if g.size else 1.0
                smallest = min(smallest, low)
                if low <= 0:
                    failures.append(f"q={q} d={d} degree={degree}: min eig {low}")
                if q == 0.0 and not np.array_equal(g, np.eye(g.shape[0])):
                    failures.append(f"free Gram not the identity at d={d} degree={degree}")
    _verdict(12, "Gram blocks positive definite; free case exactly orthonormal",
             failures, f"smallest eigenvalue {smallest:.6g}")
