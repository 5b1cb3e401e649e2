import itertools
import tracemalloc
from math import comb, factorial

import pytest
from matchings import enumerate_partial_partitions
from test_combinatorics import closed_form, oracle_crossings, oracle_iota_prime

from qfock import combinatorics, identities
from qfock.budget import bound
from qfock.combinatorics import (
    PartialPartition,
    coset_data,
    iota_prime,
    max_pairs,
    partition_triple,
    patterns,
)
from qfock.fock import FockVector, SpaceConfig, word_basis, word_inner_poly, word_to_str
from qfock.identities import (
    alternating_claim,
    claim_scan,
    inclusion_exclusion_sweep,
    iota_prime_identity_scan,
    two_mode_scan,
)
from qfock.scalars import EXACT, QPolynomial
from qfock.wick import wick_apply

ONE = QPolynomial.one()
Q = QPolynomial.q()
subset_level = identities._subset_level
rho_level = identities._rho_level


def cfg_for(n, d=2):
    return SpaceConfig(d, 1, max(n, 1), EXACT)


def word_vec(cfg, word):
    return FockVector.from_word(cfg, word)


def gathered(terms, shift=0):
    """A term list's coefficients collected by (left rest, right rest), zeros
    dropped, times q^shift."""
    out: dict = {}
    for coeff, lrem, rrem in terms:
        out[(lrem, rrem)] = out.get((lrem, rrem), QPolynomial.zero()) + coeff
    return {key: p.shift(shift) for key, p in out.items() if not p.is_zero()}


def lifted(hists):
    """A level map's {power: count} histograms as one polynomial per
    remainder pair, for comparison with the polynomial oracles."""
    return {key: QPolynomial.from_powers(hist) for key, hist in hists.items()}


# ---------------------------------------------------------------------------
# the per-word route the shape tables replaced, as an oracle: subsets and
# partitions are enumerated afresh for every word


def oracle_subset_terms(lw, rw, j):
    """Level-j contraction map of the split word lw|rw, subset form:
    (coefficient, left rest, right rest) per pair of j-subsets."""
    nl, nr = len(lw), len(rw)
    out = []
    for a_set in itertools.combinations(range(1, nl + 1), j):
        inside_a = set(a_set)
        sub_l = tuple(lw[p - 1] for p in a_set)
        rem_l = tuple(lw[p - 1] for p in range(1, nl + 1) if p not in inside_a)
        ia = coset_data((nl, a_set))[1]
        for b_set in itertools.combinations(range(1, nr + 1), j):
            inner = word_inner_poly(sub_l, tuple(rw[p - 1] for p in b_set))
            if inner.is_zero():
                continue
            inside_b = set(b_set)
            rem_r = tuple(rw[p - 1] for p in range(1, nr + 1) if p not in inside_b)
            ib = coset_data((nr, b_set), chosen_first=True)[1]
            out.append((inner.shift(ia + ib), rem_l, rem_r))
    return out


def oracle_rho_terms(lw, rw, j):
    """The same map over straddling partitions with j pairs, weighted
    q^iota'(rho); it equals the subset form times q^C(j,2)."""
    n = len(lw) + len(rw)
    k = len(rw)
    if j > max_pairs(n, k):
        return []
    word = lw + rw
    out = []
    for rho in enumerate_partial_partitions(n, k, j):
        if any(word[a - 1] != word[b - 1] for a, b in rho.pairs):
            continue
        paired = {x for p in rho.pairs for x in p}
        rem_l = tuple(word[p - 1] for p in range(1, n - k + 1) if p not in paired)
        rem_r = tuple(word[p - 1] for p in range(n - k + 1, n + 1) if p not in paired)
        out.append((QPolynomial.monomial(iota_prime(rho)), rem_l, rem_r))
    return out


def test_rho_shapes_are_the_tables_of_the_partition_enumerator():
    for n in range(7):
        probe = tuple(range(n))  # a picker applied to it returns its positions
        for k in range(n + 1):
            for j in range(max_pairs(n, k) + 2):
                got = [
                    (lefts(probe), rights(probe), l_rest(probe), r_rest(probe), iota)
                    for lefts, rights, l_rest, r_rest, iota in identities._rho_shapes(n, k, j)
                ]
                expect = []
                for rho in enumerate_partial_partitions(n, k, j):
                    paired = {x for pair in rho.pairs for x in pair}
                    expect.append((
                        tuple(l - 1 for l, _ in rho.pairs),
                        tuple(r - 1 for _, r in rho.pairs),
                        tuple(p - 1 for p in range(1, n - k + 1) if p not in paired),
                        tuple(p - 1 for p in range(n - k + 1, n + 1) if p not in paired),
                        iota_prime(rho),
                    ))
                assert got == expect


def test_pattern_labels_are_built_once_per_degree():
    identities._pattern_labels.cache_clear()
    two_mode_scan(4, 2)
    info = identities._pattern_labels.cache_info()
    assert (info.misses, info.currsize) == (5, 5)  # n = 0..4, every split k reusing its table
    assert identities._pattern_labels(2, 2) == (((0, 0), (0, 1), (0, 1), (0, 0)), ("1,1", "1,2", "2,1", "2,2"))
    assert identities._pattern_labels(0, 3) == (((),), ("vac",))


def test_shape_tables_are_built_once_per_verify_ie_run():
    # the default verify-ie run: the sweep reads the 50 subset tables of the two-mode scan again
    identities._subset_shapes.cache_clear()
    identities._rho_shapes.cache_clear()
    two_mode_scan(6, 2)
    inclusion_exclusion_sweep(5, 2)
    assert identities._subset_shapes.cache_info().misses == 50
    assert identities._rho_shapes.cache_info().misses == 50


@pytest.mark.parametrize("d, n_max", [(1, 5), (2, 5), (3, 4)])
def test_shape_tables_match_per_word_oracle(d, n_max):
    for n in range(n_max + 1):
        for k in range(n + 1):
            for word in word_basis(n, d):
                lw, rw = word[: n - k], word[n - k :]
                # levels above min(k, n-k) are empty on both routes
                for j in range(max(k, n - k) + 1):
                    expected = gathered(oracle_subset_terms(lw, rw, j), comb(j, 2))
                    assert lifted(subset_level(lw, rw, j)) == expected
                    assert lifted(rho_level(lw, rw, j)) == gathered(oracle_rho_terms(lw, rw, j)) == expected


def test_level_zero_is_bare_product():
    assert oracle_subset_terms((0, 1), (1,), 0) == [(ONE, (0, 1), (1,))]
    assert oracle_rho_terms((0, 1), (1,), 0) == [(ONE, (0, 1), (1,))]
    assert lifted(subset_level((0, 1), (1,), 0)) == lifted(rho_level((0, 1), (1,), 0)) == {((0, 1), (1,)): ONE}


def test_single_contraction_scalar_example():
    assert gathered(oracle_subset_terms((0,), (0,), 1)) == {((), ()): ONE}
    assert lifted(subset_level((0,), (0,), 1)) == lifted(rho_level((0,), (0,), 1)) == {((), ()): ONE}


def test_level_above_either_side_is_empty():
    assert oracle_subset_terms((0, 1), (0,), 2) == []
    assert oracle_rho_terms((0, 1), (0,), 2) == []
    assert lifted(subset_level((0, 1), (0,), 2)) == lifted(rho_level((0, 1), (0,), 2)) == {}


def test_subset_terms_by_hand():
    # left (0,1), right (0,1), one contraction: only matching letters pair up
    subset = gathered(oracle_subset_terms((0, 1), (0, 1), 1))
    assert subset == {((1,), (1,)): Q, ((0,), (0,)): Q}
    assert gathered(oracle_rho_terms((0, 1), (0, 1), 1)) == subset
    assert lifted(subset_level((0, 1), (0, 1), 1)) == lifted(rho_level((0, 1), (0, 1), 1)) == subset


def test_level_maps_hold_no_zero_count():
    """Every count in both level maps is positive, so two maps compare
    equal exactly when their lifted polynomials do."""
    # an inner product may have zero coefficients below its degree: (0, 1) on (1, 0) is q
    assert word_inner_poly((0, 1), (1, 0)).coeffs == (0, 1)
    assert subset_level((0, 1), (1, 0), 2) == {((), ()): {2: 1}}
    for d in (1, 2, 3):
        for n in range(6):
            for k in range(n + 1):
                for word in word_basis(n, d):
                    lw, rw = word[: n - k], word[n - k :]
                    for j in range(max(k, n - k) + 1):
                        for level in (subset_level, rho_level):
                            hists = level(lw, rw, j)
                            assert all(hists.values())  # no remainder pair without a power
                            assert all(c > 0 for hist in hists.values() for c in hist.values())


# ---------------------------------------------------------------------------
# the vector route the word sweep replaced, as an oracle: every remainder
# pair is wrapped as two FockVectors and both Wick operators act in turn


def oracle_w_jnk(xi_left, xi_right, j):
    """(coefficient, FockVector, FockVector) terms of the level-j map, linear in both sides."""
    cfg = xi_left.cfg
    terms = []
    for lw, lc in sorted(xi_left.coeffs.items()):
        for rw, rc in sorted(xi_right.coeffs.items()):
            for coeff, lrem, rrem in oracle_subset_terms(lw, rw, j):
                terms.append((lc * rc * coeff, word_vec(cfg, lrem), word_vec(cfg, rrem)))
    return terms


def oracle_apply_to_vacuum(terms, cfg):
    """sum c * W(left) W(right) Omega through the Wick action."""
    vacuum = FockVector.vacuum(cfg)
    total = FockVector(cfg, {})
    for coeff, left, right in terms:
        total = total + wick_apply(left, wick_apply(right, vacuum)).scale(cfg.scalar.of(coeff))
    return total


def oracle_inclusion_exclusion(word, k, d):
    n = len(word)
    cfg = cfg_for(n, d)
    left, right = word_vec(cfg, word[: n - k]), word_vec(cfg, word[n - k :])
    total = FockVector(cfg, {})
    # empty levels above min(k, n-k) keep the sum honest up to max(k, n-k)
    for j in range(max(k, n - k) + 1):
        terms = [(c.shift(comb(j, 2)), lv, rv) for c, lv, rv in oracle_w_jnk(left, right, j)]
        total = total + oracle_apply_to_vacuum(terms, cfg).scale(-1 if j % 2 else 1)
    return total, (total - word_vec(cfg, word)).is_zero()


def test_apply_to_vacuum_materializes_products():
    cfg = cfg_for(4)
    left = word_vec(cfg, (0, 1))
    right = word_vec(cfg, (0,))
    out = oracle_apply_to_vacuum(oracle_w_jnk(left, right, 0), cfg)
    # W(0,1) W(0) vacuum = W(0,1) e_1: creation plus one contraction
    assert out.coeffs[(0, 1, 0)] == ONE
    assert (0,) in out.coeffs or (1,) in out.coeffs


@pytest.mark.parametrize("d, n_max", [(1, 4), (2, 4), (3, 3)])
def test_inclusion_exclusion_matches_vector_oracle(d, n_max):
    for n in range(n_max + 1):
        for k in range(n + 1):
            expected = []
            for word in word_basis(n, d):
                image, ok = oracle_inclusion_exclusion(word, k, d)
                assert identities._inclusion_exclusion_image(word[: n - k], word[n - k :]) == image.coeffs
                expected.append((ok, word_to_str(word, d) or "vac"))
            assert cases_of(identities._inclusion_exclusion_results(n, k, d)) == expected


# ---------------------------------------------------------------------------
# the word-by-word scans the pattern scans replaced, as oracles: every word
# is checked, not one word per relabeling orbit


def cases_of(block):
    """(ok, label) per case of a scan block (verdicts, label)."""
    verdicts, label = block
    return [(ok, label(t)) for t, ok in enumerate(verdicts)]


def oracle_finalize(name, verdicts, cases, fault, notes=None):
    """The report of a stream of one (ok, label) per case: the per-case
    protocol the block protocol of ``identities._finalize`` replaced."""
    flip = -1 if fault is None else fault % cases
    violations = []
    i = -1
    for i, (ok, label) in enumerate(verdicts):
        if ok == (i == flip):  # a failed case, or the flipped case if it held
            violations.append(label)
    if i + 1 != cases:
        raise RuntimeError(f"{name}: streamed {i + 1} cases, counted {cases}")
    return identities.ScanReport(name, cases, violations, dict(notes or {}))


def oracle_two_mode_scan(n_max, d, fault=None):
    results = []
    for n in range(n_max + 1):
        for k in range(n + 1):
            for word in word_basis(n, d):
                lw, rw = word[: n - k], word[n - k :]
                for j in range(max_pairs(n, k) + 1):
                    ok = subset_level(lw, rw, j) == rho_level(lw, rw, j)
                    results.append((ok, (n, k, j, word_to_str(word, d) or "vac")))
    name = f"two-mode split equality (n <= {n_max}, d = {d})"
    return oracle_finalize(name, results, len(results), fault)


def oracle_inclusion_exclusion_sweep(n_max, d, fault=None):
    one = QPolynomial.one()
    results = [
        (
            identities._inclusion_exclusion_image(word[: n - k], word[n - k :]) == {word: one},
            word_to_str(word, d) or "vac",
        )
        for n in range(n_max + 1)
        for k in range(n + 1)
        for word in word_basis(n, d)
    ]
    name = f"inclusion-exclusion sweep (n <= {n_max}, d = {d})"
    return oracle_finalize(name, results, len(results), fault)


@pytest.mark.parametrize("d, n_max", [(1, 5), (2, 5), (3, 5)])
@pytest.mark.parametrize("fault", [None, 0, 7, 12345, 999_983])
def test_pattern_scans_match_word_oracles(d, n_max, fault):
    for scan, oracle in [
        (two_mode_scan, oracle_two_mode_scan),
        (inclusion_exclusion_sweep, oracle_inclusion_exclusion_sweep),
    ]:
        got, expected = scan(n_max, d, fault=fault), oracle(n_max, d, fault)
        assert got == expected
        assert len(got.violations) == (fault is not None)


def test_pattern_scans_check_one_word_per_orbit(monkeypatch):
    checked = []
    image = identities._inclusion_exclusion_image
    monkeypatch.setattr(
        identities, "_inclusion_exclusion_image", lambda lw, rw: checked.append(lw + rw) or image(lw, rw)
    )
    assert inclusion_exclusion_sweep(4, 3).passed
    # one split of each pattern with at most 3 blocks, for every split k
    assert sorted(checked) == sorted(p for n in range(5) for p in patterns(n, 3) for _ in range(n + 1))


def test_two_mode_scan_small():
    report = two_mode_scan(n_max=4, d=2)
    assert report.passed
    assert report.cases > 200


def test_two_mode_scan_fault_hook():
    report = two_mode_scan(n_max=2, d=1, fault=3)
    assert len(report.violations) == 1


def test_inclusion_exclusion_two_term_case():
    assert cases_of(identities._inclusion_exclusion_results(2, 1, 1)) == [(True, "1,1")]


def test_inclusion_exclusion_trivial_split():
    for n, k in [(1, 0), (3, 0), (3, 3)]:
        assert all(ok for ok, _ in cases_of(identities._inclusion_exclusion_results(n, k, 2)))


def test_inclusion_exclusion_sixteen_words():
    results = cases_of(identities._inclusion_exclusion_results(4, 2, 2))
    assert len(results) == 16 and all(ok for ok, _ in results)


def test_inclusion_exclusion_sweep_and_fault():
    assert inclusion_exclusion_sweep(n_max=3, d=2).passed
    assert not inclusion_exclusion_sweep(n_max=3, d=2, fault=0).passed


def test_claim_empty_partition_is_one():
    pi = PartialPartition(4, 2, ())
    assert alternating_claim(pi) == ONE
    assert alternating_claim(pi, "prime-prime") == ONE


def test_claim_single_pair_vanishes_both_readings():
    for n, k, pair in [(2, 1, (1, 2)), (5, 2, (2, 4)), (6, 3, (1, 6))]:
        pi = PartialPartition(n, k, (pair,))
        assert alternating_claim(pi).is_zero()
        assert alternating_claim(pi, "prime-prime").is_zero()


def test_claim_readings_diverge_on_nested_pairs():
    # the smallest case separating the two exponent conventions
    pi = PartialPartition(4, 2, ((1, 4), (2, 3)))
    assert alternating_claim(pi, "prime-plain").is_zero()
    assert str(alternating_claim(pi, "prime-prime")) == "-1 + q^2"


def test_claim_three_pair_example():
    pi = PartialPartition(8, 4, ((1, 6), (2, 5), (4, 7)))
    assert alternating_claim(pi).is_zero()


def test_claim_validation():
    with pytest.raises(ValueError):
        alternating_claim(PartialPartition(4, 2, ((1, 2),)))
    with pytest.raises(ValueError):
        alternating_claim(PartialPartition(4, 2, ((1, 3),)), "plain-plain")


def test_claim_scan_smallish():
    report = claim_scan(n_max=6, m_max=2)
    assert report.passed


def test_claim_scan_records_other_reading():
    report = claim_scan(n_max=4, m_max=2, reading="prime-prime")
    assert not report.passed
    first = report.notes["first_nonzero"]
    assert first["n"] == 4 and first["pairs"] == ((1, 4), (2, 3))
    assert first["value"] == "-1 + q^2"


def test_iota_scan():
    report = iota_prime_identity_scan(6)
    assert report.passed and report.cases == 160
    assert not iota_prime_identity_scan(6, fault=5).passed
    report = iota_prime_identity_scan(11)
    assert report.passed and report.cases == identities.check_budget("iota", 11, 1) == 20_371
    with pytest.raises(ValueError, match="budget"):
        iota_prime_identity_scan(12)


def iota_block(n, k, j):
    """(pairs, closed form) per partition of {1..n} with j pairs straddling
    n - k, built from its triple (A, B, sigma) in construction order: A,
    then B, then sigma.  The s-th smallest left endpoint A_s is paired with
    the sigma(s)-th smallest right endpoint; sorted by pair tuple, the
    block is in the order of the enumerator."""
    split = n - k
    block = []
    for a in itertools.combinations(range(1, split + 1), j):
        ia = combinatorics.coset_inversions(split, a, False)
        for b in itertools.combinations(range(1, k + 1), j):
            iab = ia + combinatorics.coset_inversions(k, b, True)
            rights = tuple(r + split for r in b)
            for pick, inv in identities._sigma_table(j):
                block.append((tuple(zip(a, pick(rights))), iab + inv))
    return block


def test_iota_blocks_are_the_enumerated_partitions_in_order():
    """Built from triples, each (n, k, j) block lists every straddling
    partition once: sorted, it is the enumerator's list.  Each pair
    tuple's triple is the one it was built from, and its closed form is
    that triple's statistic.  The scan's cases, the left subsets in order
    times the right table, are the block in its construction order."""
    for n in range(10):
        for k in range(n + 1):
            split = n - k
            for j in range(max_pairs(n, k) + 1):
                block = iota_block(n, k, j)
                assert [pairs for pairs, _ in sorted(block)] == [
                    rho.pairs for rho in enumerate_partial_partitions(n, k, j)
                ]
                for pairs, closed in block:
                    rho = PartialPartition(n, k, pairs)
                    (_, a), (_, b), sigma = partition_triple(rho)
                    assert pairs == tuple(zip(a, (b[s - 1] + split for s in sigma)))
                    assert closed == closed_form(rho)
                table = list(identities._iota_right_table(n, k, j))
                assert block == [
                    (tuple(zip(a, rights)), combinatorics.coset_inversions(split, a, False) + c)
                    for a in itertools.combinations(range(1, split + 1), j)
                    for rights, c in table
                ]


def enumerated_iota_labels(n_max):
    """(n, k, pairs) per iota' case in the enumerator's order, and the index
    of the first case of each (n, k, j) block."""
    labels, starts = [], []
    for n in range(n_max + 1):
        for k in range(n + 1):
            for j in range(max_pairs(n, k) + 1):
                starts.append(len(labels))
                labels.extend((n, k, rho.pairs) for rho in enumerate_partial_partitions(n, k, j))
    return labels, starts


def first_right_even(monkeypatch):
    """A mutant of the rights-only walk, wrong on every case whose first
    right endpoint in pairing order is even, in the scan and in the
    per-case walk of the oracle."""
    walk = combinatorics._iota_rights

    def off_by_one(rights):
        return walk(rights) + (bool(rights) and rights[0] % 2 == 0)

    for module in (identities, combinatorics):
        monkeypatch.setattr(module, "_iota_rights", off_by_one)


def last_left_odd(monkeypatch):
    """A mutant of iota(A), which the scan reads once per left subset A,
    wrong on every case whose last left endpoint is odd, in the scan and
    in the closed form of the oracle."""
    counted = combinatorics.coset_inversions

    def off_by_one(n, chosen, chosen_first):
        return counted(n, chosen, chosen_first) + (not chosen_first and bool(chosen) and chosen[-1] % 2 == 1)

    for module in (identities, combinatorics):
        monkeypatch.setattr(module, "coset_inversions", off_by_one)


def test_iota_violations_come_in_enumerator_order(monkeypatch):
    """Blocks stream in construction order, yet violations and the flipped
    case are those of the enumerator's order."""
    labels, starts = enumerated_iota_labels(8)
    failing = [i for i, (_, _, pairs) in enumerate(labels) if pairs and pairs[0][1] % 2 == 0]
    first_right_even(monkeypatch)
    report = iota_prime_identity_scan(8)
    assert report.cases == len(labels)
    assert len({(n, k, len(pairs)) for n, k, pairs in report.violations}) > 30  # many blocks
    assert report.violations == [labels[i] for i in failing]
    # flipping a failed case clears it; flipping a passing one adds it
    passing = next(i for i in range(len(labels)) if i not in failing and labels[i][2])
    for fault, flagged in [
        (failing[40], failing[:40] + failing[41:]),
        (passing, sorted(failing + [passing])),
    ]:
        assert iota_prime_identity_scan(8, fault=fault).violations == [labels[i] for i in flagged]
    monkeypatch.undo()
    ends = [s - 1 for s in starts[1:]] + [len(labels) - 1]
    for fault in sorted({0, len(labels) - 1, *starts, *ends}):
        assert iota_prime_identity_scan(8, fault=fault).violations == [labels[fault]]
        assert iota_prime_identity_scan(8, fault=fault + 5 * len(labels)).violations == [labels[fault]]


def test_a_wrong_sigma_entry_fails_exactly_its_cases(monkeypatch):
    """A mutant on the closed-form side: one entry of ``_sigma_table(3)``
    off by one fails exactly the cases built with that sigma."""
    table = identities._sigma_table

    def perturbed(j):
        entries = table(j)
        if j != 3:
            return entries
        pick, inv = entries[3]
        return entries[:3] + ((pick, inv + 1),) + entries[4:]

    sigma = tuple(s + 1 for s in list(itertools.permutations(range(3)))[3])
    labels, _ = enumerated_iota_labels(8)
    built_with_sigma = [
        (n, k, pairs) for n, k, pairs in labels
        if len(pairs) == 3 and partition_triple(PartialPartition(n, k, pairs))[2] == sigma
    ]
    monkeypatch.setattr(identities, "_sigma_table", perturbed)
    report = iota_prime_identity_scan(8)
    assert report.cases == len(labels)
    assert 6 * len(built_with_sigma) == sum(len(pairs) == 3 for _, _, pairs in labels) > 200
    assert report.violations == built_with_sigma


def test_the_walk_runs_once_per_right_table_entry(monkeypatch):
    """The rights-only walk runs once per entry of each block's right
    table, not once per case."""
    walk, walked = identities._iota_rights, []
    monkeypatch.setattr(identities, "_iota_rights", lambda rights: walked.append(rights) or walk(rights))
    report = iota_prime_identity_scan(10)
    entries = sum(
        len(list(identities._iota_right_table(n, k, j)))
        for n in range(11) for k in range(n + 1) for j in range(max_pairs(n, k) + 1)
    )
    assert report.passed and (report.cases, len(walked)) == (7_083, 2_199) == (report.cases, entries)


def test_iota_scan_holds_a_block_as_verdicts():
    """A block is held as booleans beside one right table, not as a tuple
    per case: at n = 11 a tuple per case peaked at about 1.1 MB."""
    iota_prime_identity_scan(11)  # the memos the scan reads are warm
    tracemalloc.start()
    try:
        report = iota_prime_identity_scan(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.cases == 20_371
    assert peak < 250_000


def test_scans_stream_every_counted_case():
    for report, cases in [
        (claim_scan(9, 3), identities.check_budget("claim", 9, 3)),
        (claim_scan(7, 2, "prime-prime"), identities.check_budget("claim", 7, 2)),
        (two_mode_scan(5, 2), identities.check_budget("two-mode", 5, 2)),
        (inclusion_exclusion_sweep(4, 3), identities.check_budget("sweep", 4, 3)),
        (iota_prime_identity_scan(10), identities.check_budget("iota", 10, 1)),
    ]:
        assert report.cases == cases


def test_finalize_refuses_a_miscounted_stream():
    blocks = [([True], "a".__getitem__), ([], None), ([True], "b".__getitem__)]
    assert identities._finalize("scan", iter(blocks), 2, 3).violations == ["b"]
    for cases in (1, 3):
        with pytest.raises(RuntimeError, match="streamed 2 cases"):
            identities._finalize("scan", iter(blocks), cases, None)


def test_finalize_labels_only_violations():
    named = []

    def label(t):
        named.append(t)
        return f"case {t}"

    blocks = [([True, True], label), ([True, False, True, False], label), ([True], label)]
    assert identities._finalize("scan", iter(blocks), 7, None).violations == ["case 1", "case 3"]
    assert named == [1, 3]
    # the flip lands in the first block, which is otherwise all true
    assert identities._finalize("scan", iter(blocks), 7, 1).violations == ["case 1", "case 1", "case 3"]
    # flipping a failed case clears it
    assert identities._finalize("scan", iter(blocks), 7, 3 + 7).violations == ["case 3"]
    assert blocks[1][0] == [True, False, True, False]  # the flip copies its block


# ---------------------------------------------------------------------------
# the per-case streams the block scans replaced, as oracles: one (ok, label)
# per case through oracle_finalize


def per_case_iota_scan(n_max, fault=None):
    cases = identities.check_budget("iota", n_max, 1)
    flip = -1 if fault is None else fault % cases

    def verdicts():
        start = 0
        for n in range(n_max + 1):
            for k in range(n + 1):
                for j in range(max_pairs(n, k) + 1):
                    block = iota_block(n, k, j)
                    if start <= flip < start + len(block):
                        block.sort()
                    start += len(block)
                    for pairs, closed in block:
                        lefts, rights = [l for l, _ in pairs], [r for _, r in pairs]
                        yield combinatorics._iota_walk(lefts, rights) == closed, (n, k, pairs)

    report = oracle_finalize(f"iota-prime closed form (n <= {n_max})", verdicts(), cases, fault)
    report.violations.sort(key=lambda label: (label[0], label[1], len(label[2]), label[2]))
    return report


def per_case_claim_scan(n_max, m_max, reading, fault=None):
    cases = identities.check_budget("claim", n_max, m_max)
    notes = {}

    def verdicts():
        for n in range(2, n_max + 1):
            for k in range(n + 1):
                for m in range(1, min(m_max, max_pairs(n, k)) + 1):
                    for pi in enumerate_partial_partitions(n, k, m):
                        value = alternating_claim(pi, reading)
                        ok = value.is_zero()
                        if not ok and "first_nonzero" not in notes:
                            notes["first_nonzero"] = {"n": n, "k": k, "pairs": pi.pairs, "value": str(value)}
                        yield ok, (n, k, pi.pairs)

    return oracle_finalize(f"alternating claim ({reading})", verdicts(), cases, fault, notes)


def straddling_sizes(n, k, js):
    return [comb(n - k, j) * comb(k, j) * factorial(j) for j in js]


def block_ends(sizes):
    """Index of the first and the last case of every nonempty block."""
    ends, start = set(), 0
    for size in sizes:
        if size:
            ends |= {start, start + size - 1}
        start += size
    return sorted(ends)


BLOCK_SIZES = {
    "iota": lambda n_max, _: [
        size for n in range(n_max + 1) for k in range(n + 1)
        for size in straddling_sizes(n, k, range(max_pairs(n, k) + 1))
    ],
    "claim": lambda n_max, m_max: [
        size for n in range(2, n_max + 1) for k in range(n + 1)
        for size in straddling_sizes(n, k, range(1, min(m_max, max_pairs(n, k)) + 1))
    ],
    "two-mode": lambda n_max, d: [
        d ** n * (max_pairs(n, k) + 1) for n in range(n_max + 1) for k in range(n + 1)
    ],
    "sweep": lambda n_max, d: [d ** n for n in range(n_max + 1) for k in range(n + 1)],
}


@pytest.mark.parametrize(
    "scan, n_max, size", [("iota", 7, 1), ("claim", 7, 3), ("two-mode", 4, 2), ("sweep", 4, 2)]
)
def test_block_sizes_sum_to_the_budget_count(scan, n_max, size):
    assert sum(BLOCK_SIZES[scan](n_max, size)) == identities.check_budget(scan, n_max, size)


def test_iota_blocks_match_the_per_case_stream():
    ends = block_ends(BLOCK_SIZES["iota"](7, 1))
    assert len(ends) > 100
    for fault in [None, *ends, ends[-1] + 17 * len(ends)]:
        got, expected = iota_prime_identity_scan(7, fault=fault), per_case_iota_scan(7, fault)
        assert got == expected
        assert len(got.violations) == (fault is not None)


def test_iota_blocks_match_the_per_case_stream_at_the_admitted_edge():
    # n = 11 is the largest n_max that SCAN_BUDGET admits
    ends = block_ends(BLOCK_SIZES["iota"](11, 1))
    for fault in [None, *ends[::7], ends[-1]]:
        got, expected = iota_prime_identity_scan(11, fault=fault), per_case_iota_scan(11, fault)
        assert got == expected and got.cases == 20_371
        assert len(got.violations) == (fault is not None)


def test_iota_blocks_match_the_per_case_stream_with_many_violations():
    ends = block_ends(BLOCK_SIZES["iota"](7, 1))
    for mutant in (first_right_even, last_left_odd):
        with pytest.MonkeyPatch.context() as patch:
            mutant(patch)
            for fault in [None, *ends[::7], ends[-1]]:
                got, expected = iota_prime_identity_scan(7, fault=fault), per_case_iota_scan(7, fault)
                assert got == expected
                assert len(got.violations) > 100


@pytest.mark.parametrize("reading", ["prime-plain", "prime-prime"])
def test_claim_blocks_match_the_per_case_stream(reading):
    ends = block_ends(BLOCK_SIZES["claim"](7, 3))
    assert len(ends) > 40
    for fault in [None, *ends]:
        got, expected = claim_scan(7, 3, reading, fault=fault), per_case_claim_scan(7, 3, reading, fault)
        assert got == expected
        assert (got.notes == {}) == (reading == "prime-plain")


@pytest.mark.parametrize("scan, oracle", [
    ("two-mode", lambda n_max, d, fault: oracle_two_mode_scan(n_max, d, fault)),
    ("sweep", lambda n_max, d, fault: oracle_inclusion_exclusion_sweep(n_max, d, fault)),
])
def test_pattern_blocks_match_the_per_case_stream(scan, oracle):
    run = two_mode_scan if scan == "two-mode" else inclusion_exclusion_sweep
    ends = block_ends(BLOCK_SIZES[scan](4, 2))
    for fault in [None, *ends]:
        got, expected = run(4, 2, fault=fault), oracle(4, 2, fault)
        assert got == expected
        assert len(got.violations) == (fault is not None)


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("scan", [
    lambda: iota_prime_identity_scan(5),
    lambda: claim_scan(6, 2),
    lambda: claim_scan(6, 2, "prime-prime"),
    lambda: two_mode_scan(3, 2),
    lambda: inclusion_exclusion_sweep(3, 2),
])
def test_a_miscounted_scan_is_a_fault(monkeypatch, shift, scan):
    counted = identities.check_budget
    monkeypatch.setattr(identities, "check_budget", lambda *args: counted(*args) + shift)
    with pytest.raises(RuntimeError, match="streamed"):
        scan()


def test_fault_labels_are_pinned():
    # the case each fault index flips: labels and order are part of the output
    pinned = [(10, 5, ((1, 10), (2, 6), (3, 7), (5, 8)))]
    assert iota_prime_identity_scan(10, fault=12345).violations == pinned
    assert iota_prime_identity_scan(6, fault=5).violations == [(2, 1, ((1, 2),))]
    assert claim_scan(9, 3, fault=1000).violations == [(9, 3, ((1, 8), (6, 7)))]
    assert inclusion_exclusion_sweep(5, 2, fault=100).violations == ["1,1,2,2"]
    assert two_mode_scan(4, 2, fault=100).violations == [(4, 1, 1, "1,2,2,2")]


def test_iota_scan_never_revalidates_a_partition(monkeypatch):
    """The scan builds block-respecting pair tuples from their triples and
    trusts them; the closed form it compares against never reads iota'."""
    monkeypatch.setattr(PartialPartition, "respects_block", _entered)
    monkeypatch.setattr(combinatorics, "iota_prime", _entered)
    monkeypatch.setattr(combinatorics, "_iota_prime_pairs", _entered)
    report = iota_prime_identity_scan(6)
    assert report.passed and report.cases == 160
    with pytest.raises(AssertionError):  # the public forms still validate
        partition_triple(PartialPartition(4, 2, ((1, 3),)))


# ---------------------------------------------------------------------------
# the object-building claim the pair-tuple route replaced, as an oracle


def oracle_relabeled_remainder(pi, chosen):
    removed = {x for p in chosen for x in p}
    relabel = {}
    for p in range(1, pi.n + 1):
        if p not in removed:
            relabel[p] = len(relabel) + 1
    pairs = tuple(
        (relabel[a], relabel[b]) for a, b in pi.pairs if a not in removed and b not in removed
    )
    return PartialPartition(pi.n - 2 * len(chosen), pi.k - len(chosen), pairs)


def oracle_alternating_claim(pi, reading):
    total = QPolynomial.zero()
    for j in range(len(pi.pairs) + 1):
        for chosen in itertools.combinations(pi.pairs, j):
            rho = PartialPartition(pi.n, pi.k, chosen)
            sigma = oracle_relabeled_remainder(pi, chosen)
            if reading == "prime-plain":
                expo = oracle_iota_prime(rho) + oracle_crossings(sigma)
            else:
                expo = oracle_iota_prime(rho) + oracle_iota_prime(sigma)
            term = QPolynomial.monomial(expo)
            total = total - term if j % 2 else total + term
    return total


def test_claim_matches_object_oracle_both_readings():
    checked = nonzero = 0
    for n in range(8):
        for k in range(n + 1):
            for m in range(max_pairs(n, k) + 1):
                for pi in enumerate_partial_partitions(n, k, m):
                    for reading in ("prime-plain", "prime-prime"):
                        value = alternating_claim(pi, reading)
                        expected = oracle_alternating_claim(pi, reading)
                        assert value == expected and str(value) == str(expected)
                        nonzero += not value.is_zero()
                        checked += 1
    assert checked == 2 * 384
    assert nonzero > 100  # the prime-prime reading leaves survivors to compare


def oracle_claim_scan(n_max, m_max, reading, fault=None):
    """The claim scan with one alternating sum per case, the reference for
    the scan that shares a sum between cases with the same pair tuple."""
    results, notes = [], {}
    for n in range(2, n_max + 1):
        for k in range(n + 1):
            for m in range(1, min(m_max, max_pairs(n, k)) + 1):
                for pi in enumerate_partial_partitions(n, k, m):
                    value = alternating_claim(pi, reading)
                    ok = value.is_zero()
                    results.append((ok, (n, k, pi.pairs)))
                    if not ok and "first_nonzero" not in notes:
                        notes["first_nonzero"] = {"n": n, "k": k, "pairs": pi.pairs, "value": str(value)}
    if fault is not None:
        ok, label = results[fault % len(results)]
        results[fault % len(results)] = (not ok, label)
    violations = [label for ok, label in results if not ok]
    return identities.ScanReport(f"alternating claim ({reading})", len(results), violations, notes)


@pytest.mark.parametrize("reading", ["prime-plain", "prime-prime"])
def test_claim_scan_matches_per_case_oracle(reading):
    for n_max in range(2, 9):
        for m_max in range(1, 4):
            for fault in (None, 0, 7, 12345):
                got = claim_scan(n_max, m_max, reading, fault)
                want = oracle_claim_scan(n_max, m_max, reading, fault)
                assert (got.cases, got.violations, got.notes, got.summary()) == (
                    want.cases, want.violations, want.notes, want.summary()
                )


def test_claim_scan_sums_once_per_pair_tuple(monkeypatch):
    summed = []
    real = identities._alternating_sum

    def counted(pairs, reading):
        summed.append(pairs)
        return real(pairs, reading)

    monkeypatch.setattr(identities, "_alternating_sum", counted)
    report = claim_scan(9, 3, "prime-prime")
    assert not report.passed and report.cases == 2244
    assert len(summed) == len(set(summed)) == 792


def test_prime_plain_claim_scan_keeps_no_sums(monkeypatch):
    # every prime-plain sum is 0 at once, so each case asks for its own
    summed = []
    real = identities._alternating_sum

    def counted(pairs, reading):
        summed.append(pairs)
        return real(pairs, reading)

    monkeypatch.setattr(identities, "_alternating_sum", counted)
    report = claim_scan(9, 3)
    assert report.passed and report.cases == len(summed) == 2244
    assert len(set(summed)) == 792


def _raises(*args, **kwargs):
    raise AssertionError("a 2^m subset sum was entered")


def test_prime_plain_claim_scan_visits_no_subset(monkeypatch):
    """Every straddling pair tuple sums to 0 by the lemma of
    ``alternating_claim``, so the statistic of the subset loop never runs."""
    monkeypatch.setattr(identities, "_iota_prime_pairs", _raises)
    report = claim_scan(9, 3)
    assert report.passed and report.cases == 2244


def distinct_straddling_tuples(n_max, m_max):
    """{pairs: the first partition with them} over every split up to n_max."""
    first = {}
    for n in range(2, n_max + 1):
        for k in range(n + 1):
            for m in range(1, min(m_max, max_pairs(n, k)) + 1):
                for pi in enumerate_partial_partitions(n, k, m):
                    first.setdefault(pi.pairs, pi)
    return first


def toggle_cancels(pairs):
    """True when moving p* = (ls, rs), the last of the pairs (sorted by left
    endpoint), between the inserted set C and the leftover keeps the
    exponent iota'(C) + cr(sigma(C)) of the prime-plain reading for every
    C; then the alternating sum over splittings cancels in pairs and is 0.
    This checks the lemma of ``alternating_claim`` on the closed forms.

    p* sorts last in C + {p*}: it adds its own rs - ls - 1, and each
    earlier chosen pair e loses one from the -C(j, 2) term and gains one if
    it ends beyond rs::

        iota'(C + {p*}) - iota'(C) = (rs - ls - 1) + sum_{e in C} (-1 + [r_e > rs])

    Removing p*'s two points from the leftover keeps the order of the other
    points and only shortens the pairs around them; p* leaves its own
    length (less the chosen endpoints inside it) and its crossings (1) and
    nestings (2) with leftover pairs (rel(e, p*), 0 when disjoint)::

        cr(sigma(C)) - cr(sigma(C + {p*})) = (rs - ls - 1)
            - sum_{e in C} #{endpoints of e inside (ls, rs)}
            + sum_{e not in C} (#{ls, rs inside e} - rel(e, p*))

    So the toggle keeps the exponent for every C when each other pair e
    has -1 + [r_e > rs] + #{its endpoints inside (ls, rs)} = 0 and
    #{ls, rs inside e} = rel(e, p*).  On a straddling tuple every other e
    has l_e < ls < r_e: its right endpoint is inside (ls, rs) exactly when
    r_e < rs, which gives the first equation; ls is inside e, and rs is
    inside e exactly when e nests around p*, when rel(e, p*) is 2, else 1,
    which gives the second.
    """
    ls, rs = pairs[-1]
    for l, r in pairs[:-1]:
        inside = (ls < l < rs) + (ls < r < rs)
        covered = (l < ls < r) + (l < rs < r)
        # l < ls, so e and p* are disjoint, cross or nest, in this order
        rel = 0 if r < ls else 1 if r < rs else 2
        if (r > rs) - 1 + inside or covered != rel:
            return False
    return True


def test_toggle_certificate_examples():
    assert toggle_cancels(((1, 4), (2, 5)))  # crossing
    assert toggle_cancels(((1, 6), (2, 5)))  # nesting
    assert not toggle_cancels(((1, 2), (3, 4)))  # disjoint: does not straddle


def test_toggle_certificate_holds_where_the_object_oracle_cancels():
    tuples = distinct_straddling_tuples(10, 5)
    assert len(tuples) == 2925
    for pairs, pi in tuples.items():
        assert toggle_cancels(pairs)
        assert oracle_alternating_claim(pi, "prime-plain").is_zero()
        assert alternating_claim(pi).is_zero()


def pair_tuples(n_max, m_max):
    """Every tuple of 1..m_max disjoint pairs inside {1..n_max}, each pair
    low endpoint first, sorted by left endpoint; straddling or not."""
    def matchings(points):
        if not points:
            yield ()
            return
        for i in range(1, len(points)):
            for rest in matchings(points[1:i] + points[i + 1 :]):
                yield ((points[0], points[i]),) + rest

    for m in range(1, m_max + 1):
        for points in itertools.combinations(range(1, n_max + 1), 2 * m):
            yield from matchings(points)


def closed_form_subset_sum(pairs):
    """{exponent: signed count} of the prime-plain sum over all 2^m
    splittings, with both statistics in closed form on the pair tuples;
    on a tuple that does not straddle, iota' can go negative."""
    hist = {}
    for j in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, j):
            removed = {x for p in chosen for x in p}
            relabel = {}
            for x in range(1, max(r for _, r in pairs) + 1):
                if x not in removed:
                    relabel[x] = len(relabel) + 1
            sigma = tuple((relabel[l], relabel[r]) for l, r in pairs if (l, r) not in chosen)
            expo = combinatorics._iota_prime_pairs(chosen) + combinatorics.crossings(sigma)
            hist[expo] = hist.get(expo, 0) + (-1) ** j
    return {e: c for e, c in hist.items() if c}


def test_toggle_certificate_fails_where_the_subset_sum_survives():
    """The certificate holds on exactly the straddling tuples, and wherever
    the closed-form subset sum survives it returns False.  The
    insertion-built object oracle cancels on every tuple up to this size,
    straddling or not; its statistics read no block, and k = m is the
    least block size its relabelled remainders accept."""
    straddling = set(distinct_straddling_tuples(8, 3))
    surviving = 0
    for pairs in pair_tuples(8, 3):
        survives = bool(closed_form_subset_sum(pairs))
        certificate = toggle_cancels(pairs)
        assert certificate == (pairs in straddling)
        assert not (survives and certificate)
        surviving += survives
        assert oracle_alternating_claim(PartialPartition(8, len(pairs), pairs), "prime-plain").is_zero()
    assert closed_form_subset_sum(((1, 2), (3, 4))) == {-1: 1, 0: -1}
    assert surviving == 294 and len(straddling) == 336


def test_sweep_fault_flips_one_real_comparison():
    clean = inclusion_exclusion_sweep(n_max=3, d=2)
    labels = {word_to_str(w, 2) or "vac" for n in range(4) for w in word_basis(n, 2)}
    for fault in (0, 7, 12345):
        report = inclusion_exclusion_sweep(n_max=3, d=2, fault=fault)
        assert report.cases == clean.cases
        assert len(report.violations) == 1
        assert report.violations[0] in labels


# ---------------------------------------------------------------------------
# work budget: the case counts are arithmetic, checked before any work


def claim_cases(n_max, m_max):
    return sum(
        comb(n - k, m) * comb(k, m) * factorial(m)
        for n in range(2, n_max + 1)
        for k in range(n + 1)
        for m in range(1, m_max + 1)
    )


def test_budget_counts_are_the_case_counts(set_bound):
    scans = [
        (lambda: claim_scan(6, 2), claim_cases(6, 2)),
        (lambda: two_mode_scan(4, 2), 1 + 2 * 2 + 4 * 4 + 8 * 6 + 16 * 9),
        (lambda: inclusion_exclusion_sweep(3, 2), 1 + 2 * 2 + 3 * 4 + 4 * 8),
    ]
    for run, cases in scans:
        set_bound("SCAN_BUDGET", cases)
        assert run().cases == cases
        set_bound("SCAN_BUDGET", cases - 1)
        with pytest.raises(ValueError, match="budget"):
            run()


def test_budget_admits_the_documented_inputs():
    # benchmark, README and acceptance sizes
    for scan, n_max, size in [
        ("claim", 9, 3), ("claim", 12, 4), ("two-mode", 6, 2), ("two-mode", 4, 3),
        ("two-mode", 11, 1),
        ("sweep", 5, 2), ("sweep", 6, 3),
        ("iota", 8, 1), ("iota", 10, 1), ("iota", 11, 1),
    ]:
        assert identities.check_budget(scan, n_max, size) <= bound("SCAN_BUDGET")


def _entered(*args, **kwargs):
    raise AssertionError("the scan started before the budget check")


def test_oversized_scans_are_refused_before_work(monkeypatch):
    monkeypatch.setattr(identities, "_straddling_pairs", _entered)
    monkeypatch.setattr(identities, "_iota_right_table", _entered)
    monkeypatch.setattr(identities, "word_basis", _entered)
    monkeypatch.setattr(identities, "_pattern_labels", _entered)
    monkeypatch.setattr(identities, "_finalize", _entered)
    for run in (
        lambda: claim_scan(40, 10),
        lambda: claim_scan(13, 4),
        lambda: two_mode_scan(30, 2),
        lambda: two_mode_scan(10, 2),
        lambda: two_mode_scan(13, 1),
        lambda: inclusion_exclusion_sweep(40, 3),
        lambda: inclusion_exclusion_sweep(12, 2),
        lambda: iota_prime_identity_scan(12),
    ):
        with pytest.raises(ValueError, match="budget"):
            run()
