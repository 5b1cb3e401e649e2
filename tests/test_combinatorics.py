import itertools
from collections import Counter
from math import comb, factorial, perm

import pytest
from hypothesis import given, strategies as st
from matchings import enumerate_pair_partitions, enumerate_partial_partitions, singletons

from qfock.combinatorics import (
    PartialPartition,
    _iota_rights,
    _straddling_pairs,
    coset_data,
    coset_inversions,
    count_patterns,
    crossings,
    inversions,
    iota_prime,
    max_pairs,
    partition_triple,
    pattern,
    patterns,
)
from qfock.identities import _iota_right_table

FIG_A = PartialPartition(8, 4, ((2, 5), (4, 7)))
FIG_B = PartialPartition(8, 4, ((1, 6), (2, 5)))
FIG_C = PartialPartition(8, 4, ((1, 6), (2, 5), (4, 7)))


def closed_form(rho):
    """iota(A) + iota(B) + inversions(sigma) + C(j,2) on the triple of
    ``partition_triple``: the inversions of the complement-first coset
    representative of A, of the chosen-first one of B, and of sigma.  It
    never evaluates the insertion statistic.

    >>> closed_form(PartialPartition(8, 4, ((1, 6), (2, 5))))
    6
    """
    a, b, sigma = partition_triple(rho)
    return (
        coset_data(a)[1]
        + coset_data(b, chosen_first=True)[1]
        + inversions(sigma)
        + comb(len(sigma), 2)
    )


def test_inversions():
    assert inversions(range(1, 6)) == 0
    assert inversions((2, 1)) == 1
    assert inversions((1, 3, 2, 4)) == 1
    assert inversions([3, 1, 2, 4]) == 2


def test_coset_word_orientations():
    assert coset_data((4, (3, 4))) == ((1, 2, 3, 4), 0)
    assert coset_data((4, (2, 4))) == ((1, 3, 2, 4), 1)
    assert coset_data((4, (1, 2, 4))) == ((3, 1, 2, 4), 2)
    assert coset_data((4, (1, 3)), chosen_first=True) == ((1, 3, 2, 4), 1)
    assert coset_data((4, (1, 2, 3)), chosen_first=True) == ((1, 2, 3, 4), 0)
    assert coset_data((0, ())) == ((), 0)


def test_coset_representative_is_minimal():
    """The two-ascending-runs word minimizes inversions over its coset."""
    for n in range(1, 7):
        for size in range(n + 1):
            for chosen in itertools.combinations(range(1, n + 1), size):
                for chosen_first in (False, True):
                    rep, count = coset_data((n, chosen), chosen_first)
                    complement = set(range(1, n + 1)) - set(chosen)
                    first = set(chosen) if chosen_first else complement
                    best = min(
                        inversions(w)
                        for w in itertools.permutations(range(1, n + 1))
                        if set(w[: len(first)]) == first
                    )
                    assert count == best
                    assert set(rep[: len(first)]) == first


def test_coset_inversions_count_the_representative_by_brute_force():
    for n in range(9):
        for size in range(n + 1):
            for chosen in itertools.combinations(range(1, n + 1), size):
                rest = [a for a in range(1, n + 1) if a not in chosen]
                for chosen_first in (False, True):
                    rep = list(chosen) + rest if chosen_first else rest + list(chosen)
                    brute = sum(
                        rep[i] > rep[j] for i in range(n) for j in range(i + 1, n)
                    )
                    assert coset_inversions(n, chosen, chosen_first) == brute


# the three lemmas behind the ι′ scan's closed form, one test each


def _brute_inversions(word):
    return sum(a > b for a, b in itertools.combinations(word, 2))


def test_left_coset_lemma_sum_plus_iota_is_fixed_by_the_size():
    # sum(A) + ι(A) = j·m − C(j,2) for every j-subset A of {1..m}
    for m in range(11):
        for j in range(m + 1):
            for a in itertools.combinations(range(1, m + 1), j):
                assert sum(a) + coset_inversions(m, a, False) == j * m - comb(j, 2)


def test_right_coset_lemma_iota_is_the_sum_less_the_least():
    # ι(B) = sum(B) − C(j+1,2), the least sum of a j-subset, chosen-first
    for k in range(10):
        for j in range(k + 1):
            for b in itertools.combinations(range(1, k + 1), j):
                assert coset_inversions(k, b, True) == sum(b) - comb(j + 1, 2)


def test_insertion_walk_lemma_reads_the_sum_and_the_inversions():
    # _iota_rights(t) = sum(t) + inv(t) − C(j+1,2) for distinct values t_1..t_j
    for j in range(8):
        for sigma in itertools.permutations(range(1, j + 1)):
            assert _iota_rights(sigma) == sum(sigma) + _brute_inversions(sigma) - comb(j + 1, 2)
    entries = 0
    for n in range(11):
        for k in range(n + 1):
            for j in range(min(k, n - k) + 1):
                for rights, _ in _iota_right_table(n, k, j):
                    assert _iota_rights(rights) == sum(rights) + _brute_inversions(rights) - comb(j + 1, 2)
                    entries += 1
    assert entries == 2199  # the walks of the ι′ scan to n = 10


def test_crossings_on_figures():
    assert crossings(FIG_A) == 3
    assert crossings(FIG_B) == 4
    assert crossings(PartialPartition(5, 2, ())) == 0


def test_crossings_multiset_m4():
    counts = sorted(crossings(p) for p in enumerate_pair_partitions(4))
    assert counts == [0, 0, 1]


def oracle_nestings(pairs):
    return sum(
        a < c and d < b for (a, b), (c, d) in itertools.permutations(pairs, 2)
    )


@pytest.mark.parametrize("m", range(0, 11, 2))
def test_crossings_and_nestings_are_equidistributed(m):
    # Chen, Deng, Du, Stanley, Yan 2007: over the matchings of [m] the joint
    # (crossings, nestings) histogram is symmetric
    hist = Counter(
        (crossings(rho), oracle_nestings(rho.pairs)) for rho in enumerate_pair_partitions(m)
    )
    assert sum(hist.values()) == factorial(m) // (2 ** (m // 2) * factorial(m // 2))
    assert all(hist[(nest, cross)] == count for (cross, nest), count in hist.items())
    if m >= 4:
        assert any(cross != nest for cross, nest in hist)


def test_pair_partition_counts():
    for n in range(1, 6):
        seen = list(enumerate_pair_partitions(2 * n))
        assert len(seen) == len(set(seen))
        double_fact = 1
        for i in range(1, 2 * n, 2):
            double_fact *= i
        assert len(seen) == double_fact
    assert list(enumerate_pair_partitions(3)) == []
    assert len(list(enumerate_pair_partitions(2))) == 1


def test_pair_partitions_are_lexicographic_and_lazy():
    for m in range(0, 11, 2):
        seen = [rho.pairs for rho in enumerate_pair_partitions(m)]
        assert seen == sorted(seen)
    # 59!! matchings: only a generator that never materializes them returns
    first = next(enumerate_pair_partitions(60))
    assert first.pairs == tuple((2 * i + 1, 2 * i + 2) for i in range(30))
    # C(20,10)^2 * 10! straddling partitions: the same holds for the block walk
    assert next(_straddling_pairs(40, 20, 10)) == tuple((i, 20 + i) for i in range(1, 11))


def test_straddling_pairs_match_the_independent_enumerator():
    """The package's block walk yields, in order, the pair tuples of the
    validated partitions that the test enumerator builds from left and
    right endpoint subsets, and none for j above min(k, n - k)."""
    for n in range(9):
        for k in range(n + 1):
            for j in range(max_pairs(n, k) + 2):
                walked = list(_straddling_pairs(n, k, j))
                assert walked == [rho.pairs for rho in enumerate_partial_partitions(n, k, j)]
                assert len(walked) == comb(n - k, j) * comb(k, j) * factorial(j)


def test_iota_prime_on_figures():
    assert iota_prime(FIG_B) == 6
    assert iota_prime(FIG_A) == 3
    assert iota_prime(FIG_C) == 6
    assert iota_prime(PartialPartition(8, 4, ())) == 0


def test_iota_prime_rejects_block_violation():
    with pytest.raises(ValueError):
        iota_prime(PartialPartition(4, 2, ((1, 2),)))


def test_partition_triple_on_figures():
    a, b, sigma = partition_triple(FIG_A)
    assert a == (4, (2, 4))
    assert b == (4, (1, 3))
    assert sigma == (1, 2)
    assert coset_data(a)[1] == 1
    assert coset_data(b, chosen_first=True)[1] == 1
    assert closed_form(FIG_A) == 3

    a, b, sigma = partition_triple(FIG_C)
    assert a == (4, (1, 2, 4)) and sigma == (2, 1, 3)
    assert coset_data(a)[1] == 2
    assert coset_data(b, chosen_first=True)[1] == 0
    assert inversions(sigma) == 1
    assert closed_form(FIG_C) == 2 + 0 + 1 + comb(3, 2)


def test_partition_triple_empty():
    a, b, sigma = partition_triple(PartialPartition(6, 2, ()))
    assert a == (4, ()) and b == (2, ()) and sigma == ()
    assert closed_form(PartialPartition(6, 2, ())) == 0


def test_enumeration_contains_figure_partition():
    assert FIG_A.pairs in _straddling_pairs(8, 4, 2)
    assert FIG_A in enumerate_partial_partitions(8, 4, 2)


def test_closed_form_matches_recursion_exhaustively():
    """iota' = iota(A) + iota(B) + inv(sigma) + C(j,2) over every block partition."""
    checked = 0
    for n in range(0, 7):
        for k in range(0, n + 1):
            for j in range(0, max_pairs(n, k) + 1):
                for rho in enumerate_partial_partitions(n, k, j):
                    assert iota_prime(rho) == closed_form(rho)
                    checked += 1
    assert checked > 150


def test_single_pair_iota_prime_is_crossings():
    for n in range(2, 8):
        for k in range(1, n):
            for rho in enumerate_partial_partitions(n, k, 1):
                assert iota_prime(rho) == crossings(rho)


def test_singletons_derived():
    assert singletons(FIG_A) == (1, 3, 6, 8)
    matching = PartialPartition(4, 0, ((4, 3), (1, 2)))
    assert matching.pairs == ((1, 2), (3, 4)) and singletons(matching) == ()
    assert singletons(PartialPartition(4, 0, ((1, 2),))) == (3, 4)
    with pytest.raises(ValueError):
        PartialPartition(4, 2, ((1, 3), (3, 4)))


# ---------------------------------------------------------------------------
# oracles: the set-based routes the pair-tuple arithmetic replaced


def oracle_iota_prime(rho):
    """Insert pairs by decreasing left endpoint, recounting loose points."""
    pending = sorted(rho.pairs, reverse=True)
    total = 0
    inserted = []
    for idx, (l, r) in enumerate(pending):
        loose = set(singletons(rho))
        loose.update(x for p in pending[idx + 1 :] for x in p)
        total += sum(1 for m in loose if l < m < r)
        total += 2 * sum(1 for l2, r2 in inserted if l < l2 and r2 < r)
        inserted.append((l, r))
    return total


def oracle_crossings(rho):
    total = 0
    for (i, j), (k, l) in itertools.combinations(rho.pairs, 2):
        if k < j < l:
            total += 1
    for i, j in rho.pairs:
        total += sum(1 for s in singletons(rho) if i < s < j)
    return total


def all_block_partitions(n_max):
    for n in range(n_max + 1):
        for k in range(n + 1):
            for j in range(max_pairs(n, k) + 1):
                yield from enumerate_partial_partitions(n, k, j)


def test_iota_prime_matches_insertion_oracle_exhaustively():
    checked = 0
    for rho in all_block_partitions(9):
        expected = oracle_iota_prime(rho)
        assert iota_prime(rho) == expected
        checked += 1
    assert checked == 2563


def test_crossings_match_singleton_oracle():
    for rho in all_block_partitions(8):
        assert crossings(rho) == crossings(rho.pairs) == oracle_crossings(rho)
    for m in range(0, 11, 2):
        for rho in enumerate_pair_partitions(m):
            assert crossings(rho) == oracle_crossings(rho)
    # pairings that ignore the block split, disjoint and nested ones included
    for pairs in [((1, 2), (3, 4)), ((1, 6), (2, 3), (4, 5)), ((2, 7), (3, 9), (4, 5))]:
        rho = PartialPartition(10, 0, pairs)
        assert crossings(rho) == oracle_crossings(rho)


@st.composite
def block_pairings(draw):
    split = draw(st.integers(0, 12))
    k = draw(st.integers(0, 12))
    j = draw(st.integers(0, min(split, k)))
    lefts = draw(st.permutations(range(1, split + 1)))[:j]
    rights = draw(st.permutations(range(split + 1, split + k + 1)))[:j]
    return PartialPartition(split + k, k, tuple(zip(lefts, rights)))


@given(block_pairings())
def test_iota_prime_property(rho):
    assert iota_prime(rho) == oracle_iota_prime(rho) == closed_form(rho)
    assert crossings(rho.pairs) == oracle_crossings(rho)


def test_iota_prime_rejects_pairs_off_every_split():
    # disjoint pairs straddle no single split, whatever the right block
    for n, pairs in [(4, ((1, 2), (3, 4))), (7, ((1, 3), (4, 6)))]:
        for k in range(n + 1):
            with pytest.raises(ValueError):
                iota_prime(PartialPartition(n, k, pairs))
    assert iota_prime(PartialPartition(0, 0, ())) == 0


def test_public_constructor_still_validates():
    bad = [
        (4, 5, ()),  # right block larger than the ground set
        (4, 2, ((1, 3), (3, 4))),  # shared point
        (4, 2, ((0, 3),)),  # out of range
        (4, 2, ((2, 5),)),
        (4, 2, ((1, 3), (1, 3))),
    ]
    for n, k, pairs in bad:
        with pytest.raises(ValueError):
            PartialPartition(n, k, pairs)
    # unsorted input is normalized, not trusted
    assert PartialPartition(6, 3, ((5, 2), (1, 6))).pairs == ((1, 6), (2, 5))


# ---------------------------------------------------------------------------
# letter patterns: restricted growth strings


def stirling2(n, k):
    """S(n, k) by inclusion-exclusion over the empty blocks of a surjection."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


WORDS = st.lists(st.integers(0, 5), max_size=9)


@given(WORDS, st.permutations(range(6)))
def test_pattern_is_invariant_under_letter_bijections(word, relabel):
    assert pattern([relabel[x] for x in word]) == pattern(word)
    assert pattern(pattern(word)) == pattern(word)


@given(WORDS)
def test_words_with_one_pattern_are_one_relabeling_apart(word):
    p = pattern(word)
    # the letter of block b is the letter at the first position of block b
    firsts = [word[p.index(b)] for b in range(len(set(p)))]
    assert [firsts[b] for b in p] == list(word)
    assert len(set(firsts)) == len(firsts)


@pytest.mark.parametrize("n", range(8))
def test_patterns_count_set_partitions(n):
    for b in range(n + 2):
        got = list(patterns(n, b))
        assert len(got) == len(set(got)) == sum(stirling2(n, i) for i in range(b + 1))
        assert len(got) == count_patterns(n, b)
        assert got == sorted(got) and all(pattern(p) == p for p in got)
    for d in range(1, 5):
        # each pattern with b blocks is the orbit of (d)_b words
        assert sum(perm(d, len(set(p))) for p in patterns(n, d)) == d ** n


@pytest.mark.parametrize("n", range(9))
def test_pruned_patterns_are_the_filtered_ones(n):
    full = list(patterns(n, n))
    for blocks in range(n + 1):
        for min_size in (1, 2, 3):
            expected = [
                p for p in full
                if len(set(p)) <= blocks and min(Counter(p).values(), default=min_size) >= min_size
            ]
            assert list(patterns(n, blocks, min_size)) == expected


def test_count_patterns_caps_the_blocks_at_the_length():
    assert count_patterns(8, 10 ** 12) == count_patterns(8, 8) == 4140
    assert count_patterns(0, 0) == 1 and count_patterns(3, 0) == 0
