import collections
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfock import fock
from qfock.budget import bound
from qfock.combinatorics import inversions
from qfock.fock import (
    BlockOperator,
    FockVector,
    SpaceConfig,
    coordinate_projection,
    copy_count_projection,
    copy_mixing,
    first_copy_words,
    gram_matrix,
    parse_word,
    q_inner,
    second_copy_vector,
    second_quantize,
    word_basis,
    word_index,
    word_inner_poly,
    word_to_str,
)
from qfock.scalars import EXACT, QPolynomial, ScalarMode
from qfock.wick import wick_apply


def exact_cfg(d=2, copies=1, n=4):
    return SpaceConfig(d, copies, n, EXACT)


# ---------------------------------------------------------------------------
# oracle: ladder operators as dense degree-block matrices, filled entry by
# entry from the definitions; fields applied as degree-1 Wick products are
# checked against them


def basis_one_particle(code, cfg):
    one, zero = cfg.scalar.one(), cfg.scalar.zero()
    return tuple(one if i == code else zero for i in range(cfg.letters))


def _empty_block(cfg, target, source):
    shape = (cfg.dim(target), cfg.dim(source))
    if cfg.scalar.is_exact:
        return np.zeros(shape, dtype=object)
    return np.zeros(shape)


def ladder(h, kind, cfg):
    """Creation or annihilation by a one-particle vector, as block matrices."""
    assert len(h) == cfg.letters and kind in ("create", "annihilate")
    blocks = {}
    for n in range(cfg.max_degree + 1):
        basis = word_basis(n, cfg.letters)
        if kind == "create" and n < cfg.max_degree:
            mat = _empty_block(cfg, n + 1, n)
            target_index = word_index(n + 1, cfg.letters)
            for j, w in enumerate(basis):
                for code, weight in enumerate(h):
                    mat[target_index[(code,) + w], j] += weight
            blocks[(n + 1, n)] = mat
        if kind == "annihilate" and n >= 1:
            mat = _empty_block(cfg, n - 1, n)
            target_index = word_index(n - 1, cfg.letters)
            for j, w in enumerate(basis):
                for slot, code in enumerate(w):
                    row = target_index[w[:slot] + w[slot + 1 :]]
                    mat[row, j] += cfg.scalar.q_power(slot) * h[code]
            blocks[(n - 1, n)] = mat
    return BlockOperator(cfg, blocks)


def composed(a, b):
    """a after b, block by block: (t, s) sums a[(t, m)] @ b[(m, s)] over m."""
    blocks = {}
    for (t, m), left in a.blocks.items():
        for (m2, s), right in b.blocks.items():
            if m == m2:
                prod = left @ right
                blocks[(t, s)] = blocks[(t, s)] + prod if (t, s) in blocks else prod
    return BlockOperator(a.cfg, blocks)


def field_operator(h, cfg):
    # creation and annihilation blocks sit at distinct (target, source) keys
    create, annihilate = ladder(h, "create", cfg), ladder(h, "annihilate", cfg)
    return BlockOperator(cfg, {**create.blocks, **annihilate.blocks})


def one_particle_vectors(cfg):
    """Every basis letter plus two mixed vectors, one with q-dependent weights."""
    q, one = cfg.scalar.q_power(1), cfg.scalar.one()
    mixed = tuple(one * (-1) ** i * (i + 1) for i in range(cfg.letters))
    tilted = tuple(q * one if i % 2 else one - q for i in range(cfg.letters))
    return [basis_one_particle(c, cfg) for c in range(cfg.letters)] + [mixed, tilted]


def inner_by_definition(left, right):
    """Sum over all permutations, q^inversions per matching: the defining formula."""
    if len(left) != len(right):
        return QPolynomial.zero()
    total = QPolynomial.zero()
    n = len(left)
    for perm in itertools.permutations(range(n)):
        if all(left[i] == right[perm[i]] for i in range(n)):
            total = total + QPolynomial.monomial(inversions(tuple(p + 1 for p in perm)))
    return total


def test_recursive_inner_matches_definition():
    for degree in range(0, 5):
        for left in itertools.product(range(2), repeat=degree):
            for right in itertools.product(range(2), repeat=degree):
                assert word_inner_poly(left, right) == inner_by_definition(left, right)


def test_norm_of_constant_word_is_q_factorial():
    """<e1^n, e1^n> = prod_k (1 + q + ... + q^(k-1))."""
    for n in range(6):
        expect = QPolynomial.one()
        for k in range(1, n + 1):
            expect = expect * QPolynomial(tuple([1] * k))
        assert word_inner_poly((0,) * n, (0,) * n) == expect


def test_inner_examples():
    cfg = exact_cfg()
    e11 = FockVector.from_word(cfg, (0, 0))
    e12 = FockVector.from_word(cfg, (0, 1))
    e21 = FockVector.from_word(cfg, (1, 0))
    e1 = FockVector.from_word(cfg, (0,))
    assert q_inner(e11, e11) == QPolynomial((1, 1))
    assert q_inner(e12, e21) == QPolynomial.q()
    assert q_inner(e1, e11) == QPolynomial.zero()


def test_inner_symmetry():
    for degree in range(0, 4):
        for left in itertools.product(range(2), repeat=degree):
            for right in itertools.product(range(2), repeat=degree):
                assert word_inner_poly(left, right) == word_inner_poly(right, left)


def test_space_mismatch_rejected():
    a = FockVector.vacuum(exact_cfg(n=3))
    b = FockVector.vacuum(exact_cfg(n=4))
    with pytest.raises(ValueError):
        q_inner(a, b)


def test_enumerate_words():
    assert word_basis(0, 2) == ((),)
    assert len(word_basis(2, 2)) == 4
    assert len(word_basis(1, SpaceConfig(2, 2, 2, EXACT).letters)) == 4
    words = word_basis(3, 2)
    assert list(words) == sorted(words)
    assert all(word_index(3, 2)[w] == i for i, w in enumerate(words))


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("QFOCK_MAX_DIM", "10")
    with pytest.raises(ValueError):
        SpaceConfig(2, 1, 4, EXACT)
    SpaceConfig(2, 1, 2, EXACT)


def test_word_round_trip():
    for word, copies in [((0,), 1), ((0, 3), 2), ((2, 1, 0), 2), ((1, 1), 1)]:
        assert parse_word(word_to_str(word, 2), 2) == (word, copies)
    assert word_to_str((), 2) == ""
    assert word_to_str((0, 3), 2) == "1,2t"
    assert parse_word(" 2t , 1 ", 2) == ((3, 0), 2)
    # the vacuum has no spelling; every token must be an index in 1..d
    for bad in ("3", "0", "", "vac", "1,", "1,,2", "t", "1tt", "x"):
        with pytest.raises(ValueError):
            parse_word(bad, 2)


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.integers(min_value=1, max_value=2).flatmap(
                lambda copies: st.lists(
                    st.integers(min_value=0, max_value=d * copies - 1), min_size=1, max_size=8
                )
            ),
        )
    )
)
def test_codec_round_trip_property(d_word):
    d, word = d_word
    word = tuple(word)
    copies = 2 if any(code >= d for code in word) else 1
    assert parse_word(word_to_str(word, d), d) == (word, copies)


def test_vector_drops_zeros_before_checking_degrees():
    cfg = exact_cfg(d=2, n=2)
    above = (0, 1, 0)
    for zero in (QPolynomial.zero(), 0, 0.0):
        v = FockVector(cfg, {above: zero, (1,): QPolynomial.q()})
        assert v.coeffs == {(1,): QPolynomial.q()}
    with pytest.raises(ValueError, match="above max degree 2"):
        FockVector(cfg, {above: QPolynomial.one()})


def test_from_word_checks_the_degree_of_its_one_word():
    cfg = exact_cfg(d=2, n=2)
    for coeff in (None, QPolynomial.q(), 2):
        with pytest.raises(ValueError, match="above max degree 2"):
            FockVector.from_word(cfg, [0, 1, 0], coeff)
    assert FockVector.from_word(cfg, (0, 1, 0), QPolynomial.zero()).is_zero()
    assert FockVector.from_word(cfg, [1, 0]).coeffs == {(1, 0): QPolynomial.one()}
    assert FockVector.vacuum(SpaceConfig(1, 1, 0, ScalarMode.at(0.5))).coeffs == {(): 1.0}


def test_gram_small():
    cfg1 = exact_cfg(d=1, copies=1, n=2)
    g = gram_matrix(2, cfg1)
    assert g.shape == (1, 1) and g[0, 0] == QPolynomial((1, 1))
    g1 = gram_matrix(1, exact_cfg())
    assert g1[0, 0] == QPolynomial.one() and g1[0, 1] == QPolynomial.zero()


def gram_by_word_pairs(degree, letters):
    """Oracle: the Gram block one word pair at a time through word_inner_poly."""
    basis = word_basis(degree, letters)
    return [[word_inner_poly(a, b) for b in basis] for a in basis]


def eval_rational(p, q):
    """p at the binary value q, exact in rationals and rounded once."""
    num, den = q.as_integer_ratio()
    top = p.degree()
    return sum(c * num**k * den ** (top - k) for k, c in enumerate(p.coeffs)) / den**top


# (d, copies, top degree) of the exact and float oracle comparisons
GRAM_ORACLE_SPACES = [(1, 1, 8), (2, 1, 7), (3, 1, 5), (2, 2, 4)]


@pytest.mark.parametrize("d,copies,top", GRAM_ORACLE_SPACES)
def test_gram_exact_matches_word_pairs(d, copies, top):
    cfg = SpaceConfig(d, copies, top, EXACT)
    for degree in range(top + 1):
        assert gram_matrix(degree, cfg).tolist() == gram_by_word_pairs(degree, cfg.letters)


@pytest.mark.parametrize("d,copies,top", GRAM_ORACLE_SPACES)
def test_gram_float_matches_word_pairs(d, copies, top):
    for degree in range(top + 1):
        oracle = gram_by_word_pairs(degree, d * copies)
        for q in (-0.9, -0.4, 0.0, 0.5, 0.9):
            g = gram_matrix(degree, SpaceConfig(d, copies, top, ScalarMode.at(q)))
            values = {p: eval_rational(p, q) for row in oracle for p in set(row)}
            expect = np.array([[values[p] for p in row] for row in oracle])
            assert np.array_equal(g == 0, expect == 0)
            np.testing.assert_allclose(g, expect, rtol=1e-12, atol=0)


# oracle: the dense Bozejko-Speicher recursion over the whole degree block,
#     G_0 = [1],  G_n = sum_j q^j (I_letters (x) G_(n-1))[:, P_j],
# with P_j[v] the index of word v with slot j moved to the front.  Each
# entry gets the same nonzero additions in the same order as in the packed
# route, so the two agree bit for bit.


@functools.lru_cache(maxsize=64)
def _slot_moves(degree, letters):
    """P_j for each slot j, by arithmetic on indices as base-``letters`` numbers."""
    v, top, moves = np.arange(letters**degree), letters ** (degree - 1), []
    for j in range(degree):
        after = letters ** (degree - 1 - j)  # the slots behind j
        moves.append(v // after % letters * top + v // (after * letters) * after + v % after)
        moves[-1].flags.writeable = False
    return tuple(moves)


def _float_gram(degree, letters, q0):
    """G_n = sum_j q^j (I_letters (x) G_(n-1))[:, P_j] at the float q0."""
    g = np.ones((1, 1))
    for n in range(1, degree + 1):
        m = g.shape[0]
        lifted = np.zeros((m * letters, m * letters))
        for a in range(letters):
            lifted[a * m : (a + 1) * m, a * m : (a + 1) * m] = g
        g, term = np.zeros_like(lifted), np.empty_like(lifted)
        for j, move in enumerate(_slot_moves(n, letters)):
            np.take(lifted, move, axis=1, out=term, mode="clip")
            term *= q0**j
            g += term
    return g


@pytest.mark.parametrize("d,copies,top", GRAM_ORACLE_SPACES)
@pytest.mark.parametrize("q", [-0.9, -0.4, -0.0, 0.0, 0.5, 0.95])
def test_float_gram_is_the_dense_recursion_bit_for_bit(d, copies, top, q):
    cfg = SpaceConfig(d, copies, top, ScalarMode.at(q))
    for degree in range(top + 1):
        assert gram_matrix(degree, cfg).tobytes() == _float_gram(degree, d * copies, q).tobytes()


def test_float_gram_overflow_is_the_dense_recursion_bit_for_bit():
    cfg = SpaceConfig(1, 1, 200, ScalarMode.at(0.9999))
    with np.errstate(over="ignore"):
        g = gram_matrix(200, cfg)
        assert g.tobytes() == _float_gram(200, 1, 0.9999).tobytes()
    assert g.tolist() == [[math.inf]]


def q_factorial(n):
    """Coefficients of [n]_q! = prod_(k <= n) (1 + q + ... + q^(k-1)), lowest power first."""
    coeffs = [1]
    for k in range(1, n + 1):
        out = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for shift in range(k):
                out[i + shift] += c
        coeffs = out
    return coeffs


@pytest.mark.parametrize("d,n", [(2, 10), (3, 7), (4, 5)])
def test_content_block_rows_sum_to_the_q_factorial(d, n):
    # each permutation of the n slots carries a word to exactly one word of
    # its content, so a row of a content block sums over all of S_n
    expect = q_factorial(n)
    rows = 0
    for _, words, block in fock._content_blocks(n, d):
        sums = block.sum(axis=1, dtype=object)
        assert all(row == expect for row in sums.tolist())
        rows += len(words)
    assert rows == d**n


@pytest.mark.parametrize("q", [0.5, 0.3, -0.4, 0.7])
def test_float_content_block_rows_sum_to_the_q_factorial(q):
    expect = sum(c * q**k for k, c in enumerate(q_factorial(5)))
    for _, _, block in fock._content_blocks(5, 3, q):
        np.testing.assert_allclose(block.sum(axis=1), expect, rtol=1e-12, atol=0)


@functools.lru_cache(maxsize=None)
def exact_gram(degree, d):
    return gram_matrix(degree, SpaceConfig(d, 1, degree, EXACT))


@st.composite
def gram_word_pairs(draw):
    """(d, u, v): two words of one degree <= 5 over d <= 3 letters; v is
    often a rearrangement of u, so the entry is not always 0."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 5))
    word = st.lists(st.integers(0, d - 1), min_size=n, max_size=n).map(tuple)
    u = draw(word)
    return d, u, draw(st.one_of(word, st.permutations(u).map(tuple)))


@settings(max_examples=60, deadline=None)
@given(gram_word_pairs(), st.floats(-0.9, 0.9))
def test_gram_entries_are_word_inner_products(pair, q):
    d, u, v = pair
    n = len(u)
    i, j = word_index(n, d)[u], word_index(n, d)[v]
    expect = word_inner_poly(u, v)
    assert exact_gram(n, d)[i, j] == expect
    got = gram_matrix(n, SpaceConfig(d, 1, n, ScalarMode.at(q)))[i, j]
    assert math.isclose(got, eval_rational(expect, q) if expect else 0.0, rel_tol=1e-12, abs_tol=0)


def test_gram_assembles_past_numpy_dimension_limit():
    # 65 slots, one more than the axes a numpy array may have: [65]_q!
    expect = math.prod((QPolynomial((1,) * k) for k in range(1, 66)), start=QPolynomial.one())
    assert gram_matrix(65, SpaceConfig(1, 1, 65, EXACT))[0, 0] == expect
    got = gram_matrix(65, SpaceConfig(1, 1, 65, ScalarMode.at(0.5)))[0, 0]
    assert math.isclose(got, eval_rational(expect, 0.5), rel_tol=1e-12)


@pytest.mark.parametrize("d,degree", [(1, 8), (2, 6), (2, 7)])
def test_gram_entry_eval_is_correctly_rounded(d, degree):
    """Entries evaluated at q = -0.9 equal the exact rational value rounded once."""
    polys = {p for row in gram_by_word_pairs(degree, d) for p in row}
    for p in polys:
        assert p.eval(-0.9) == eval_rational(p, -0.9)


def _no_assembly(*args):
    raise AssertionError("assembly started before the budget check")


def test_exact_gram_budget_is_checked_before_allocating(monkeypatch, set_bound):
    # arithmetic only.  d=2, n=11: the packed degree-10 blocks (sum_k
    # C(10, k)^2 = C(20, 10) word pairs of one content, 46 int32
    # coefficients each), the 11 slot tables of 2 letters reading them (int64),
    # the packed degree-11 blocks (C(22, 11) pairs, 56 coefficients) and
    # 2048^2 references
    below = math.comb(20, 10) * 46 * 4 + 11 * 2 * math.comb(20, 10) * 8
    assert fock._gram_bytes(11, 2) == below + math.comb(22, 11) * 56 * 4 + 2048 * 2048 * 8
    assert fock._gram_bytes(11, 2) < bound("EXACT_GRAM_BUDGET") < fock._gram_bytes(12, 2)
    # d=3, n=5: 639 degree-4 word pairs of one content and their 5 x 3 slot tables,
    # 4,653 degree-5 pairs, 243^2 references
    assert fock._gram_bytes(5, 3) == 639 * 7 * 4 + 5 * 3 * 639 * 8 + 4653 * 11 * 4 + 243 * 243 * 8
    assert fock._gram_bytes(5, 3) < bound("EXACT_GRAM_BUDGET") // 100
    # the refusal itself, on a small block under a lowered budget
    set_bound("EXACT_GRAM_BUDGET", fock._gram_bytes(4, 2) - 1)
    cfg = exact_cfg(d=2, n=4)
    assert gram_matrix(3, cfg).shape == (8, 8)
    assert gram_matrix(4, SpaceConfig(2, 1, 4, ScalarMode.at(0.5))).shape == (16, 16)
    monkeypatch.setattr(fock, "_content_blocks", _no_assembly)
    with pytest.raises(ValueError, match="budget"):
        gram_matrix(4, cfg)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gram_work_counts_the_block_additions(d):
    # each content's block adds, once per slot, the block of every content
    # one letter smaller that it contains; words counted by enumeration
    for degree in range(6):
        expect = 0
        for n in range(1, degree + 1):
            below = collections.Counter(tuple(sorted(w)) for w in word_basis(n - 1, d))
            for content in {tuple(sorted(w)) for w in word_basis(n, d)}:
                for a in set(content):
                    rest = list(content)
                    rest.remove(a)
                    expect += n * below[tuple(rest)] ** 2 * ((n - 1) * (n - 2) // 2 + 1)
        assert fock._gram_work(degree, d) == expect


def test_exact_gram_work_bound_admits_the_tested_sizes():
    # Python-int additions (degree 21 on) count 16 each; one letter at
    # degree n adds, in each of n slots, the (n-1)(n-2)/2 + 1 coefficients below
    assert fock._gram_work(22, 1) - fock._gram_work(20, 1) == 16 * (21 * 191 + 22 * 211)
    assert fock._gram_work(11, 2) <= bound("EXACT_GRAM_WORK") < fock._gram_work(12, 2)
    assert fock._gram_work(108, 1) <= bound("EXACT_GRAM_WORK") < fock._gram_work(109, 1)
    assert fock._gram_work(65, 1) <= bound("EXACT_GRAM_WORK") // 4
    assert fock._gram_work(7, 3) <= bound("EXACT_GRAM_WORK") // 10


def test_exact_gram_assembly_peaks_small():
    # the dense coefficient array of all 243^2 word pairs peaked at 5.9 MB
    cfg = SpaceConfig(3, 1, 5, EXACT)
    tracemalloc.start()
    try:
        gram_matrix(5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6


@pytest.mark.parametrize("d", [1, 2, 3])
def test_content_blocks_are_the_word_pair_grams(d):
    for n in range(7):
        seen = []
        for content, words, block in fock._content_blocks(n, d):
            basis = [word_basis(n, d)[i] for i in words.tolist()]
            assert all(tuple(sorted(w)) == content for w in basis)
            polys = [[QPolynomial(tuple(c)) for c in row] for row in block.tolist()]
            assert polys == [[word_inner_poly(u, v) for v in basis] for u in basis]
            seen += basis
        assert sorted(seen) == list(word_basis(n, d))


@pytest.mark.parametrize("d,copies,n", [(2, 1, 5), (3, 1, 4), (2, 2, 3)])
def test_gram_cross_content_entries_are_the_shared_zero(d, copies, n):
    g = gram_matrix(n, SpaceConfig(d, copies, n, EXACT))
    contents = [tuple(sorted(w)) for w in word_basis(n, d * copies)]
    zero = g[0, -1]  # the all-first-letter word against the all-last-letter word
    assert zero.is_zero()
    for i, left in enumerate(contents):
        for j, right in enumerate(contents):
            assert (g[i, j] is zero) == (left != right)


@pytest.mark.parametrize(
    "degree,dtype",
    [(12, np.int32), (13, np.int64), (14, np.int64), (20, np.int64), (21, object), (22, object)],
)
def test_gram_coefficients_widen_before_overflow(degree, dtype):
    """A degree-n coefficient is at most n!: int32 to 12, int64 to 20, Python ints beyond.

    The largest coefficient of [n]_q! first leaves int32 at n = 14 and
    int64 at n = 22, so a narrower dtype there would wrap visibly.
    """
    [(_, _, block)] = fock._content_blocks(degree, 1)
    assert block.dtype == dtype
    g = gram_matrix(degree, SpaceConfig(1, 1, degree, EXACT))
    assert g.tolist() == gram_by_word_pairs(degree, 1)


def test_gram_zero_entries_share_one_polynomial():
    g = gram_matrix(3, exact_cfg(d=2, n=3))
    zeros = [p for p in g.ravel() if p.is_zero()]
    assert zeros and all(p is zeros[0] for p in zeros)


def test_gram_float_q0_is_identity():
    cfg = SpaceConfig(2, 1, 3, ScalarMode.at(0.0))
    for degree in range(4):
        g = gram_matrix(degree, cfg)
        assert np.array_equal(g, np.eye(cfg.dim(degree)))


def test_gram_positive_definite_small():
    for q in (-0.5, 0.5, 0.9):
        cfg = SpaceConfig(2, 1, 3, ScalarMode.at(q))
        for degree in range(4):
            eigs = np.linalg.eigvalsh(gram_matrix(degree, cfg))
            assert eigs.min() > 0


def bareiss_determinant(rows):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def distinct_letter_gram(n):
    """Gram block of the n! words using each of n letters once, as polynomials."""
    for content, _, block in fock._content_blocks(n, n):
        if content == tuple(range(n)):
            return [[QPolynomial(tuple(c)) for c in row] for row in block.tolist()]


@pytest.mark.parametrize("n", range(1, 6))
def test_distinct_letter_gram_determinant_is_zagiers(n):
    """Zagier (1992): det = prod_{k=1}^{n-1} (1 - q^(k^2+k))^((n-k) n!/(k^2+k)).

    Both sides are polynomials in q, compared at integer q.  The block is
    the all-distinct content's block of the exact assembly at d = n.
    """
    block = distinct_letter_gram(n)
    for q in (2, -3):
        values = [[sum(c * q**k for k, c in enumerate(p.coeffs)) for p in row] for row in block]
        expected = 1
        for k in range(1, n):
            expected *= (1 - q ** (k * k + k)) ** ((n - k) * math.factorial(n) // (k * k + k))
        assert bareiss_determinant(values) == expected


def test_ladder_examples():
    """The oracle on hand-computed cases."""
    cfg = exact_cfg()
    e1 = basis_one_particle(0, cfg)
    create, annihilate = ladder(e1, "create", cfg), ladder(e1, "annihilate", cfg)
    vac = FockVector.vacuum(cfg)
    assert create.apply(vac).coeffs == {(0,): QPolynomial.one()}
    got = annihilate.apply(FockVector.from_word(cfg, (1, 0)))
    assert got.coeffs == {(1,): QPolynomial.q()}
    assert annihilate.apply(vac).is_zero()
    top = FockVector.from_word(cfg, (0,) * cfg.max_degree)
    assert create.apply(top).is_zero()  # creation out of the top degree is dropped


def test_adjointness_exact():
    """<l(h) x, y> = <x, l*(h) y> within the truncation budget."""
    cfg = exact_cfg(d=2, copies=1, n=3)
    for h in one_particle_vectors(cfg):
        create, annihilate = ladder(h, "create", cfg), ladder(h, "annihilate", cfg)
        for dx in range(3):
            for wx in word_basis(dx, cfg.letters):
                x = FockVector.from_word(cfg, wx)
                for wy in word_basis(dx + 1, cfg.letters):
                    y = FockVector.from_word(cfg, wy)
                    assert q_inner(create.apply(x), y) == q_inner(x, annihilate.apply(y))


def test_commutation_relation():
    """l*(h) l(g) = <h,g> + q l(g) l*(h) below the top degree."""
    cfg = exact_cfg(d=2, copies=1, n=3)
    q = QPolynomial.q()
    vectors = one_particle_vectors(cfg)
    for h in vectors:
        annihilate = ladder(h, "annihilate", cfg)
        for g in vectors:
            create = ladder(g, "create", cfg)
            hg = sum((a * b for a, b in zip(h, g)), QPolynomial.zero())
            for degree in range(3):
                for word in word_basis(degree, cfg.letters):
                    v = FockVector.from_word(cfg, word)
                    lhs = annihilate.apply(create.apply(v))
                    rhs = create.apply(annihilate.apply(v)).scale(q) + v.scale(hg)
                    assert lhs.coeffs == rhs.coeffs


def test_field_vacuum_moments():
    """s(e1) applied as the Wick product of the degree-1 word, from the vacuum."""
    cfg = exact_cfg(d=1, copies=1, n=4)
    e1 = FockVector.from_word(cfg, (0,))
    v = FockVector.vacuum(cfg)
    moments = []
    for _ in range(4):
        v = wick_apply(e1, v)
        moments.append(v.coeffs.get((), QPolynomial.zero()))
    assert wick_apply(e1, FockVector.vacuum(cfg)).coeffs == {(0,): QPolynomial.one()}
    assert moments == [QPolynomial.zero(), QPolynomial.one(), QPolynomial.zero(), QPolynomial((2, 1))]


def test_compose_matches_sequential_apply():
    cfg = exact_cfg(d=2, copies=1, n=3)
    a = field_operator(basis_one_particle(0, cfg), cfg)
    b = ladder(basis_one_particle(1, cfg), "create", cfg)
    v = FockVector(cfg, {(1,): QPolynomial.one(), (0, 1): QPolynomial.q()})
    assert composed(a, b).apply(v).coeffs == a.apply(b.apply(v)).coeffs


def test_second_quantize_identity_and_functoriality():
    cfg = SpaceConfig(2, 1, 3, ScalarMode.at(0.5))
    ident = second_quantize(np.eye(2), cfg)
    v = FockVector(cfg, {(0, 1): 1.0, (1, 1, 0): -2.0})
    assert ident.apply(v).coeffs == v.coeffs

    rng = np.random.default_rng(7)
    for _ in range(3):
        u = rng.normal(size=(2, 2))
        u /= np.linalg.norm(u, 2) * 1.01
        w = rng.normal(size=(2, 2))
        w /= np.linalg.norm(w, 2) * 1.01
        left, right = second_quantize(u, cfg), second_quantize(w, cfg)
        for (n, _), mat in second_quantize(u @ w, cfg).blocks.items():
            assert np.max(np.abs(left.block(n, n) @ right.block(n, n) - mat)) < 1e-12


def test_second_quantize_rejects_expansion():
    cfg = SpaceConfig(2, 1, 2, ScalarMode.at(0.5))
    with pytest.raises(ValueError):
        second_quantize(1.5 * np.eye(2), cfg)
    with pytest.raises(ValueError):
        second_quantize(np.eye(3), cfg)


def test_second_quantize_orthogonal_preserves_inner():
    cfg = SpaceConfig(2, 1, 3, ScalarMode.at(-0.4))
    theta = 0.7
    u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    g = second_quantize(u, cfg)
    v = FockVector(cfg, {(0, 1): 1.0, (1, 1): 0.5})
    w = FockVector(cfg, {(0, 1): -1.0, (0, 0): 2.0})
    assert q_inner(g.apply(v), g.apply(w)) == pytest.approx(q_inner(v, w), abs=1e-12)


def test_semigroup_scaling_per_degree():
    cfg = SpaceConfig(2, 1, 3, ScalarMode.at(0.3))
    t = 0.4
    semi = second_quantize(math.exp(-t) * np.eye(2), cfg)
    for degree in range(4):
        for word in word_basis(degree, cfg.letters):
            got = semi.apply(FockVector.from_word(cfg, word, 1.0))
            assert got.coeffs[word] == pytest.approx(math.exp(-degree * t))


def test_degree_projection():
    cfg = exact_cfg()
    v = FockVector(cfg, {(): QPolynomial.one(), (0, 1): QPolynomial.q()})
    assert v.component(2).coeffs == {(0, 1): QPolynomial.q()}
    assert v.component(1).is_zero()
    total = FockVector(cfg, {})
    for n in range(cfg.max_degree + 1):
        total = total + v.component(n)
    assert total.coeffs == v.coeffs


def test_copy_count_projection():
    cfg = SpaceConfig(1, 2, 2, EXACT)
    first = FockVector.from_word(cfg, (0, 0))
    assert copy_count_projection(first, 0).coeffs == first.coeffs
    assert copy_count_projection(first, 1).is_zero()
    mixed = FockVector(
        cfg, {(0, 1): QPolynomial.one(), (1, 1): QPolynomial.q(), (0,): QPolynomial.one()}
    )
    assert copy_count_projection(mixed, 1).coeffs == {(0, 1): QPolynomial.one()}
    assert copy_count_projection(mixed, 1, "at-least").coeffs == {
        (0, 1): QPolynomial.one(),
        (1, 1): QPolynomial.q(),
    }


def test_rotation_column_projection():
    cfg = SpaceConfig(1, 2, 2, ScalarMode.at(0.5))
    t = 0.3
    c, s = math.exp(-t), math.sqrt(1 - math.exp(-2 * t))
    rotated = FockVector(cfg, {(0,): c, (1,): s})
    tail = copy_count_projection(rotated, 1, "at-least")
    assert tail.coeffs == {(1,): pytest.approx(s)}


def test_cross_copy_words_are_orthogonal():
    cfg = SpaceConfig(1, 2, 3, EXACT)
    for degree in range(4):
        words = word_basis(degree, cfg.letters)
        for a in words:
            for b in words:
                ca = sum(1 for code in a if code >= cfg.d)
                cb = sum(1 for code in b if code >= cfg.d)
                if ca != cb:
                    assert word_inner_poly(a, b).is_zero()


def test_coordinate_projection_shape():
    cfg = SpaceConfig(2, 2, 2, EXACT)
    p = coordinate_projection(cfg)
    assert [p[i, i] for i in range(4)] == [1, 1, 0, 0]


def test_doubled_layout_helpers():
    """The constructors that place objects by the copy layout, read back through the codec."""
    cfg = SpaceConfig(2, 2, 3, ScalarMode.at(0.5))

    def code(text):
        return parse_word(text, 2)[0][0]

    assert second_copy_vector((0.5, -1.0), cfg).coeffs == {(code("1t"),): 0.5, (code("2t"),): -1.0}
    assert second_copy_vector((0.0, 2.0), cfg).coeffs == {(code("2t"),): 2.0}
    for degree in range(4):
        words = first_copy_words(degree, cfg)
        assert list(words) == [
            w for w in word_basis(degree, cfg.letters) if "t" not in word_to_str(w, 2)
        ]
        assert words == word_basis(degree, 2)  # in single-copy basis order
    m = [[1, 2], [3, 4]]
    mixing = copy_mixing(m, 2)
    letters = ("1", "2", "1t", "2t")
    for src in letters:
        for dst in letters:
            expect = m[dst.endswith("t")][src.endswith("t")] if src[0] == dst[0] else 0
            assert mixing[code(dst), code(src)] == expect


def test_identity_operator():
    """Second quantization of the identity, in exact mode, is the identity."""
    cfg = exact_cfg(d=2, copies=1, n=2)
    ident = second_quantize(np.eye(2, dtype=int), cfg)
    assert ident.block(0, 0)[0, 0] == 1
    v = FockVector(cfg, {(): QPolynomial.q(), (0, 1): QPolynomial((1, 2)), (1,): QPolynomial.one()})
    assert ident.apply(v).coeffs == v.coeffs
