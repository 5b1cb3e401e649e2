import itertools
import math

import numpy as np
import pytest

from qfock import fock
from qfock.combinatorics import inversions
from qfock.fock import (
    BlockOperator,
    FockVector,
    Letter,
    SpaceConfig,
    apply_annihilate_letter,
    apply_create_letter,
    apply_field_letter,
    basis_one_particle,
    coordinate_projection,
    copy_count_projection,
    degree_projection,
    enumerate_words,
    field_operator,
    gram_matrix,
    ladder,
    parse_word,
    q_inner,
    second_quantize,
    vacuum_expectation,
    word_basis,
    word_inner_poly,
    word_to_str,
)
from qfock.scalars import EXACT, QPolynomial, ScalarMode


def exact_cfg(d=2, copies=1, n=4):
    return SpaceConfig(d, copies, n, EXACT)


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
    cfg = exact_cfg(d=2, copies=1, n=3)
    assert enumerate_words(0, cfg) == ((),)
    assert len(enumerate_words(2, cfg)) == 4
    assert len(enumerate_words(1, SpaceConfig(2, 2, 2, EXACT))) == 4
    words = enumerate_words(2, cfg)
    assert list(words) == sorted(words)
    with pytest.raises(ValueError):
        enumerate_words(4, cfg)


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("QFOCK_MAX_DIM", "10")
    with pytest.raises(ValueError):
        SpaceConfig(2, 1, 4, EXACT)
    SpaceConfig(2, 1, 2, EXACT)


def test_word_round_trip():
    cfg = SpaceConfig(2, 2, 3, EXACT)
    for word in [(), (0,), (0, 3), (2, 1, 0)]:
        assert parse_word(word_to_str(word, cfg), cfg) == word
    assert word_to_str((), cfg) == "vac"
    assert word_to_str((0, 3), cfg) == "1,2t"
    with pytest.raises(ValueError):
        parse_word("3", cfg)
    with pytest.raises(ValueError):
        Letter(1, 2).code(exact_cfg())


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


@pytest.mark.parametrize(
    "degree,dtype",
    [(12, np.int32), (13, np.int64), (14, np.int64), (20, np.int64), (21, object), (22, object)],
)
def test_gram_coefficients_widen_before_overflow(degree, dtype):
    """A degree-n coefficient is at most n!: int32 to 12, int64 to 20, Python ints beyond.

    The largest coefficient of [n]_q! first leaves int32 at n = 14 and
    int64 at n = 22, so a narrower dtype there would wrap visibly.
    """
    assert fock._gram_coeffs(degree, 1).dtype == dtype
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


def test_ladder_examples():
    cfg = exact_cfg()
    e1 = basis_one_particle(0, cfg)
    vac = FockVector.vacuum(cfg)
    assert ladder(e1, "create", cfg).apply(vac).coeffs == {(0,): QPolynomial.one()}
    got = ladder(e1, "annihilate", cfg).apply(FockVector.from_word(cfg, (1, 0)))
    assert got.coeffs == {(1,): QPolynomial.q()}
    assert ladder(e1, "annihilate", cfg).apply(vac).is_zero()
    with pytest.raises(ValueError):
        ladder((1, 0, 0), "create", cfg)
    with pytest.raises(ValueError):
        ladder(e1, "lower", cfg)


def test_structural_applies_match_matrices():
    cfg = exact_cfg(d=2, copies=1, n=3)
    for code in range(2):
        h = basis_one_particle(code, cfg)
        create = ladder(h, "create", cfg)
        annihilate = ladder(h, "annihilate", cfg)
        for degree in range(4):
            for word in word_basis(degree, cfg.letters):
                v = FockVector.from_word(cfg, word)
                assert create.apply(v).coeffs == apply_create_letter(code, v).coeffs
                assert annihilate.apply(v).coeffs == apply_annihilate_letter(code, v).coeffs


def test_adjointness_exact():
    """<l(h) x, y> = <x, l*(h) y> within the truncation budget."""
    cfg = exact_cfg(d=2, copies=1, n=3)
    for h in [basis_one_particle(0, cfg), (QPolynomial.constant(1), QPolynomial.constant(-2))]:
        create = ladder(h, "create", cfg)
        annihilate = ladder(h, "annihilate", cfg)
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
    for hc in range(2):
        for gc in range(2):
            for degree in range(3):
                for word in word_basis(degree, cfg.letters):
                    v = FockVector.from_word(cfg, word)
                    lhs = apply_annihilate_letter(hc, apply_create_letter(gc, v))
                    rhs = apply_create_letter(gc, apply_annihilate_letter(hc, v)).scale(q)
                    if hc == gc:
                        rhs = rhs + v
                    assert lhs.coeffs == rhs.coeffs


def test_field_vacuum_moments():
    cfg = exact_cfg(d=1, copies=1, n=4)
    s = field_operator(basis_one_particle(0, cfg), cfg)
    assert s.apply(FockVector.vacuum(cfg)).coeffs == {(0,): QPolynomial.one()}
    s2 = s @ s
    assert vacuum_expectation(s2) == QPolynomial.one()
    assert vacuum_expectation(s2 @ s2) == QPolynomial((2, 1))
    assert vacuum_expectation(s) == QPolynomial.zero()
    assert vacuum_expectation(s @ s2) == QPolynomial.zero()


def test_compose_matches_sequential_apply():
    cfg = exact_cfg(d=2, copies=1, n=3)
    a = field_operator(basis_one_particle(0, cfg), cfg)
    b = ladder(basis_one_particle(1, cfg), "create", cfg)
    v = FockVector(cfg, {(1,): QPolynomial.one(), (0, 1): QPolynomial.q()})
    assert (a @ b).apply(v).coeffs == a.apply(b.apply(v)).coeffs


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
        left = second_quantize(u, cfg) @ second_quantize(w, cfg)
        right = second_quantize(u @ w, cfg)
        for key, mat in right.blocks.items():
            assert np.max(np.abs(left.blocks[key] - mat)) < 1e-12


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
    assert degree_projection(v, 2).coeffs == {(0, 1): QPolynomial.q()}
    assert degree_projection(v, 1).is_zero()
    total = FockVector(cfg, {})
    for n in range(cfg.max_degree + 1):
        total = total + degree_projection(v, n)
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
    with pytest.raises(ValueError):
        copy_count_projection(FockVector.vacuum(exact_cfg()), 0)


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
    with pytest.raises(ValueError):
        coordinate_projection(exact_cfg())


def test_identity_operator():
    cfg = exact_cfg(d=2, copies=1, n=2)
    ident = BlockOperator.identity(cfg)
    assert vacuum_expectation(ident) == QPolynomial.one()
    v = FockVector(cfg, {(0, 1): QPolynomial((1, 2))})
    assert ident.apply(v).coeffs == v.coeffs
