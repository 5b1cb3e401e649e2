import math
import warnings

import numpy as np
import pytest
from dense import coordinate_projection, kron_second_quantize

from qfock.analysis import (
    DecayReport,
    block_decay,
    deformation_block_check,
    deformation_right_side,
    deformation_scan,
    dilation_check,
    gram_factors,
    ou_tail,
    phi_hk_check,
    phi_hk_operator,
    phi_schatten_closed_form,
    phi_schatten_norm,
    rotation_matrix,
    schatten_norm,
    schatten_term_ratio,
    schatten_threshold,
)
from qfock.fock import (
    FockVector,
    SpaceConfig,
    copy_count_projection,
    first_copy_words,
    gram_matrix,
    q_inner,
    second_copy_vector,
    second_quantize,
    word_basis,
    word_index,
)
from qfock.scalars import EXACT, ScalarMode
from qfock.wick import wick_apply


def doubled(d, n, q=0.5):
    return SpaceConfig(d, 2, n, ScalarMode.at(q))


def single(d, n, q=0.5):
    return SpaceConfig(d, 1, n, ScalarMode.at(q))


def test_rotation_matrix_is_orthogonal():
    for t in (0.0, 0.1, 0.7):
        r = rotation_matrix(t, 2)
        assert np.allclose(r @ r.T, np.eye(4), atol=1e-14)
        # first-copy column mixes e^-t into the copy and the rest upward
        assert r[0, 0] == pytest.approx(math.exp(-t))
        assert r[2, 0] == pytest.approx(math.sqrt(1 - math.exp(-2 * t)))


def test_dilation_compresses_to_semigroup():
    for d in (1, 2):
        cfg = doubled(d, 4)
        for t in (0.1, 0.5):
            assert dilation_check(t, cfg) < 1e-12


def dense_dilation_check(t, cfg):
    """The dilation check as whole matrices: the Kronecker power of the
    first-copy projection times that of the rotation, on first-copy columns,
    against e^-nt times the identity's columns."""
    projection = kron_second_quantize(coordinate_projection(cfg), cfg)
    dilation = kron_second_quantize(rotation_matrix(t, cfg.d), cfg)
    dev = 0.0
    for n in range(cfg.max_degree + 1):
        first_copy = [word_index(n, cfg.letters)[w] for w in first_copy_words(n, cfg)]
        expected = math.exp(-n * t) * np.eye(cfg.dim(n))[:, first_copy]
        compressed = projection.block(n, n) @ dilation.block(n, n)[:, first_copy]
        dev = max(dev, float(np.abs(compressed - expected).max()))
    return dev


@pytest.mark.parametrize("q", [0.5, -0.7])
def test_dilation_check_is_the_dense_deviation(q):
    for d in (1, 2):
        for t in (0.0, 3e-17, 0.1, 0.5, 2.0):
            cfg = doubled(d, 4 if d == 1 else 3, q)
            assert dilation_check(t, cfg) == dense_dilation_check(t, cfg)


def test_semigroup_eigenvalues():
    # the Ornstein-Uhlenbeck semigroup is the second quantization of e^-t I
    cfg = single(2, 3)
    for n in range(4):
        for word in word_basis(n, cfg.d):
            image = second_quantize(math.exp(-0.4) * np.eye(cfg.letters), FockVector.from_word(cfg, word))
            assert image.coeffs == {word: pytest.approx(math.exp(-0.4 * n))}


def test_phi_check_small_deviation():
    for q in (0.5, -0.5, 0.9, -0.9):
        cfg = doubled(2, 4, q)
        assert phi_hk_check((1.0, 0.0), (1.0, 0.0), cfg) < 1e-10
        assert phi_hk_check((1.0, 0.0), (0.5, 0.5), cfg) < 1e-10


def test_phi_orthogonal_arguments_kill_the_map():
    cfg = single(2, 3)
    op = phi_hk_operator((1.0, 0.0), (0.0, 1.0), cfg)
    assert set(op) == {(n, n) for n in range(4)}
    assert not any(mat.any() for mat in op.values())


def test_phi_input_validation():
    with pytest.raises(ValueError):
        phi_hk_check((1.0, 0.0), (1.0, 0.0), single(2, 3))
    exact_doubled = SpaceConfig(2, 2, 3, EXACT)
    with pytest.raises(ValueError):
        phi_hk_check((1.0, 0.0), (1.0, 0.0), exact_doubled)


def diagonal_phi_operator(h, k, cfg):
    """The diagonal form q^n <h,k> of the multiplier, written down degree by
    degree: the oracle of the operator and of its closed-spectrum norm."""
    hk = float(np.dot(np.asarray(h, dtype=float), np.asarray(k, dtype=float)))
    q = cfg.scalar.q
    return {(n, n): q ** n * hk * np.eye(cfg.dim(n)) for n in range(cfg.max_degree + 1)}


def test_phi_operator_routes_agree():
    cfg = single(2, 3)
    vec = phi_hk_operator((1.0, 0.0), (0.7, 0.3), cfg)
    diag = diagonal_phi_operator((1.0, 0.0), (0.7, 0.3), cfg)
    for n in range(4):
        assert np.abs(vec[(n, n)] - diag[(n, n)]).max() < 1e-12


# ---------------------------------------------------------------------------
# the per-word route the shared block assembly replaced, as an oracle


def phi_hk_apply(h, k, v):
    """E(s(h~) x s(k~)) on the vector x Omega, x in the first-copy algebra:
    s(k~) Omega is k~ and s(h~) acts as W(h~).  Exact on components of
    degree at most max_degree - 2."""
    right = wick_apply(v, second_copy_vector(k, v.cfg))
    return copy_count_projection(wick_apply(second_copy_vector(h, v.cfg), right), 0, "exact")


def oracle_phi_check(h, k, cfg):
    """The per-word deviation loop: every first-copy word of degree
    n <= max_degree - 2 against q^n <h,k>, a non-finite coefficient
    returned at once."""
    q = cfg.scalar.q
    with np.errstate(all="ignore"):
        hk = float(np.dot(np.asarray(h, dtype=float), np.asarray(k, dtype=float)))
    dev = 0.0
    for n in range(cfg.max_degree - 1):
        for word in first_copy_words(n, cfg):
            image = phi_hk_apply(h, k, FockVector.from_word(cfg, word))
            for c in (image - FockVector.from_word(cfg, word, q ** n * hk)).coeffs.values():
                if not math.isfinite(c):
                    return abs(c)
                dev = max(dev, abs(c))
    return dev


PHI_PAIRS = {
    1: [((1.0,), (1.0,)), ((0.6,), (-1.5,)), ((2.0,), (0.25,))],
    2: [((1.0, 0.0), (1.0, 0.0)), ((0.6, 0.8), (0.8, -0.6)), ((1.0, -2.0), (0.5, 0.3))],
}
PHI_GRID = [(d, q, h, k) for d in (1, 2) for q in (0.5, -0.4, 0.9) for h, k in PHI_PAIRS[d]]


@pytest.mark.parametrize("d, q, h, k", PHI_GRID)
def test_phi_vector_route_is_the_per_word_images(d, q, h, k):
    for top in range(4):
        cfg = single(d, top, q)
        big = doubled(d, top + 2, q)
        expected = {(n, n): np.zeros((d ** n, d ** n)) for n in range(top + 1)}
        for n in range(top + 1):
            for col, word in enumerate(first_copy_words(n, big)):
                for w, c in phi_hk_apply(h, k, FockVector.from_word(big, word)).coeffs.items():
                    block = expected.setdefault((len(w), n), np.zeros((d ** len(w), d ** n)))
                    block[word_index(len(w), d)[w], col] = c
        op = phi_hk_operator(h, k, cfg)
        assert set(op) == set(expected)
        for key, block in expected.items():
            assert np.array_equal(op[key], block)


@pytest.mark.parametrize("d, q, h, k", PHI_GRID + [
    (1, 0.5, (1e200,), (1e200,)),
    (2, 0.5, (1e200, 1e200), (1e200, -1e200)),
    (2, 0.0, (1e300, 0.0), (1e300, 0.0)),
])
def test_phi_check_is_the_per_word_deviation(d, q, h, k):
    for top in range(6):
        cfg = doubled(d, top, q)
        assert repr(phi_hk_check(h, k, cfg)) == repr(oracle_phi_check(h, k, cfg))


def test_schatten_identity_block():
    cfg = single(2, 3)
    op = {(2, 2): np.eye(4)}
    report = schatten_norm(op, 2.0, cfg)
    assert report.norm == pytest.approx(2.0)


def test_schatten_matches_closed_form():
    cfg = single(2, 6)
    hk = 0.8
    op = diagonal_phi_operator((1.0, 0.0), (hk, 0.0), cfg)
    for p in (1.0, 2.0, 3.5):
        report = schatten_norm(op, p, cfg)
        closed = phi_schatten_closed_form(0.5, 2, p, hk, 6)
        assert abs(report.norm - closed) <= 1e-10 * closed
        assert all(b >= a - 1e-15 for a, b in zip(report.partial_norms, report.partial_norms[1:]))


def test_schatten_partial_sums_approach_geometric_limit():
    # q = 1/2, d = 2, p = 2: sum (1/2)^n -> 2, so the norm tends to sqrt(2)
    cfg = single(2, 6)
    op = diagonal_phi_operator((1.0, 0.0), (1.0, 0.0), cfg)
    report = schatten_norm(op, 2.0, cfg)
    assert report.norm < math.sqrt(2.0)
    assert math.sqrt(2.0) - report.norm < 0.01


@pytest.mark.parametrize("q", [0.5, -0.4, 0.8, 0.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_spectrum_norm_is_the_svd_norm_of_the_diagonal_form(q, d):
    # phi_schatten_norm builds no Gram block; the oracle conjugates q^n <h,k> I
    # by the Gram square roots and takes its singular values
    top = 5 if d == 3 else 6
    cfg = single(d, top, q)
    e1 = (1.0,) + (0.0,) * (d - 1)
    hk = -0.8
    op = diagonal_phi_operator(e1, (hk,) + e1[1:], cfg)
    for p in (1.0, 2.0, 3.5, 5.0):
        closed, svd = phi_schatten_norm(hk, p, cfg), schatten_norm(op, p, cfg)
        assert closed.threshold == svd.threshold
        assert len(closed.partial_norms) == len(svd.partial_norms) == top + 1
        for a, b in zip(closed.partial_norms, svd.partial_norms):
            assert abs(a - b) <= 1e-10 * b
        assert abs(closed.norm - phi_schatten_closed_form(q, d, p, hk, top)) <= 1e-10 * closed.norm


def test_closed_forms_sum_past_the_float_range_of_d_to_the_n(monkeypatch):
    # 2**1100 is no float, but the sum converges: the term ratio is 0.5
    monkeypatch.setenv("QFOCK_MAX_DIM", str(10 ** 400))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = phi_schatten_closed_form(0.5, 2, 2.0, 1.0, 1100)
        assert abs(closed - math.sqrt(2.0)) <= 1e-12
        assert abs(phi_schatten_norm(1.0, 2.0, single(2, 1100)).norm - closed) <= 1e-10 * closed
        # a divergent sum and an overflowing |<h,k>|^p are inf, also beside
        # degrees that vanish at q = 0
        assert phi_schatten_closed_form(0.9, 3, 1.0, 1.0, 1100) == math.inf
        assert phi_schatten_norm(1e308, 2.0, single(2, 1100)).norm == math.inf
        assert phi_schatten_norm(1e308, 2.0, single(2, 3, 0.0)).partial_norms == [math.inf] * 4


def test_schatten_rejects_bad_input():
    cfg = single(2, 2)
    with pytest.raises(ValueError):
        schatten_norm({(0, 0): np.ones((1, 1))}, 0.5, cfg)


def test_gram_factor_floor_fails_loudly():
    cfg = single(2, 2, q=1 - 1e-13)
    with pytest.raises(ValueError):
        gram_factors(2, cfg)


def test_threshold_values():
    assert schatten_threshold(0.5, 2) == pytest.approx(1.0)
    assert schatten_threshold(0.5, 1) == 0.0
    assert schatten_threshold(0.0, 7) == 0.0


def test_term_ratio_brackets_threshold():
    for q, d in ((0.5, 2), (0.8, 3)):
        star = schatten_threshold(q, d)
        assert schatten_term_ratio(q, d, 1.1 * star) < 1.0
        assert schatten_term_ratio(q, d, 0.9 * star) > 1.0


def test_block_decay_single_tilde_letter():
    cfg = doubled(1, 6)
    h_tilde = FockVector.from_word(cfg, (1,))
    report = block_decay(h_tilde, h_tilde, cfg)
    assert report.band_width == 2
    assert report.max_offband == 0.0
    for j in report.fit_degrees:
        assert report.block_norms[(j, j)] == pytest.approx(0.5 ** j)
    assert report.rate == pytest.approx(math.log(0.5), rel=1e-6)


def test_block_decay_two_tilde_letters():
    cfg = doubled(1, 8)
    xi = FockVector.from_word(cfg, (1, 1))
    report = block_decay(xi, xi, cfg)
    assert report.max_offband == 0.0
    assert abs(report.rate - 2 * math.log(0.5)) < 0.1 * abs(2 * math.log(0.5))


def test_block_decay_band_structure():
    cfg = doubled(1, 6)
    xi = FockVector.from_word(cfg, (1, 0))
    eta = FockVector.from_word(cfg, (1,))
    report = block_decay(xi, eta, cfg)
    assert report.band_width == 3
    assert report.max_offband == 0.0
    assert all(abs(i - j) <= 3 for i, j in report.block_norms)


def test_block_decay_validation():
    cfg = doubled(1, 4)
    with pytest.raises(ValueError):
        block_decay(FockVector.from_word(cfg, (1,)), FockVector.from_word(cfg, (0,)), cfg)


# ---------------------------------------------------------------------------
# the per-vector route deformation_block_check replaced, as an oracle


def deformation_identity(n, kcut, t, x, y):
    """Both sides of <E-perp_(kcut-1) alpha_t x, E-perp_(kcut-1) alpha_t y> for
    degree-n first-copy vectors: through the dense dilation matrix and the
    copy-count projection, and as the binomial closed form times the q-inner
    product."""
    alpha = kron_second_quantize(rotation_matrix(t, x.cfg.d), x.cfg)
    px = copy_count_projection(alpha.apply(x), kcut, "at-least")
    py = copy_count_projection(alpha.apply(y), kcut, "at-least")
    return float(q_inner(px, py)), deformation_right_side(n, kcut, t, float(q_inner(x, y)))


def test_deformation_identity_rotation_column():
    cfg = doubled(1, 2)
    h = FockVector.from_word(cfg, (0,))
    for t in (0.1, 0.4):
        left, right = deformation_identity(1, 1, t, h, h)
        assert left == pytest.approx(1 - math.exp(-2 * t))
        assert right == pytest.approx(1 - math.exp(-2 * t))


def test_deformation_identity_degree_two():
    cfg = doubled(2, 2)
    words = [(a, b) for a in range(2) for b in range(2)]
    for wx in words:
        for wy in words:
            x, y = FockVector.from_word(cfg, wx), FockVector.from_word(cfg, wy)
            for kcut in (1, 2):
                left, right = deformation_identity(2, kcut, 0.3, x, y)
                assert abs(left - right) < 1e-10


def test_deformation_identity_at_zero_time():
    cfg = doubled(1, 2)
    x = FockVector.from_word(cfg, (0, 0))
    left, right = deformation_identity(2, 1, 0.0, x, x)
    assert left == pytest.approx(0.0, abs=1e-14)
    assert right == pytest.approx(0.0, abs=1e-14)


def test_deformation_identity_validation():
    # the block check refuses what the identity has no meaning for
    with pytest.raises(ValueError, match="cut above the degree"):
        deformation_block_check(1, 2, 0.1, doubled(1, 2))
    with pytest.raises(ValueError, match="doubled space"):
        deformation_block_check(1, 1, 0.1, single(1, 2))
    with pytest.raises(ValueError, match="numeric q"):
        deformation_block_check(1, 1, 0.1, SpaceConfig(1, 2, 2, EXACT))


def test_deformation_block_check_all_pairs():
    # the per-vector oracle agrees on every word pair and, by bilinearity,
    # on combinations of words
    cfg = doubled(2, 3)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        words = [FockVector.from_word(cfg, w) for w in word_basis(n, cfg.d)]
        vectors = words + [
            sum((v.scale(float(c)) for v, c in zip(words, rng.normal(size=len(words)))), FockVector(cfg, {}))
            for _ in range(2)
        ]
        for kcut in range(1, n + 1):
            for t in (0.05, 0.2):
                assert deformation_block_check(n, kcut, t, cfg) < 1e-12
                for x in vectors:
                    for y in vectors:
                        left, right = deformation_identity(n, kcut, t, x, y)
                        assert abs(left - right) < 1e-12


def dense_deformation_block_check(n, kcut, t, cfg):
    """deformation_block_check with M read off the dense dilation block:
    its first-copy columns, rows masked to second-copy count >= kcut."""
    basis = word_basis(n, cfg.letters)
    first = [word_index(n, cfg.letters)[w] for w in first_copy_words(n, cfg)]
    mask = np.array([sum(code >= cfg.d for code in w) >= kcut for w in basis], dtype=float)
    g = gram_matrix(n, cfg)
    m = kron_second_quantize(rotation_matrix(t, cfg.d), cfg).block(n, n)[:, first] * mask[:, None]
    right = deformation_right_side(n, kcut, t, 1.0) * g[np.ix_(first, first)]
    return float(np.abs(m.T @ g @ m - right).max())


@pytest.mark.parametrize("q", [0.5, -0.6])
def test_deformation_block_check_is_the_dense_deviation(q):
    # the same M; the products M^T G M may round apart in their last bits,
    # since BLAS sums in an order that depends on the memory layout
    for d, top in ((1, 5), (2, 3)):
        cfg = doubled(d, top, q)
        for n in range(1, top + 1):
            for kcut in range(1, n + 1):
                for t in (1e-3, 0.05, 0.2, 1.5):
                    got, want = deformation_block_check(n, kcut, t, cfg), dense_deformation_block_check(n, kcut, t, cfg)
                    assert want < 1e-12 and abs(got - want) <= 1e-15


def test_deformation_scan_first_degree_ratio():
    cfg = doubled(1, 3)
    grid = [0.05, 0.25, 0.45]
    report = deformation_scan(1, 3, grid, cfg)
    n, t, left, right, ratio = report.rows[0]
    assert (n, t) == (1, 0.05)
    expected = math.sqrt(2 * (1 - math.exp(-t)) / (1 - math.exp(-2 * t)))
    assert ratio == pytest.approx(expected)
    assert report.crosscheck_dev < 1e-10
    assert math.isfinite(report.max_ratio)


def test_deformation_scan_second_cut():
    cfg = doubled(1, 4)
    grid = [i * 0.25 / 10 for i in range(1, 10)]
    report = deformation_scan(2, 4, grid, cfg)
    assert report.max_ratio < 100
    assert report.crosscheck_dev < 1e-10


def test_deformation_scan_validation():
    cfg = doubled(1, 3)
    with pytest.raises(ValueError):
        deformation_scan(1, 0, [0.1], cfg)
    with pytest.raises(ValueError):
        deformation_scan(1, 2, [0.6], cfg)


def test_ou_tail_values():
    cfg = doubled(1, 3)
    x = FockVector.from_word(cfg, (0, 1))
    t = 0.35
    assert ou_tail(x, t, 1) == pytest.approx(math.exp(-2 * t))
    assert ou_tail(x, t, 2) == 0.0
    assert ou_tail(x, 0.0, 3) == 0.0
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            ou_tail(x, bad, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            dilation_check(bad, cfg)
    exact_cfg = SpaceConfig(1, 2, 2, EXACT)
    with pytest.raises(ValueError):
        ou_tail(FockVector.from_word(exact_cfg, (0,)), 0.1, 0)
