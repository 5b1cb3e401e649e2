import collections
import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from matchings import dfs_moment, enumerate_pair_partitions
from test_fock import basis_one_particle, field_operator, one_particle_vectors

from qfock import wick
from qfock.budget import bound
from qfock.combinatorics import crossings
from qfock.fock import (
    FockVector,
    SpaceConfig,
    scalar_is_zero,
    word_basis,
    word_inner_poly,
)
from qfock.scalars import EXACT, QPolynomial, ScalarMode
from qfock.wick import (
    clt_moments,
    moment_pair_partitions,
    offdiag_reference,
    offdiag_wick_coefficient,
    reversed_vector,
    three_wick_trace,
    wick_apply,
    wick_split_product,
)

ONE = QPolynomial.one()
Q = QPolynomial.q()


def cfg_for(n, d=2, copies=1):
    return SpaceConfig(d, copies, n, EXACT)


def word_vec(cfg, word):
    return FockVector.from_word(cfg, word)


def operator_route_moment(codes, cfg):
    """<vacuum, s(h_1) ... s(h_m) vacuum> by applying oracle fields right to left."""
    fields = {code: field_operator(basis_one_particle(code, cfg), cfg) for code in set(codes)}
    v = FockVector.vacuum(cfg)
    for code in reversed(list(codes)):
        v = fields[code].apply(v)
    return v.coeffs.get((), QPolynomial.zero())


def test_wick_on_vacuum_reproduces_word():
    for d in (1, 2):
        cfg = cfg_for(4, d=d)
        vac = FockVector.vacuum(cfg)
        for degree in range(5):
            for word in word_basis(degree, cfg.letters):
                got = wick_apply(word_vec(cfg, word), vac)
                assert got.coeffs == {word: ONE}


def test_wick_linearity():
    cfg = cfg_for(3)
    vac = FockVector.vacuum(cfg)
    xi = FockVector(cfg, {(0, 1): QPolynomial((2,)), (1, 1): Q})
    assert wick_apply(xi, vac).coeffs == xi.coeffs


def test_degree_one_wick_is_field_operator():
    """W(h) is the field operator s(h) for every one-particle vector h: the
    Wick kernel against the dense oracle on every basis word, creation out
    of the top degree dropped by both."""
    for mode, d, copies in itertools.product([EXACT, ScalarMode.at(-0.6)], (1, 2), (1, 2)):
        cfg = SpaceConfig(d, copies, 3, mode)
        for h in one_particle_vectors(cfg):
            s = field_operator(h, cfg)
            xi = FockVector(cfg, {(code,): weight for code, weight in enumerate(h)})
            for degree in range(cfg.max_degree + 1):
                for word in word_basis(degree, cfg.letters):
                    v = word_vec(cfg, word)
                    got, expect = wick_apply(xi, v).coeffs, s.apply(v).coeffs
                    if mode.is_exact:
                        assert got == expect
                        continue
                    # the two routes add the same products in different orders
                    for w in got.keys() | expect.keys():
                        assert got.get(w, 0.0) == pytest.approx(expect.get(w, 0.0), abs=1e-12)


def test_degree_zero_wick_is_scalar():
    cfg = cfg_for(2)
    two = FockVector(cfg, {(): QPolynomial((2,))})
    v = FockVector(cfg, {(0, 1): Q})
    assert wick_apply(two, v).coeffs == {(0, 1): QPolynomial((0, 2))}


def test_wick_square_word_is_field_square_minus_one():
    cfg = cfg_for(4)
    xi = word_vec(cfg, (0, 0))
    s = field_operator(basis_one_particle(0, cfg), cfg)
    for degree in range(3):  # budget 2: the comparison applies two creations
        for word in word_basis(degree, cfg.letters):
            v = word_vec(cfg, word)
            via_wick = wick_apply(xi, v)
            via_field = s.apply(s.apply(v)) - v
            assert via_wick.coeffs == via_field.coeffs


def test_reversed_vector_is_adjoint():
    """<W(xi) v, w> = <v, W(reversed xi) w> inside the truncation budget."""
    cfg = cfg_for(4)
    xi = word_vec(cfg, (0, 1))
    rev = reversed_vector(xi)
    assert rev.coeffs == {(1, 0): ONE}
    from qfock.fock import q_inner

    for dv in range(3):
        for wv in word_basis(dv, cfg.letters):
            v = word_vec(cfg, wv)
            for dw in range(3):
                for ww in word_basis(dw, cfg.letters):
                    w = word_vec(cfg, ww)
                    assert q_inner(wick_apply(xi, v), w) == q_inner(v, wick_apply(rev, w))


def termwise_wick_apply(xi, v):
    """The Wick product term by term: every kernel term lifted to the scalar
    mode, scaled and added into its word, the sum checked by the validating
    constructor; the route ``wick_apply`` replaced, kept as its oracle."""
    mode, out = v.cfg.scalar, {}
    for xw, xc in xi.coeffs.items():
        for sw, sc in v.coeffs.items():
            weight = xc * sc
            if scalar_is_zero(weight):
                continue
            for tw, p in wick.wick_word_action(xw, sw, v.cfg.max_degree):
                term = weight * mode.of(p)
                out[tw] = out[tw] + term if tw in out else term
    return FockVector(v.cfg, out)


EXACT_WEIGHTS = (ONE, Q, QPolynomial((2, -1)), Fraction(1, 3), QPolynomial((Fraction(-2, 5), 0, 1)), 3)


@pytest.mark.parametrize("mode", [EXACT, ScalarMode.at(0.35), ScalarMode.at(-0.8)])
def test_wick_apply_matches_the_termwise_route(mode):
    weights = EXACT_WEIGHTS if mode.is_exact else (1.0, 0.25, -1.5, 1 / 3)
    cfg = SpaceConfig(2, 1, 4, mode)
    words = [w for n in range(4) for w in word_basis(n, 2)]
    for offset in range(0, len(words), 5):
        xi = FockVector(cfg, {w: weights[i % len(weights)] for i, w in enumerate(words[offset : offset + 3])})
        for start in range(0, len(words), 4):
            chunk = words[start : start + 4]
            v = FockVector(cfg, {w: weights[(i + start) % len(weights)] for i, w in enumerate(chunk)})
            got, expect = wick_apply(xi, v), termwise_wick_apply(xi, v)
            # float mode keeps the termwise order of operations, so even floats agree exactly
            assert got.coeffs == expect.coeffs
            assert list(got.coeffs) == list(expect.coeffs)


@pytest.mark.parametrize("x", EXACT_WEIGHTS + (0.3,))
def test_wick_apply_drops_the_words_whose_terms_cancel(x):
    # W(e2) e1 + x W(e2) e2 - x W(e1) e1 - x^2 W(e1) e2: the vacuum gets x - x
    mode = ScalarMode.at(0.5) if isinstance(x, float) else EXACT
    cfg = SpaceConfig(2, 1, 3, mode)
    xi = FockVector(cfg, {(1,): mode.one(), (0,): -x})
    v = FockVector(cfg, {(0,): mode.one(), (1,): x})
    got = wick_apply(xi, v)
    assert () not in got.coeffs and got.coeffs == termwise_wick_apply(xi, v).coeffs
    assert set(got.coeffs) == {(1, 0), (1, 1), (0, 0), (0, 1)}


def test_a_basis_word_on_a_basis_word_is_the_kernel_output():
    cfg = cfg_for(5)
    got = wick_apply(word_vec(cfg, (0, 1, 0)), word_vec(cfg, (0, 0)))
    assert tuple(got.coeffs.items()) == wick.wick_word_action((0, 1, 0), (0, 0), 5)
    assert got.coeffs == termwise_wick_apply(word_vec(cfg, (0, 1, 0)), word_vec(cfg, (0, 0))).coeffs


def unit_elsewhere(v):
    """v with each exact unit coefficient rebuilt as an equal polynomial that
    is not the shared one, so the product takes its general route."""
    return FockVector(v.cfg, {w: QPolynomial(c.coeffs) if c is ONE else c for w, c in v.coeffs.items()})


def test_a_word_pair_has_one_kernel_entry_in_every_space(set_bound):
    set_bound("QFOCK_MAX_DIM", 2**13 - 1)  # two letters to degree 12
    # every reach here is at most 7: a truncation at 7 or at 12 drops nothing
    pairs = [((0, 1, 0), (1, 0)), ((1, 1), (0, 1, 1, 0)), ((0,), ()), ((1, 0, 0, 1), (0, 1, 0))]
    wick.wick_word_action.cache_clear()
    for xw, sw in pairs:
        first = wick_apply(word_vec(cfg_for(7), xw), word_vec(cfg_for(7), sw))
        built = wick.wick_word_action.cache_info().misses
        again = wick_apply(word_vec(cfg_for(12), xw), word_vec(cfg_for(12), sw))
        assert wick.wick_word_action.cache_info().misses == built
        assert again.coeffs == first.coeffs
    # the product of a product: its second factor meets the words the first made
    xi, eta, theta = ((0, 1), (1, 0, 0), (0, 1))
    direct = {}
    for top in (7, 12):
        cfg = cfg_for(top)
        direct[top] = wick_apply(word_vec(cfg, xi), wick_apply(word_vec(cfg, eta), word_vec(cfg, theta)))
        if top == 7:
            built = wick.wick_word_action.cache_info().misses
    assert wick.wick_word_action.cache_info().misses == built
    assert direct[7].coeffs == direct[12].coeffs


def test_the_unit_paths_of_wick_apply_are_the_general_route():
    cfg = cfg_for(6)
    words = [w for n in range(4) for w in word_basis(n, 2)]
    v = wick_apply(word_vec(cfg, (1, 0)), word_vec(cfg, (0, 1, 1)))  # kernel polynomials as weights
    mixed = FockVector(cfg, {(0,): ONE, (1, 1): Q, (0, 1, 0): QPolynomial((2, -1))})
    for xw in words:
        xi = word_vec(cfg, xw)
        for other in [word_vec(cfg, w) for w in words] + [v, mixed]:
            got = wick_apply(xi, other)
            assert got.coeffs == termwise_wick_apply(xi, other).coeffs
            assert got.coeffs == wick_apply(unit_elsewhere(xi), unit_elsewhere(other)).coeffs
            # an equal space that is another object takes the compatibility check
            assert got.coeffs == wick_apply(word_vec(cfg_for(6), xw), other).coeffs
    with pytest.raises(ValueError, match="space mismatch"):
        wick_apply(word_vec(cfg_for(5), (0,)), word_vec(cfg, (0,)))


def test_three_basis_words_trace_as_the_triple_loop():
    cfg = cfg_for(6)
    words = [w for n in range(4) for w in word_basis(n, 2)]
    for wx, we, wt in itertools.product(words, repeat=3):
        xi, eta, theta = (word_vec(cfg, w) for w in (wx, we, wt))
        got = three_wick_trace(xi, eta, theta)
        expect = three_wick_trace(unit_elsewhere(xi), eta, theta)
        assert got == expect and got.coeffs == expect.coeffs


@pytest.mark.parametrize("q", [0.35, -0.8])
def test_float_basis_words_are_the_exact_products_at_q(q):
    exact, floats = cfg_for(5), SpaceConfig(2, 1, 5, ScalarMode.at(q))
    words = [w for n in range(3) for w in word_basis(n, 2)]
    for wx, we in itertools.product(words, repeat=2):
        got = wick_apply(word_vec(floats, wx), word_vec(floats, we))
        expect = wick_apply(word_vec(exact, wx), word_vec(exact, we))
        assert got.coeffs == {w: p.eval(q) for w, p in expect.coeffs.items()}
        assert all(type(c) is float for c in got.coeffs.values())
        for wt in words:
            trace = three_wick_trace(*(word_vec(floats, w) for w in (wx, we, wt)))
            assert type(trace) is float
            assert trace == three_wick_trace(*(word_vec(exact, w) for w in (wx, we, wt))).eval(q)


def subset_walk_action(xi_word, source, max_degree):
    """The Wick kernel by its subsets: for each set A of the word's positions
    the letters at A are annihilated, largest position first, with weight
    q^iota(A) q^(slot) per step, and then the letters at the complement are
    created outermost-first.  The subsets are walked as one decision tree
    from the last position down; iota(A), the complement positions above
    each chosen one, grows by the letters kept so far at each annihilation.
    The route the last-letter recursion replaced, kept as its oracle."""
    n = len(xi_word)
    # prefix plus what is left of the source must fit the truncation
    min_k = max(0, (n + len(source) - max_degree + 1) // 2)
    total = {}

    def walk(pos, prefix, cur, k):
        if pos == 0:
            for w, powers in cur.items():
                acc = total.setdefault(prefix + w, {})
                for p, c in powers.items():
                    acc[p] = acc.get(p, 0) + c
            return
        code = xi_word[pos - 1]
        if k + pos - 1 >= min_k:
            walk(pos - 1, (code,) + prefix, cur, k)
        above, nxt = len(prefix), {}
        for w, powers in cur.items():
            for j, letter in enumerate(w):
                if letter == code:
                    acc = nxt.setdefault(w[:j] + w[j + 1 :], {})
                    for p, c in powers.items():
                        acc[p + j + above] = acc.get(p + j + above, 0) + c
        if nxt:
            walk(pos - 1, prefix, nxt, k + 1)

    walk(n, (), {source: {0: 1}}, 0)
    return tuple((w, QPolynomial.from_powers(powers)) for w, powers in sorted(total.items()))


def kernel_cases(d, longest):
    words = [w for n in range(longest + 1) for w in itertools.product(range(d), repeat=n)]
    for xi_word, source in itertools.product(words, repeat=2):
        for max_degree in range(len(source), len(xi_word) + len(source) + 1):
            yield xi_word, source, max_degree


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_kernel_is_the_subset_walk(d):
    """Every word and source of at most four letters, at every truncation
    from the source's degree up: the same terms, in the same order."""
    for case in kernel_cases(d, 4):
        assert wick.wick_word_action(*case) == subset_walk_action(*case), case


def q_factorial(n):
    out = ONE
    for k in range(1, n + 1):
        out = out * QPolynomial((1,) * k)
    return out


def test_eighteen_equal_letters_reach_the_vacuum_with_the_q_factorial():
    # <e^n, e^n> = [n]_q!, the vacuum coefficient of W(e^n) e^n
    word = (0,) * 18
    terms = dict(wick.wick_word_action(word, word, 36))
    assert terms[()] == word_inner_poly(word, word) == q_factorial(18)
    assert list(terms) == [(0,) * k for k in range(0, 37, 2)]


def test_the_longest_word_on_the_vacuum_is_itself():
    word = (0, 1) * (bound("MAX_WICK_LETTERS") // 2)
    assert wick.wick_word_action(word, (), len(word)) == ((word, ONE),)
    assert wick.wick_word_action(word, (), len(word) - 1) == ()


def test_a_word_past_the_longest_is_refused_before_any_work():
    word = (0,) * (bound("MAX_WICK_LETTERS") + 1)
    wick.wick_word_action.cache_clear()
    with pytest.raises(ValueError, match="work bound"):
        wick.wick_word_action(word, (), len(word))
    assert wick.wick_word_action.cache_info()[1:] == (1, 4096, 0)  # one miss, nothing stored


def _poly_times(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _q_binomials(n: int) -> list:
    """[n k]_q for k = 0..n as integer coefficient lists, by q-Pascal:
    [n k] = [n−1 k−1] + q^k [n−1 k]."""
    row = [[1]]
    for top in range(1, n + 1):
        inner = [
            [a + b for a, b in itertools.zip_longest(row[k - 1], [0] * k + row[k], fillvalue=0)]
            for k in range(1, top)
        ]
        row = [[1]] + inner + [[1]]
    return row


def hermite_linearization(n: int, m: int) -> dict:
    """W(e^n) e^m = Σ_k [n k]_q [m k]_q [k]_q! e^(n+m−2k), the product formula
    of the continuous q-Hermite polynomials, as {k: coefficient list}."""
    left, right = _q_binomials(n), _q_binomials(m)
    out, factorial = {}, [1]
    for k in range(min(n, m) + 1):
        if k:
            factorial = _poly_times(factorial, [1] * k)
        out[k] = _poly_times(_poly_times(left[k], right[k]), factorial)
    return out


@pytest.mark.parametrize(
    "pairs",
    [[(n, m) for n in range(13) for m in range(13)], [(22, 23)], [(100, 12)], [(12, 100)]],
    ids=["to-12", "22-on-23", "100-on-12", "12-on-100"],
)
def test_one_letter_kernel_is_the_q_hermite_linearization(pairs):
    # 22 letters on 23 is at the edge MAX_WICK_WORK admits (23 on 23 is
    # refused); 100 on 12 and 12 on 100 are admitted too
    for n, m in pairs:
        terms = wick.wick_word_action((0,) * n, (0,) * m, n + m)
        expected = {(0,) * (n + m - 2 * k): c for k, c in hermite_linearization(n, m).items()}
        assert {word: list(p.coeffs) for word, p in terms} == expected, (n, m)


def test_moment_examples():
    assert moment_pair_partitions([0, 0, 0]) == QPolynomial.zero()
    assert moment_pair_partitions([0, 1]) == QPolynomial.zero()
    assert moment_pair_partitions([0, 0]) == ONE
    assert moment_pair_partitions([0] * 4) == QPolynomial((2, 1))


def test_moment_matches_operator_route():
    rng = np.random.default_rng(11)
    for m in (2, 3, 4, 5, 6):
        cfg = SpaceConfig(3, 1, m, EXACT)
        for _ in range(6):
            codes = [int(c) for c in rng.integers(0, 3, size=m)]
            assert moment_pair_partitions(codes) == operator_route_moment(codes, cfg)


def rational_value(x, q):
    """x at the binary value q in exact rationals (q unused for plain numbers)."""
    if isinstance(x, QPolynomial):
        return sum(Fraction(c) * Fraction(q) ** k for k, c in enumerate(x.coeffs))
    return Fraction(x)


def letter_inner(a, b):
    if isinstance(a, int):
        return 1 if a == b else 0
    return sum((x * y for x, y in zip(a, b)), 0)


def oracle_moment(hs, mode):
    """Enumerate every pair partition, then multiply: q^crossings times the paired inner products.

    Exact mode multiplies QPolynomials; float mode first turns every letter
    entry into a float and then works in floats throughout.
    """
    hs = list(hs)
    if mode.is_exact:
        total = QPolynomial.zero()
        for rho in enumerate_pair_partitions(len(hs)):
            term = QPolynomial.monomial(crossings(rho))
            for i, j in rho.pairs:
                term = term * letter_inner(hs[i - 1], hs[j - 1])
            total = total + term
        return total
    q = mode.q
    if hs and not isinstance(hs[0], int):
        hs = [tuple(float(rational_value(x, q)) for x in h) for h in hs]
    total = 0.0
    for rho in enumerate_pair_partitions(len(hs)):
        term = q ** crossings(rho)
        for i, j in rho.pairs:
            term *= letter_inner(hs[i - 1], hs[j - 1])
        total += term
    return total


MODES = st.sampled_from(
    [EXACT] + [ScalarMode.at(q) for q in (-0.9, -0.3, 0.0, 0.5, 0.8)]
)
ENTRIES = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.fractions(min_value=-2, max_value=2, max_denominator=5),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3).map(
        lambda cs: QPolynomial(tuple(cs))
    ),
)
CODE_WORDS = st.lists(st.integers(min_value=0, max_value=2), max_size=8)
VECTOR_WORDS = st.lists(st.tuples(ENTRIES, ENTRIES), max_size=8)


def check_against_oracle(hs, mode):
    got = moment_pair_partitions(hs, mode)
    expect = oracle_moment(hs, mode)
    if mode.is_exact:
        assert got == expect
    else:
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(CODE_WORDS, MODES)
def test_moment_matches_enumeration_oracle_on_codes(codes, mode):
    check_against_oracle(codes, mode)


@settings(max_examples=150, deadline=None)
@given(VECTOR_WORDS, MODES)
def test_moment_matches_enumeration_oracle_on_vectors(hs, mode):
    check_against_oracle(hs, mode)


def test_moment_of_twelve_equal_letters_is_the_touchard_riordan_sum():
    codes = [0] * 12
    assert moment_pair_partitions(codes) == oracle_moment(codes, EXACT)
    assert moment_pair_partitions(codes).coeffs[0] == 132  # Catalan(6): no crossings


def test_moment_matches_the_depth_first_oracle_on_two_letter_arrangements():
    # all 924 arrangements of six 0s and six 1s
    for ones in itertools.combinations(range(12), 6):
        codes = tuple(int(i in ones) for i in range(12))
        assert moment_pair_partitions(codes) == dfs_moment(codes)


def test_moment_matches_the_depth_first_oracle_on_three_letter_words():
    rng = np.random.default_rng(16)
    for m in range(0, 15, 2):
        for _ in range(12):
            codes = tuple(int(c) for c in rng.integers(0, 3, size=m))
            assert moment_pair_partitions(codes) == dfs_moment(codes)


def test_moment_matches_the_depth_first_oracle_on_many_distinct_letter_pairs():
    # each letter twice or four times among up to 10 letters, shuffled: the
    # walk finds the arcs a letter closes by code, not by a scan
    rng = np.random.default_rng(19)
    for letters in range(1, 11):
        for _ in range(6):
            codes = [int(c) for c in rng.permutation(letters)] * 2
            codes += [int(c) for c in rng.integers(0, letters, size=rng.integers(0, 3))] * 2
            codes = tuple(int(c) for c in rng.permutation(codes))
            assert moment_pair_partitions(codes) == dfs_moment(codes)


def test_the_walk_reaches_five_thousand_letter_pairs():
    # one matching each: nested arcs never cross, and the arcs of 0..4999
    # read twice cross pairwise, C(5000, 2) times in all
    nested = tuple(range(5000)) + tuple(reversed(range(5000)))
    assert moment_pair_partitions(nested) == ONE
    crossing = list(range(5000)) * 2
    assert collections.deque(wick._open_arc_states(crossing, True), maxlen=1)[0] == {(): {comb(5000, 2): 1}}


def _times_one_minus_q(coeffs: list) -> list:
    return [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]


def _touchard_riordan_numerator(n: int) -> list:
    """Σ_k (−1)^k q^(k(k+1)/2) [C(2n, n−k) − C(2n, n−k−1)], by power of q."""
    out = [0] * (n * (n + 1) // 2 + 1)
    for k in range(n + 1):
        ballot = comb(2 * n, n - k) - (comb(2 * n, n - k - 1) if k < n else 0)
        out[k * (k + 1) // 2] += (-1) ** k * ballot
    return out


@pytest.mark.parametrize("n", range(1, 21))
def test_equal_letter_moment_is_the_touchard_riordan_closed_form(n):
    # Σ over matchings of [2n] of q^cr = (1−q)^(−n) · numerator (Touchard
    # 1952, Riordan 1975); compared after clearing the denominator, on plain
    # integer coefficient lists
    lhs = list(moment_pair_partitions((0,) * (2 * n)).coeffs)
    for _ in range(n):
        lhs = _times_one_minus_q(lhs)
    assert lhs == _touchard_riordan_numerator(n)


def held_states(hs) -> int:
    """Open-arc states the moment's walk holds, summed over its steps."""
    codes = all(isinstance(h, int) for h in hs)
    return sum(len(states) for states in wick._open_arc_states(list(hs), codes))


def walk_updates(hs) -> int:
    """Histogram entries the walk carries into each next step, at most open arcs + 1 times."""
    codes = all(isinstance(h, int) for h in hs)
    steps = list(wick._open_arc_states(list(hs), codes))[:-1]
    return sum((len(s) + 1) * len(hist) for states in steps for s, hist in states.items())


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_the_state_bound_of_any_word_is_a_fibonacci_number():
    # subsequences of the first n letters of the parity of n, no longer than
    # the m - n letters to come
    for m in range(0, 41, 2):
        assert sum(wick._state_bounds([(1,)] * m, False)) == fibonacci(m + 2)


def work_bound(hs) -> int:
    codes = all(isinstance(h, int) for h in hs)
    return max(wick._walk_work(list(hs), codes), default=0)


@pytest.mark.parametrize("m, held", [(18, 55), (60, 496)])
def test_the_state_bound_is_exact_on_equal_letters(m, held):
    assert sum(wick._state_bounds([0] * m, True)) == held_states([0] * m) == held


EVEN_CODE_WORDS = st.lists(st.integers(min_value=0, max_value=3), max_size=7).flatmap(
    lambda w: st.permutations(w + w)
)


@settings(max_examples=150, deadline=None)
@given(EVEN_CODE_WORDS)
def test_the_state_and_work_bounds_cover_the_walk_on_codes(codes):
    bound = sum(wick._state_bounds(codes, True))
    assert held_states(codes) <= bound <= fibonacci(len(codes) + 2)
    assert walk_updates(codes) <= work_bound(codes)


@settings(max_examples=150, deadline=None)
@given(VECTOR_WORDS.filter(lambda hs: len(hs) % 2 == 0))
def test_the_state_and_work_bounds_cover_the_walk_on_vectors(hs):
    assert held_states(hs) <= sum(wick._state_bounds(hs, False))
    assert walk_updates(hs) <= work_bound(hs)


def test_the_work_bound_is_within_three_times_the_walk_on_equal_letters():
    for m in (18, 40, 60):
        assert walk_updates([0] * m) <= work_bound([0] * m) < 3 * walk_updates([0] * m)


def _walked(*args):
    raise AssertionError("the walk started")


def test_moment_guard_refuses_before_enumerating(monkeypatch):
    monkeypatch.setattr(wick, "_open_arc_states", _walked)
    distinct = [tuple(int(i == j) for j in range(40)) for i in range(40)]
    with pytest.raises(ValueError, match="cap"):
        moment_pair_partitions(distinct)  # 39!! matchings, F(42) ~ 2.7e8 states
    with pytest.raises(ValueError, match="cap"):
        moment_pair_partitions([0, 1] * 20)  # 19!!^2 matchings, 1.3e9 updates
    # an odd letter count is zero whatever the rest of the word costs
    assert moment_pair_partitions([0] * 31 + [1]) == QPolynomial.zero()
    assert moment_pair_partitions([0] * 31 + [1], ScalarMode.at(0.5)) == 0.0
    # the benchmark's largest moment words, twelve letters of two kinds, stay
    # far below the cap
    for word in ([0] * 12, [0, 1] * 6, [0, 1, 1, 0] * 3):
        assert work_bound(word) * 100 < bound("MAX_MOMENT_WORK")


def test_moment_guard_stops_counting_once_over_the_cap(monkeypatch):
    # 3,000 equal letters pass the cap within their first hundred letters'
    # bounds; the guard reads no more of them
    read = []

    def counted(hs, codes):
        for bound in bounds(hs, codes):
            read.append(bound)
            yield bound

    bounds = wick._state_bounds
    monkeypatch.setattr(wick, "_state_bounds", counted)
    monkeypatch.setattr(wick, "_open_arc_states", _walked)
    with pytest.raises(ValueError, match="cap"):
        moment_pair_partitions([0] * 3000)
    assert len(read) < 100


def test_moment_walks_every_word_of_few_matchings(monkeypatch):
    # up to the matching cap a word is walked without its work bound
    monkeypatch.setattr(wick, "_walk_work", _walked)
    assert sum(moment_pair_partitions([0] * 16).coeffs) == 2_027_025  # 15!!
    assert sum(moment_pair_partitions(list(range(10)) * 4).coeffs) == 3**10
    assert moment_pair_partitions([(1, 0)] * 16).coeffs[0] == 1430  # Catalan(8)


def test_fraction_letters_with_whole_products_give_int_coefficients():
    h = (Fraction(1, 2),) * 4  # <h, h> = Fraction(1, 1)
    p = moment_pair_partitions([h] * 4)
    assert p == QPolynomial((2, 1))
    assert all(type(c) is int for c in p.coeffs)


def test_moment_with_general_vectors():
    h = (ONE, Q)
    k = (Q, ONE)
    expect = word_inner_poly((0,), (0,)) * (Q + Q)  # <h,k> = q + q = 2q
    assert moment_pair_partitions([h, k]) == QPolynomial((0, 2))
    assert expect == QPolynomial((0, 2))


def test_three_trace_small_cases():
    cfg = cfg_for(4)
    vac = FockVector.vacuum(cfg)
    e1 = word_vec(cfg, (0,))
    e11 = word_vec(cfg, (0, 0))
    assert three_wick_trace(e1, e1, e1) == QPolynomial.zero()
    assert three_wick_trace(e1, e1, vac) == ONE
    assert three_wick_trace(e1, e11, e1) == QPolynomial((1, 1))


def test_three_trace_matches_matrix_oracle():
    d = 2
    for n, m, l in itertools.product(range(3), repeat=3):
        if n + m + l > 6:
            continue
        top = max((n, m, l))
        cfg = SpaceConfig(d, 1, max(top, 1), EXACT)
        vac = FockVector.vacuum(cfg)
        for wx in word_basis(n, d):
            for we in word_basis(m, d):
                for wt in word_basis(l, d):
                    xi, eta, theta = (word_vec(cfg, w) for w in (wx, we, wt))
                    oracle = wick_apply(xi, wick_apply(eta, wick_apply(theta, vac)))
                    assert three_wick_trace(xi, eta, theta) == oracle.coeffs.get(
                        (), QPolynomial.zero()
                    )


def partition_route_trace(wx, we, wt):
    """Pair partitions of the concatenated word with no pair inside a block."""
    letters = wx + we + wt
    n, m = len(wx), len(we)
    total = QPolynomial.zero()

    def block(p):
        return 0 if p <= n else (1 if p <= n + m else 2)

    for rho in enumerate_pair_partitions(len(letters)):
        if any(block(i) == block(j) for i, j in rho.pairs):
            continue
        if any(letters[i - 1] != letters[j - 1] for i, j in rho.pairs):
            continue
        total = total + QPolynomial.monomial(crossings(rho))
    return total


def test_three_trace_matches_partition_route():
    d = 2
    for n, m, l in itertools.product(range(3), repeat=3):
        if n + m + l > 6:
            continue
        cfg = SpaceConfig(d, 1, max((n, m, l, 1)), EXACT)
        for wx in word_basis(n, d):
            for we in word_basis(m, d):
                for wt in word_basis(l, d):
                    xi, eta, theta = (word_vec(cfg, w) for w in (wx, we, wt))
                    assert three_wick_trace(xi, eta, theta) == partition_route_trace(
                        wx, we, wt
                    )


def test_split_product_examples():
    cfg = cfg_for(3)
    assert wick_split_product(word_vec(cfg, (0, 0)), 1).coeffs == {(0, 0): ONE, (): ONE}
    assert wick_split_product(word_vec(cfg, (0, 1)), 1).coeffs == {(0, 1): ONE}
    xi = word_vec(cfg, (0, 1, 0))
    assert wick_split_product(xi, 0).coeffs == xi.coeffs
    with pytest.raises(ValueError):
        wick_split_product(xi, 4)


def test_split_product_counts_every_word_against_its_bound(monkeypatch, set_bound):
    # a word of 4 letters split 2 | 2 walks 1 + 4 + 2 partitions; two words walk twice that
    cfg = cfg_for(4, d=2)
    one = word_vec(cfg, (0, 1, 1, 0))
    two = one + word_vec(cfg, (1, 1, 1, 1))
    set_bound("MAX_SPLIT_PARTITIONS", 7)
    assert len(wick_split_product(one, 2).coeffs) == 4  # the word, (0, 0), (1, 1) and the vacuum
    monkeypatch.setattr(wick, "_straddling_pairs", _refuse_walk)
    with pytest.raises(ValueError, match="walks 14 straddling partitions"):
        wick_split_product(two, 2)


def _refuse_walk(*args):
    raise AssertionError("the walk started past the work bound")


def test_split_product_matches_operator_product():
    for d in (1, 2):
        for n in range(1, 4):
            cfg = SpaceConfig(d, 1, n, EXACT)
            vac = FockVector.vacuum(cfg)
            for word in word_basis(n, d):
                for k in range(n + 1):
                    left = word_vec(cfg, word[: n - k]) if n - k else FockVector.vacuum(cfg)
                    right = word_vec(cfg, word[n - k :]) if k else FockVector.vacuum(cfg)
                    oracle = wick_apply(left, wick_apply(right, vac))
                    got = wick_split_product(word_vec(cfg, word), k)
                    assert got.coeffs == oracle.coeffs


def test_rational_scalings_keep_integral_coefficients_as_ints():
    values = (
        clt_moments(3, [0, 0, 0, 0])[-1],
        offdiag_wick_coefficient(2, [0], [0]),
        offdiag_reference(2, [0], [0]),
    )
    for value in values:
        assert value.coeffs and all(type(c) is int for c in value.coeffs)
    assert str(clt_moments(3, [0, 0, 0, 0])[-1]) == "2 + q"


def test_clt_matches_plain_moment():
    assert clt_moments(4, [0, 0, 0, 0]) == [QPolynomial((2, 1))] * 4
    assert clt_moments(4, [0, 1, 0]) == [QPolynomial.zero()] * 4
    for codes in itertools.product(range(2), repeat=4):
        assert clt_moments(3, codes) == [moment_pair_partitions(codes)] * 3


def test_offdiag_examples():
    assert offdiag_wick_coefficient(1, [0], [0]) == ONE
    assert offdiag_wick_coefficient(1, [0], [1]) == QPolynomial.zero()
    assert offdiag_wick_coefficient(1, [0, 1], [0, 1]) == QPolynomial.zero()  # N < m
    got = offdiag_wick_coefficient(3, [0, 1], [0, 1])
    from fractions import Fraction

    expect = word_inner_poly((0, 1), (0, 1)) * QPolynomial.constant(Fraction(2, 3))
    assert got == expect
    assert got == offdiag_reference(3, [0, 1], [0, 1])


def test_offdiag_degree_mismatch_vanishes():
    assert offdiag_wick_coefficient(3, [0], [0, 0, 0]) == QPolynomial.zero()
    assert offdiag_reference(3, [0], [0, 0, 0]) == QPolynomial.zero()


# ---------------------------------------------------------------------------
# the coloring sums the set-partition sums replaced, as oracles: every one of
# the N^m color assignments is enumerated


def colored(codes, coloring):
    """Colored letters as fresh integer codes; any injective code works."""
    return tuple(code * 1000 + color for code, color in zip(codes, coloring))


def oracle_clt(N, codes):
    m = len(codes)
    total = sum(
        (moment_pair_partitions(colored(codes, c)) for c in itertools.product(range(N), repeat=m)),
        QPolynomial.zero(),
    )
    return total * QPolynomial.constant(Fraction(1, N ** (m // 2))) if m % 2 == 0 else QPolynomial.zero()


def oracle_offdiag(N, f_codes, h_codes):
    mp, m = len(f_codes), len(h_codes)
    if (mp + m) % 2:
        return QPolynomial.zero()
    sequence = tuple(reversed(f_codes)) + tuple(h_codes)
    total = QPolynomial.zero()
    for distinct in itertools.permutations(range(N), m):
        for ks in itertools.product(range(N), repeat=mp):
            total = total + moment_pair_partitions(colored(sequence, tuple(reversed(ks)) + distinct))
    return total * QPolynomial.constant(Fraction(1, N ** ((mp + m) // 2)))


# the words of acceptance criterion 08
C08_WORDS = [(0,) * m for m in (2, 4, 6, 8)] + [(0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1, 0, 1), (0, 1, 0)]
C08_PAIRS = [
    (f, h) for m in range(1, 4) for f in itertools.product(range(2), repeat=m)
    for h in itertools.product(range(2), repeat=m)
] + [((0,), (0, 1, 1)), ((0, 1, 0), (0, 1, 0))]


@pytest.mark.parametrize("codes", C08_WORDS, ids=str)
def test_partition_sums_match_coloring_oracle(codes):
    values = clt_moments(4, codes)
    for N in range(1, 5):
        expected = oracle_clt(N, codes)
        assert values[N - 1] == clt_moments(N, codes)[-1] == expected
        assert str(values[N - 1]) == str(expected)


def test_offdiag_partition_sums_match_coloring_oracle():
    for f, h in C08_PAIRS:
        for N in range(1, 5):
            got, expected = offdiag_wick_coefficient(N, f, h), oracle_offdiag(N, f, h)
            assert got == expected and str(got) == str(expected)


def test_clt_walks_only_partitions_without_singletons(monkeypatch):
    seen = []
    monkeypatch.setattr(
        wick, "moment_pair_partitions", lambda letters, mode: seen.append(letters) or QPolynomial.one()
    )
    clt_moments(3, (0,) * 6)
    # colors of the 6 positions, as the walk visits them: every block pairs
    assert len(seen) == len(set(seen)) == 1 + 25 + 15  # 1, 2 and 3 blocks of sizes >= 2
    assert all(min(collections.Counter(s).values()) >= 2 for s in seen)
    seen.clear()
    offdiag_wick_coefficient(5, (0, 1), (0, 1))
    # the two distinct-color letters each take one averaged partner
    assert len(seen) == 2
