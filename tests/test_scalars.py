from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qfock.scalars import EXACT, QPolynomial, ScalarMode

coeffs = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)
polys = coeffs.map(lambda cs: QPolynomial(tuple(cs)))


def test_normalization_strips_trailing_zeros():
    assert QPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPolynomial((0, 0)).is_zero()
    assert QPolynomial((Fraction(4, 2),)).coeffs == (2,)
    assert isinstance(QPolynomial((Fraction(4, 2),)).coeffs[0], int)


def test_degree_convention():
    assert QPolynomial.zero().degree() == -1
    assert QPolynomial.one().degree() == 0
    assert QPolynomial.monomial(3).degree() == 3


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + QPolynomial.zero() == a
    assert a * QPolynomial.one() == a
    assert a - a == QPolynomial.zero()


@given(polys, st.floats(min_value=-0.99, max_value=0.99))
def test_eval_is_ring_hom(p, q0):
    q = QPolynomial.q()
    assert (p * q).eval(q0) == pytest.approx(p.eval(q0) * q0)
    assert (p + 1).eval(q0) == pytest.approx(p.eval(q0) + 1.0)


def test_shift_matches_monomial_product():
    p = QPolynomial((2, -1))
    assert p.shift(2) == p * QPolynomial.monomial(2)


def test_str_rendering():
    assert str(QPolynomial.zero()) == "0"
    assert str(QPolynomial((2, 1))) == "2 + q"
    assert str(QPolynomial((1, 0, -1))) == "1 - q^2"
    assert str(QPolynomial((0, -1, 3))) == "-q + 3q^2"
    assert str(QPolynomial((Fraction(1, 2),))) == "(1/2)"


@given(polys)
def test_multiplicative_identities_and_zero_shift(p):
    one, zero = QPolynomial.one(), QPolynomial.zero()
    assert p * one == p and one * p == p
    assert p * 1 == p and 1 * p == p
    assert (p * zero).is_zero() and (zero * p).is_zero()
    assert (p * 0).coeffs == () and (0 * p).coeffs == ()
    assert p.shift(0) == p


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
rational_polys = st.lists(st.one_of(st.integers(-9, 9), rationals), max_size=6).map(
    lambda cs: QPolynomial(tuple(cs))
)


@given(st.one_of(polys, rational_polys), st.one_of(st.integers(-9, 9), rationals, polys, rational_polys))
def test_subtraction_is_adding_the_negation(a, b):
    for left, right in ((a, b), (b, a), (a, a), (a, QPolynomial(a.coeffs))):
        got, expect = left - right, left + (-right)
        assert got == expect and str(got) == str(expect)
        assert [type(c) for c in got.coeffs] == [type(c) for c in expect.coeffs]
        assert not got.coeffs or got.coeffs[-1] != 0
    assert (a - a).coeffs == () and (a - QPolynomial(a.coeffs)).coeffs == ()
    if not isinstance(b, QPolynomial):  # a constant cancels against itself as a polynomial
        assert (QPolynomial.constant(b) - b).coeffs == () == (b - QPolynomial.constant(b)).coeffs


def test_ring_results_never_keep_trailing_zeros():
    a, b = QPolynomial((1, 2, 3)), QPolynomial((0, 1, -3))
    assert (a + b).coeffs == (1, 3)
    assert (a - a).coeffs == ()
    assert (QPolynomial((0, 2)) * QPolynomial((5,))).coeffs == (0, 10)


def test_fraction_scaling_normalizes_integral_coefficients():
    """Rationals that reduce to integers come back as ints, so str and == do not move."""
    p = QPolynomial((2, 4, 6))
    half = QPolynomial(tuple(c * Fraction(1, 2) for c in p.coeffs))
    assert half.coeffs == (1, 2, 3)
    assert all(type(c) is int for c in half.coeffs)
    assert str(half) == "1 + 2q + 3q^2"
    assert half == QPolynomial((1, 2, 3))
    third = QPolynomial(tuple(c * Fraction(1, 3) for c in p.coeffs))
    assert str(third) == "(2/3) + (4/3)q + 2q^2"
    assert type(third.coeffs[2]) is int
    # a Fraction sum that reduces to 1 inside the ring prints and compares as 1
    whole = QPolynomial((Fraction(1, 2),)) + QPolynomial((Fraction(1, 2),))
    assert whole == QPolynomial.one() and str(whole) == "1"
    assert hash(whole) == hash(QPolynomial.one())


def eval_rational(p, q):
    """p at the binary value q in exact rationals, rounded once."""
    num, den = q.as_integer_ratio()
    return float(sum(Fraction(c) * Fraction(num, den) ** k for k, c in enumerate(p.coeffs)))


@given(
    st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=30),
    st.floats(min_value=-0.999, max_value=0.999),
)
def test_eval_is_correctly_rounded(cs, q0):
    p = QPolynomial(tuple(cs))
    assert p.eval(q0) == eval_rational(p, q0)


def test_eval_with_fraction_coefficients_is_correctly_rounded():
    p = QPolynomial((Fraction(1, 3), Fraction(-2, 7), 5))
    for q0 in (-0.9, -0.1, 0.0, 0.3, 0.9):
        assert p.eval(q0) == eval_rational(p, q0)
    assert QPolynomial.zero().eval(0.5) == 0.0


def test_float_mode_rejects_degenerate_q():
    for bad in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            ScalarMode.at(bad)
    ScalarMode.at(0.0)
    ScalarMode.at(-0.9)


def test_mode_lifting():
    m = ScalarMode.at(0.5)
    assert m.q_power(2) == 0.25
    assert m.of(QPolynomial((2, 1))) == 2.5
    assert EXACT.q_power(2) == QPolynomial.monomial(2)
    assert EXACT.of(3) == QPolynomial.constant(3)


def test_zero_and_one_are_shared_constants():
    assert QPolynomial.one() is QPolynomial.one() is EXACT.one()
    assert QPolynomial.zero() is QPolynomial.zero() is EXACT.zero()
    assert QPolynomial.one().coeffs == (1,) and QPolynomial.zero().coeffs == ()
    assert ScalarMode.at(0.5).one() == 1.0 and ScalarMode.at(0.5).zero() == 0.0
