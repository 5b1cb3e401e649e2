"""Exact scalars for generic-q identities, plus the floating-point mode.

Identity checks run over polynomials in a formal variable q with rational
coefficients, so a single equality certifies every q in (-1, 1).  Numerical
estimates run in float mode at a fixed q with |q| < 1 strictly; q = 1 and
q = -1 are rejected because the inner product degenerates there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .budget import Refused

Coefficient = Union[int, Fraction]


def _simplify(c: Coefficient) -> Coefficient:
    # ints are much faster than Fractions; drop the denominator when it is 1
    if type(c) is not int and isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


@dataclass(frozen=True)
class QPolynomial:
    """Univariate polynomial in q over the rationals, coefficients by power.

    Trailing zeros are stripped; the zero polynomial has an empty tuple.
    The public constructor also turns Fractions with denominator 1 into
    ints.  Ring operations skip that step: sums and products of ints stay
    ints, so integer polynomials never meet a Fraction, and a Fraction
    that happens to reduce to an integer still prints and compares as one.

    >>> (QPolynomial.one() + QPolynomial.q()) * (QPolynomial.one() - QPolynomial.q())
    QPolynomial(coeffs=(1, 0, -1))
    >>> print(QPolynomial((2, 1)))
    2 + q
    """

    coeffs: tuple

    def __post_init__(self):
        cs = [_simplify(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def zero() -> "QPolynomial":
        return _ZERO

    @staticmethod
    def one() -> "QPolynomial":
        return _ONE

    @staticmethod
    def q() -> "QPolynomial":
        return _poly((0, 1))

    @staticmethod
    def constant(c) -> "QPolynomial":
        return QPolynomial((c,))

    @staticmethod
    def monomial(k: int, c=1) -> "QPolynomial":
        """c * q**k.

        >>> print(QPolynomial.monomial(3))
        q^3
        """
        if k < 0:
            raise ValueError("negative power")
        if type(c) is int:
            return _poly((0,) * k + (c,))
        return QPolynomial((0,) * k + (c,))

    @staticmethod
    def from_powers(powers: dict) -> "QPolynomial":
        """Sum of c * q**p over an {exponent: integer coefficient} histogram.

        >>> print(QPolynomial.from_powers({2: 1, 0: -1, 5: 0}))
        -1 + q^2
        """
        cs = [0] * (max(powers, default=-1) + 1)
        for p, c in powers.items():
            cs[p] = c
        return _poly(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        if type(other) is not QPolynomial:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return _poly(cs)

    __radd__ = __add__

    def __neg__(self):
        return _poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if type(other) is not QPolynomial:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        cs = list(a) + [0] * (len(b) - len(a))  # one pass: no negated copy of other
        for i, c in enumerate(b):
            cs[i] -= c
        return _poly(cs)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not QPolynomial:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            if c == 1:
                return self if a is self.coeffs else other
            return _wrap(tuple([x * c for x in a]))
        if not b:
            return _ZERO
        cs = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    cs[j] += ai * bj
        return _wrap(tuple(cs))

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPolynomial":
        """Multiply by q**k (cheaper than a full product)."""
        if not k or not self.coeffs:
            return self
        return _wrap((0,) * k + self.coeffs)

    def __call__(self, q0):
        return self.eval(q0)

    def eval(self, q0: float) -> float:
        """Value at a float point, correctly rounded.

        A float is a dyadic rational m/D, so p(m/D) = sum_k c_k m^k D^(n-k) / D^n
        is evaluated exactly in integers (rationals if a coefficient is a
        Fraction) and rounded once.

        >>> QPolynomial((1, 1)).eval(0.5)
        1.5
        >>> QPolynomial((Fraction(1, 3), 1)).eval(0.25)
        0.5833333333333334
        """
        cs = self.coeffs
        if not cs:
            return 0.0
        m, den = float(q0).as_integer_ratio()
        acc, scale = cs[-1], 1
        for c in reversed(cs[:-1]):
            scale *= den
            acc = acc * m + c * scale
        return float(acc / scale)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = _coeff_str(abs(c))
            else:
                var = "q" if k == 1 else f"q^{k}"
                if abs(c) == 1:
                    body = var
                else:
                    body = f"{_coeff_str(abs(c))}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


_new = object.__new__
_set = object.__setattr__


def _poly(cs) -> QPolynomial:
    """Wrap ring-operation output: strips trailing zeros, nothing else."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    if n < len(cs):
        cs = cs[:n]
    p = _new(QPolynomial)
    _set(p, "coeffs", tuple(cs))
    return p


def _wrap(cs: tuple) -> QPolynomial:
    """Wrap a coefficient tuple whose top entry is nonzero, such as a product
    or a shift of normalized polynomials (Q has no zero divisors)."""
    p = _new(QPolynomial)
    _set(p, "coeffs", cs)
    return p


# frozen, so every caller may share them
_ZERO = _poly(())
_ONE = _poly((1,))


def _coeff_str(c: Coefficient) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"({c})"
    return str(c)


def _coerce(x) -> "QPolynomial":
    if type(x) is int:
        return _poly((x,))
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return QPolynomial((x,))
    return NotImplemented


@dataclass(frozen=True)
class ScalarMode:
    """Scalar ring selector: exact polynomials in q, or floats at a fixed q.

    Float mode requires |q| < 1 strictly; the Gram form is only positive
    definite there and q = +-1 degenerates.
    """

    mode: str  # "exact" | "float"
    q: float | None = None

    def __post_init__(self):
        if self.mode == "exact":
            if self.q is not None:
                raise ValueError("exact mode takes no q value")
        elif self.mode == "float":
            if self.q is None:
                raise ValueError("float mode needs a q value")
            if not abs(self.q) < 1.0:
                raise Refused(f"float mode requires |q| < 1, got {self.q}")
        else:
            raise ValueError(f"unknown scalar mode {self.mode!r}")

    @staticmethod
    def exact() -> "ScalarMode":
        return ScalarMode("exact")

    @staticmethod
    def at(q: float) -> "ScalarMode":
        return ScalarMode("float", float(q))

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    # Lifting helpers so space/operator code is mode-generic.

    def zero(self):
        return _ZERO if self.is_exact else 0.0

    def one(self):
        return _ONE if self.is_exact else 1.0

    def q_power(self, k: int):
        if self.is_exact:
            return QPolynomial.monomial(k)
        return self.q ** k

    def of(self, value):
        """Lift an int/Fraction/QPolynomial into this mode's scalar ring."""
        if self.is_exact:
            if isinstance(value, QPolynomial):
                return value
            return QPolynomial.constant(value)
        if isinstance(value, QPolynomial):
            return value.eval(self.q)
        return float(value)


EXACT = ScalarMode.exact()
