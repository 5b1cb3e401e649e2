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

Coefficient = Union[int, Fraction]


def _simplify(c: Coefficient) -> Coefficient:
    # ints are much faster than Fractions; drop the denominator when it is 1
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


@dataclass(frozen=True)
class QPolynomial:
    """Univariate polynomial in q over the rationals, coefficients by power.

    Trailing zeros are stripped; the zero polynomial has an empty tuple.

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
        return QPolynomial(())

    @staticmethod
    def one() -> "QPolynomial":
        return QPolynomial((1,))

    @staticmethod
    def q() -> "QPolynomial":
        return QPolynomial((0, 1))

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
        return QPolynomial((0,) * k + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    def constant_term(self) -> Coefficient:
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = cs[i] + c
        return QPolynomial(tuple(cs))

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial(())
        cs = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                cs[i + j] = cs[i + j] + ai * bj
        return QPolynomial(tuple(cs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = QPolynomial.one()
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> "QPolynomial":
        """Multiply by q**k (cheaper than a full product)."""
        if not self.coeffs:
            return self
        return QPolynomial((0,) * k + self.coeffs)

    def __call__(self, q0):
        return self.eval(q0)

    def eval(self, q0: float) -> float:
        """Horner evaluation at a float point.

        >>> QPolynomial((1, 1)).eval(0.5)
        1.5
        """
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return float(acc)

    def eval_exact(self, q0: Coefficient) -> Coefficient:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return _simplify(Fraction(acc))

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


def _coeff_str(c: Coefficient) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"({c})"
    return str(c)


def _coerce(x) -> "QPolynomial":
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return QPolynomial((x,))
    return NotImplemented


def qpoly_arith(a: QPolynomial, b: QPolynomial, op: str) -> QPolynomial:
    """Ring arithmetic by name; ``op`` is one of add, sub, mul."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def qpoly_eval(p: QPolynomial, q0: float) -> float:
    return p.eval(q0)


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
                raise ValueError(f"float mode requires |q| < 1, got {self.q}")
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
        return QPolynomial.zero() if self.is_exact else 0.0

    def one(self):
        return QPolynomial.one() if self.is_exact else 1.0

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

    def to_float(self, scalar, q0: float | None = None) -> float:
        if isinstance(scalar, QPolynomial):
            if q0 is None:
                if not self.is_exact:
                    q0 = self.q
                else:
                    raise ValueError("need a q value to evaluate an exact scalar")
            return scalar.eval(q0)
        return float(scalar)


EXACT = ScalarMode.exact()
