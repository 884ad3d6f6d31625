"""Truncated exponential generating functions over the rationals.

An Egf of order N stores the factorial-normalized coefficients
a_0, ..., a_N of sum_n a_n x^n / n!. All arithmetic is exact: products
are binomial convolutions and reciprocals are computed by the standard
triangular solve. Mixed-order arithmetic is an error rather than a
silent truncation, so every pipeline fixes one order up front.

f ** k is k products, the plain reference the tests hold
`counts.p_reciprocal_row` to. A series with integer coefficients and
a_0 = 1 is inverted in ints by `combinat.unit_reciprocal`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .combinat import binomial
from .record import FrozenRecord

Scalar = Union[int, Fraction]


class OrderMismatchError(ValueError):
    """Arithmetic between series truncated at different orders."""


class ZeroConstantTermError(ZeroDivisionError):
    """Reciprocal of a series with a_0 == 0."""


class NotAnIntegerError(ValueError):
    """An integer coefficient was requested but the value is a proper fraction."""


class Egf(FrozenRecord):
    _fields = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]) -> None:
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need {order + 1} coefficients for order {order}, "
                f"got {len(coeffs)}"
            )
        fields = self.__dict__
        fields["order"] = order
        fields["coeffs"] = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Scalar]) -> "Egf":
        cs = tuple(Fraction(c) for c in coeffs)
        return cls(order=len(cs) - 1, coeffs=cs)

    def _check_order(self, other: "Egf") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )

    def coeff(self, n: int) -> Fraction:
        """n-th factorial-normalized coefficient, i.e. n! [x^n]."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside order {self.order}")
        return self.coeffs[n]

    def coeff_int(self, n: int) -> int:
        c = self.coeff(n)
        if c.denominator != 1:
            raise NotAnIntegerError(f"coefficient {n} is {c}, not an integer")
        return c.numerator

    def __add__(self, other: "Egf") -> "Egf":
        if not isinstance(other, Egf):
            return NotImplemented
        self._check_order(other)
        return Egf(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Egf") -> "Egf":
        if not isinstance(other, Egf):
            return NotImplemented
        self._check_order(other)
        return Egf(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Egf":
        return Egf(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: Union["Egf", Scalar]) -> "Egf":
        if isinstance(other, Egf):
            self._check_order(other)
            a, b = self.coeffs, other.coeffs
            prod = tuple(
                sum(binomial(n, s) * a[s] * b[n - s] for s in range(n + 1))
                for n in range(self.order + 1)
            )
            return Egf(self.order, prod)
        if isinstance(other, (int, Fraction)):
            return Egf(self.order, tuple(Fraction(other) * a for a in self.coeffs))
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "Egf":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "Egf":
        """self ** k as k products, from one(order)."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative int, got {k!r}")
        result = one(self.order)
        for _ in range(k):
            result = result * self
        return result

    def reciprocal(self) -> "Egf":
        """Multiplicative inverse as a truncated series.

        q_0 = 1/a_0 and for n >= 1
        q_n = -(1/a_0) * sum_{s=1}^{n} C(n, s) a_s q_{n-s}.
        """
        a = self.coeffs
        if a[0] == 0:
            raise ZeroConstantTermError("cannot invert a series with zero constant term")
        inv0 = Fraction(1) / a[0]
        q: list[Fraction] = [inv0]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for s in range(1, n + 1):
                acc += binomial(n, s) * a[s] * q[n - s]
            q.append(-inv0 * acc)
        return Egf(self.order, tuple(q))


def one(order: int) -> Egf:
    return Egf(order, (Fraction(1),) + (Fraction(0),) * order)


def exp_series(rate: int, order: int) -> Egf:
    """e^{rate * x} truncated at the given order: coefficients rate^n."""
    return Egf(order, tuple(Fraction(rate) ** n for n in range(order + 1)))
