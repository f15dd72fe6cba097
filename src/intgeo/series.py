"""Truncated formal power series in one variable over an exact ring.

Coefficients may be Fraction, Scalar or LambdaScalar; the ring is inferred
from the supplied zero element.  Only what the curvature calculus needs:
multiplication, composition, log(1+u) and binomial powers (1+u)^alpha with
rational alpha.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import _is_zero


def binomial_coefficient_general(alpha, m):
    """Generalized C(alpha, m) for rational alpha."""
    out = Fraction(1)
    for i in range(m):
        out *= (alpha - i)
        out /= (i + 1)
    return out


class FormalSeries:
    """Coefficients c[0..order] modulo x^(order+1)."""

    def __init__(self, coeffs, order, zero=Fraction(0)):
        self.order = order
        self.zero = zero
        c = list(coeffs)[: order + 1]
        c += [zero] * (order + 1 - len(c))
        self.coeffs = c

    @classmethod
    def variable(cls, order, zero=Fraction(0), one=Fraction(1)):
        return cls([zero, one], order, zero)

    @classmethod
    def constant(cls, c, order, zero=Fraction(0)):
        return cls([c], order, zero)

    def __eq__(self, other):
        return (isinstance(other, FormalSeries) and self.order == other.order
                and all((a - b) == self.zero or _is_zero(a - b)
                        for a, b in zip(self.coeffs, other.coeffs)))

    def __add__(self, other):
        return FormalSeries([a + b for a, b in zip(self.coeffs, other.coeffs)],
                            self.order, self.zero)

    def __sub__(self, other):
        return FormalSeries([a - b for a, b in zip(self.coeffs, other.coeffs)],
                            self.order, self.zero)

    def __neg__(self):
        return FormalSeries([self.zero - a for a in self.coeffs], self.order, self.zero)

    def scale(self, c):
        return FormalSeries([c * a for a in self.coeffs], self.order, self.zero)

    def __mul__(self, other):
        out = [self.zero for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.order:
                    break
                if not _is_zero(b):
                    out[i + j] = out[i + j] + a * b
        return FormalSeries(out, self.order, self.zero)

    def compose(self, inner):
        """self(inner(x)); inner must have zero constant term."""
        if not _is_zero(inner.coeffs[0]):
            raise ValueError("composition needs a series with zero constant term")
        out = FormalSeries.constant(self.coeffs[0], self.order, self.zero)
        power = FormalSeries.constant(self.zero + Fraction(1), self.order, self.zero)
        for k in range(1, self.order + 1):
            power = power * inner
            if _is_zero(self.coeffs[k]):
                continue
            out = out + power.scale(self.coeffs[k])
        return out

    def is_zero(self):
        return all(_is_zero(c) for c in self.coeffs)


def log1p(u):
    """log(1 + u) for a series u with zero constant term."""
    if not _is_zero(u.coeffs[0]):
        raise ValueError("log1p needs zero constant term")
    out = FormalSeries.constant(u.zero, u.order, u.zero)
    power = FormalSeries.constant(u.zero + Fraction(1), u.order, u.zero)
    for m in range(1, u.order + 1):
        power = power * u
        out = out + power.scale(Fraction((-1) ** (m + 1), m))
    return out


def binomial_power(u, alpha):
    """(1 + u)^alpha for a series u with zero constant term, rational alpha."""
    if not _is_zero(u.coeffs[0]):
        raise ValueError("binomial_power needs zero constant term")
    out = FormalSeries.constant(u.zero + Fraction(1), u.order, u.zero)
    power = FormalSeries.constant(u.zero + Fraction(1), u.order, u.zero)
    for m in range(1, u.order + 1):
        power = power * u
        out = out + power.scale(binomial_coefficient_general(Fraction(alpha), m))
    return out
