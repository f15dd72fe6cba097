"""Truncated formal power series in one variable over Q.

Coefficients are ints or Fractions; a zero coefficient is one that is falsy.
Only what the curvature calculus needs: multiplication, composition and
binomial powers (1+u)^alpha with rational alpha.
"""

from __future__ import annotations

from fractions import Fraction


def binomial_coefficient_general(alpha, m):
    """Generalized C(alpha, m) for rational alpha."""
    out = Fraction(1)
    for i in range(m):
        out *= (alpha - i)
        out /= (i + 1)
    return out


class FormalSeries:
    """Coefficients c[0..order] modulo x^(order+1)."""

    def __init__(self, coeffs, order):
        self.order = order
        c = list(coeffs)[: order + 1]
        c += [0] * (order + 1 - len(c))
        self.coeffs = c

    @classmethod
    def variable(cls, order):
        return cls([0, 1], order)

    @classmethod
    def constant(cls, c, order):
        return cls([c], order)

    def __eq__(self, other):
        return (isinstance(other, FormalSeries) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        return FormalSeries([a + b for a, b in zip(self.coeffs, other.coeffs)],
                            self.order)

    def __sub__(self, other):
        return FormalSeries([a - b for a, b in zip(self.coeffs, other.coeffs)],
                            self.order)

    def scale(self, c):
        return FormalSeries([c * a for a in self.coeffs], self.order)

    def __mul__(self, other):
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.order:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return FormalSeries(out, self.order)

    def compose(self, inner):
        """self(inner(x)); inner must have zero constant term."""
        if inner.coeffs[0]:
            raise ValueError("composition needs a series with zero constant term")
        out = FormalSeries.constant(self.coeffs[0], self.order)
        power = FormalSeries.constant(1, self.order)
        for k in range(1, self.order + 1):
            power = power * inner
            if self.coeffs[k]:
                out = out + power.scale(self.coeffs[k])
        return out


def binomial_power(u, alpha):
    """(1 + u)^alpha for a series u with zero constant term, rational alpha."""
    if u.coeffs[0]:
        raise ValueError("binomial_power needs zero constant term")
    out = FormalSeries.constant(1, u.order)
    power = FormalSeries.constant(1, u.order)
    for m in range(1, u.order + 1):
        power = power * u
        out = out + power.scale(binomial_coefficient_general(Fraction(alpha), m))
    return out
