"""Exact coefficient arithmetic: rationals and powers of pi.

Everything downstream (algebra builds, kinematic tables, emitters) works over
this ring.  ``Scalar`` is a Laurent polynomial in pi with rational
coefficients; pi is treated as a formal transcendental, so nothing is ever
rounded.  It is a ring, not a field: a Scalar divides only by a single term
c*pi^e.  Exact linear algebra runs over Q, with powers of pi carried
alongside as a grading; the curvature lam of the space forms is a grading
too (see ``spaceforms``), not a coefficient ring.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


class ScalarError(ArithmeticError):
    pass


class UnsupportedInverse(ScalarError):
    """Inverse of a multi-term Scalar was requested."""


def binomial(a, b):
    """Binomial coefficient with the convention C(a,b)=0 for b<0 or b>a."""
    if b < 0 or b > a or a < 0:
        return 0
    return math.comb(a, b)


def factorial(k):
    return math.factorial(k)


def _coerce_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


class Scalar:
    """Element of Q[pi, pi^-1], stored as a map pi-exponent -> nonzero rational."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # pi exponents are the keys of a dict, so no two of them collide
        self.terms = {}
        for p, c in (terms or {}).items():
            c = _coerce_fraction(c)
            if c:
                self.terms[int(p)] = c

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q):
        return cls({0: _coerce_fraction(q)})

    @classmethod
    def pi_power(cls, m, coeff=1):
        return cls({m: _coerce_fraction(coeff)})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: Fraction(1)})

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_single_term(self):
        return len(self.terms) == 1

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms[p] + c if p in terms else c
        return Scalar(terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                p = p1 + p2
                terms[p] = terms[p] + c1 * c2 if p in terms else c1 * c2
        return Scalar(terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        r = Scalar.one()
        for _ in range(k):
            r = r * self
        return r

    def inverse(self):
        """Inverse of a single-term Scalar; multi-term inversion is unsupported."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero Scalar")
        if not self.is_single_term():
            raise UnsupportedInverse(f"cannot invert multi-term Scalar {self}")
        (p, c), = self.terms.items()
        return Scalar({-p: Fraction(1) / c})

    def __truediv__(self, other):
        """Division by a single-term Scalar or a nonzero rational; dividing by
        a multi-term Scalar raises UnsupportedInverse."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for p in sorted(self.terms):
            c = self.terms[p]
            if p == 0:
                parts.append(f"{c}")
            elif p == 1:
                parts.append(f"{c}*pi")
            else:
                parts.append(f"{c}*pi^{p}")
        return " + ".join(parts)

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {
            "terms": [
                {"pi_pow": p, "num": str(self.terms[p].numerator),
                 "den": str(self.terms[p].denominator)}
                for p in sorted(self.terms)
            ]
        }

    @classmethod
    def from_json(cls, doc):
        return cls({t["pi_pow"]: Fraction(int(t["num"]), int(t["den"]))
                    for t in doc["terms"]})


def omega(k):
    """Volume of the k-dimensional unit ball, as an exact Scalar.

    omega_k = pi^(k/2) / Gamma(1 + k/2); half-integer Gamma values are expanded
    exactly, so the result always lands in Q * pi^floor(k/2).
    """
    if k < 0:
        raise ValueError("omega(k) needs k >= 0")
    if k % 2 == 0:
        m = k // 2
        return Scalar.pi_power(m, Fraction(1, factorial(m)))
    m = (k - 1) // 2
    # Gamma(1 + (2m+1)/2) = (2m+2)! sqrt(pi) / (4^(m+1) (m+1)!)
    coeff = Fraction(4 ** (m + 1) * factorial(m + 1), factorial(2 * m + 2))
    return Scalar.pi_power(m, coeff)


def alpha(k):
    """Volume of the k-dimensional unit sphere: alpha_k = (k+1) * omega_{k+1}."""
    return omega(k + 1) * (k + 1)
