"""Exact coefficients: a ``Scalar`` is one rational times one power of pi,
a grading fixed by degree; a sum of two nonzero powers that differ raises."""

import math
from fractions import Fraction


class MixedPiGrading(ArithmeticError):
    """A sum or block that must carry one power of pi carries several."""


def binomial(a, b):
    """Binomial coefficient with the convention C(a,b)=0 for b<0 or b>a."""
    return math.comb(a, b) if 0 <= b <= a else 0


def _coerced(op):
    """The binary method op, with a rational operand read as a Scalar."""
    def method(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(Fraction(other))
        return op(self, other)
    return method


class Scalar:
    """coeff * pi^pi_pow, coeff a Fraction; a rational hashes as its Fraction."""

    __slots__ = ("coeff", "pi_pow")

    def __init__(self, coeff, pi_pow=0):
        self.coeff = coeff
        self.pi_pow = pi_pow if coeff else 0

    @classmethod
    def from_rational(cls, q):
        return cls.pi_power(0, q)

    @classmethod
    def pi_power(cls, m, coeff=1):
        if not isinstance(coeff, (int, Fraction)):
            raise TypeError(f"cannot coerce {type(coeff).__name__} to a rational")
        return cls(Fraction(coeff), int(m))

    @classmethod
    def zero(cls):
        return cls(Fraction(0))

    @classmethod
    def one(cls):
        return cls(Fraction(1))

    def is_zero(self):
        return not self.coeff

    @_coerced
    def __add__(self, other):
        if not (self.coeff and other.coeff):  # zero adds to any power
            return self if self.coeff else other
        if self.pi_pow != other.pi_pow:
            raise MixedPiGrading(f"{self} + {other} mixes two powers of pi")
        return Scalar(self.coeff + other.coeff, self.pi_pow)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.coeff, self.pi_pow)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    @_coerced
    def __mul__(self, other):
        return Scalar(self.coeff * other.coeff, self.pi_pow + other.pi_pow)

    __rmul__ = __mul__

    def __pow__(self, k):
        return Scalar(self.coeff ** k, self.pi_pow * k)

    def inverse(self):
        return self ** -1

    @_coerced
    def __truediv__(self, other):
        return self * other.inverse()

    @_coerced
    def __eq__(self, other):
        return self.coeff == other.coeff and self.pi_pow == other.pi_pow

    def __hash__(self):
        return hash((self.coeff, self.pi_pow)) if self.pi_pow else hash(self.coeff)

    def __bool__(self):
        return bool(self.coeff)

    def __repr__(self):
        c, p = self.coeff, self.pi_pow
        return f"{c}" if p == 0 else f"{c}*pi" if p == 1 else f"{c}*pi^{p}"

    def to_json(self):
        return {"terms": [{"pi_pow": self.pi_pow, "num": str(self.coeff.numerator),
                           "den": str(self.coeff.denominator)}] if self else []}


def cell_coefficient(s):
    """A table coefficient as the emitters read it: (num, den, pi power) in
    lowest terms for a Scalar or a rational, and {lam power: (num, den,
    pi power)} for a curvature entry {lam power: Scalar}."""
    if isinstance(s, dict):
        return {j: cell_coefficient(c) for j, c in s.items()}
    if not isinstance(s, Scalar):
        s = Scalar.pi_power(0, s)
    return s.coeff.numerator, s.coeff.denominator, s.pi_pow


def omega(k):
    """Volume of the k-dimensional unit ball, pi^(k/2) / Gamma(1 + k/2), as an
    exact Scalar: pi^m / m! for k = 2m, and 2^k m! pi^m / k! for k = 2m + 1."""
    if k < 0:
        raise ValueError("omega(k) needs k >= 0")
    m = k // 2
    if k % 2 == 0:
        return Scalar(Fraction(1, math.factorial(m)), m)
    return Scalar(Fraction(2 ** k * math.factorial(m), math.factorial(k)), m)


def alpha(k):
    """Volume of the k-dimensional unit sphere: alpha_k = (k+1) * omega_{k+1}."""
    return omega(k + 1) * (k + 1)
