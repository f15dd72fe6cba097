from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from intgeo import checks
from intgeo.scalars import Scalar, UnsupportedInverse, alpha, binomial, omega

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
scalars = st.dictionaries(st.integers(-4, 4), fractions, max_size=4).map(Scalar)


def test_omega_examples():
    assert omega(0) == Scalar.one()
    assert omega(2) == Scalar.pi_power(1)
    assert omega(3) == Scalar.pi_power(1, Fraction(4, 3))
    assert omega(1) == Scalar.from_rational(2)
    assert omega(4) == Scalar.pi_power(2, Fraction(1, 2))


def test_alpha_examples():
    assert alpha(1) == Scalar.pi_power(1, 2)
    assert alpha(0) == Scalar.from_rational(2)
    assert alpha(3) == Scalar.pi_power(2, 2)


def test_omega_lands_in_integer_pi_powers():
    for k in range(30):
        s = omega(k)
        assert list(s.terms) == [k // 2]


def test_arithmetic_examples():
    pi = Scalar.pi_power(1)
    assert pi * pi.inverse() == Scalar.one()
    x = Scalar({0: Fraction(1, 2), 1: Fraction(1)})
    y = Scalar({0: Fraction(1, 2), 1: Fraction(-1)})
    assert x + y == Scalar.one()
    assert omega(2) * omega(2) == Scalar.pi_power(2) == omega(4) * 2


def test_product_identity_to_50():
    for n in range(51):
        assert checks.ball_volume_product(n), n


def test_ratio_identity_to_50():
    for n in range(2, 51):
        assert checks.ball_volume_ratio(n), n


def test_inverse_errors():
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()
    with pytest.raises(UnsupportedInverse):
        (Scalar.one() + Scalar.pi_power(1)).inverse()


def test_exact_division():
    # division is by a single term only
    a = Scalar({0: Fraction(1), 1: Fraction(2), 2: Fraction(1)})
    assert a / Scalar.pi_power(1, 2) == Scalar({-1: Fraction(1, 2), 0: Fraction(1),
                                                1: Fraction(1, 2)})
    assert a / Fraction(2, 3) == a * Fraction(3, 2)
    with pytest.raises(UnsupportedInverse):
        a / Scalar({0: Fraction(1), 1: Fraction(1)})
    with pytest.raises(ZeroDivisionError):
        a / Scalar.zero()


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(st.dictionaries(st.integers(-4, 4), st.fractions(min_value=-100, max_value=100, max_denominator=50), max_size=5))
@settings(max_examples=60, deadline=None)
def test_canonical_idempotence(terms):
    once = Scalar(terms)
    twice = Scalar(once.terms)
    assert once == twice
    assert all(c != 0 for c in once.terms.values())


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_serialization_round_trip(s):
    assert Scalar.from_json(s.to_json()) == s


def test_serialization_schema():
    doc = Scalar.pi_power(-1, 2).to_json()
    assert doc == {"terms": [{"pi_pow": -1, "num": "2", "den": "1"}]}


def test_binomial_convention():
    assert binomial(5, 2) == 10
    assert binomial(5, -1) == 0
    assert binomial(2, 5) == 0
    assert binomial(-1, 0) == 0

