from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from intgeo import checks
from intgeo.scalars import MixedPiGrading, Scalar, alpha, binomial, omega

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
monomials = st.builds(Scalar.pi_power, st.integers(-4, 4), fractions)


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
        assert s.pi_pow == k // 2 and s.coeff > 0


def test_arithmetic_examples():
    pi = Scalar.pi_power(1)
    assert pi * pi.inverse() == Scalar.one()
    half = Scalar.pi_power(1, Fraction(1, 2))
    assert half + half == pi and half - half == Scalar.zero()
    assert omega(2) * omega(2) == Scalar.pi_power(2) == omega(4) * 2
    assert pi ** 3 == Scalar.pi_power(3)
    assert (2 * pi) ** -2 == Scalar.pi_power(-2, Fraction(1, 4))
    one, half = Scalar.one(), Fraction(1, 2)
    assert one + half == Fraction(3, 2) == half + one
    assert 1 - Scalar.from_rational(3) == -2


def test_zero_is_canonical_and_adds_to_any_power():
    zero = Scalar.pi_power(5, 0)
    assert zero.pi_pow == 0 and zero == Scalar.zero() == 0 and not zero
    assert (Scalar.pi_power(3) * 0).pi_pow == 0
    x = Scalar.pi_power(-2, 7)
    assert zero + x == x == x + 0
    assert Scalar.pi_power(2) - Scalar.pi_power(2) == zero


def test_mixed_sum_raises():
    with pytest.raises(MixedPiGrading):
        Scalar.one() + Scalar.pi_power(1)
    with pytest.raises(MixedPiGrading):
        Scalar.pi_power(-1, 3) - 2


def test_rational_hash_agrees_with_equality():
    assert Scalar.from_rational(3) == Fraction(3) == 3
    assert Fraction(3) in {Scalar.from_rational(3)}
    assert Scalar.from_rational(Fraction(1, 2)) in {Fraction(1, 2)}
    assert len({Scalar.pi_power(1, 3), Scalar.pi_power(1, 3), Scalar.pi_power(2, 3)}) == 2


def test_product_identity_to_50():
    for n in range(51):
        assert checks.ball_volume_product(n), n


def test_ratio_identity_to_50():
    for n in range(2, 51):
        assert checks.ball_volume_ratio(n), n


def test_inverse_errors():
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar.one() / 0


def test_constructors_take_only_rationals():
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            Scalar.from_rational(bad)
        with pytest.raises(TypeError):
            Scalar.pi_power(1, bad)


def test_exact_division():
    a = Scalar.pi_power(2, 3)
    assert a / Scalar.pi_power(1, 2) == Scalar.pi_power(1, Fraction(3, 2))
    assert a / Fraction(2, 3) == a * Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        a / Scalar.zero()


@given(monomials, monomials, monomials)
@settings(max_examples=60, deadline=None)
def test_product_axioms_and_sums_across_powers(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * Scalar.one() == a and (a * Scalar.zero()).is_zero()
    if b:
        assert (a / b) * b == a
    if a and b and a.pi_pow != b.pi_pow:
        with pytest.raises(MixedPiGrading):
            a + b
    else:
        assert (a + b).coeff == a.coeff + b.coeff


@given(st.integers(-4, 4), fractions, fractions, fractions)
@settings(max_examples=60, deadline=None)
def test_sum_axioms_within_one_power(p, x, y, z):
    a, b, c = (Scalar.pi_power(p, v) for v in (x, y, z))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + (-a) == Scalar.zero()
    assert a * (b + c) == a * b + a * c
    assert (a + b).pi_pow == (p if x + y else 0)


@given(monomials)
@settings(max_examples=60, deadline=None)
def test_serialization_round_trip(s):
    terms = s.to_json()["terms"]
    assert len(terms) == (1 if s else 0)
    for t in terms:
        assert Scalar(Fraction(int(t["num"]), int(t["den"])), t["pi_pow"]) == s


def test_serialization_schema():
    doc = Scalar.pi_power(-1, 2).to_json()
    assert doc == {"terms": [{"pi_pow": -1, "num": "2", "den": "1"}]}
    assert Scalar.zero().to_json() == {"terms": []}


def test_binomial_convention():
    assert binomial(5, 2) == 10
    assert binomial(5, -1) == 0
    assert binomial(2, 5) == 0
    assert binomial(-1, 0) == 0
