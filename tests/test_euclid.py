import random
from fractions import Fraction

import pytest

from intgeo import checks
from intgeo import euclid as E
from intgeo.scalars import Scalar, alpha, omega
from oracles import so_two_pass


def entries_by_degree(table):
    return {(l[0], r[0]): c for (l, r), c in table.entries.items()}


def test_mu_t_conversion():
    assert E.t_mu_coefficient(0) == Scalar.one()
    assert E.t_mu_coefficient(1) == Scalar.pi_power(-1, 2)
    assert E.t_mu_coefficient(2) == Scalar.pi_power(-1, 2)


def test_intrinsic_volume_examples():
    assert E.mu_ball(2, 1) == Scalar.pi_power(1)
    assert E.mu_ball(5, 0) == Scalar.one()
    assert E.box_intrinsic_volume([1, 1], 1) == Scalar.from_rational(2)
    assert E.box_intrinsic_volume([1, 1], 2) == Scalar.one()
    # a segment is a box with one side
    seg = [Fraction(5, 2)]
    assert E.box_intrinsic_volume(seg, 1) == Scalar.from_rational(Fraction(5, 2))
    assert E.box_intrinsic_volume(seg, 2).is_zero()


def test_ball_intrinsic_volumes_match_tube_expansion():
    # oracle: expand the tube volume of a ball binomially and match the
    # Steiner coefficients
    for n in range(1, 9):
        assert checks.ball_tube_polynomial(n), n


def test_steiner_examples():
    sq = E.steiner_polynomial([E.box_intrinsic_volume([1, 1], i) for i in range(3)])
    assert sq == {0: Scalar.one(), 1: Scalar.from_rational(4), 2: Scalar.pi_power(1)}
    assert list(sq) == [2, 1, 0]
    pt = E.steiner_polynomial([E.box_intrinsic_volume([], i) for i in range(4)])
    assert pt[3] == omega(3)
    assert all(pt[j].is_zero() for j in range(3))


def test_planar_kinematic_formula():
    got = entries_by_degree(E.kinematic_so(2, basis="mu"))
    assert got == {(0, 2): Scalar.one(), (2, 0): Scalar.one(),
                   (1, 1): Scalar.pi_power(-1, 2)}


def test_kinematic_of_volume():
    got = entries_by_degree(E.kinematic_so(3, E.SOValuation.volume(3), basis="mu"))
    assert got == {(3, 3): Scalar.one()}


def test_unit_normalization_all_ones():
    for n in range(1, 11):
        for c in range(n + 1):
            phi = E.SOValuation.from_coeffs(n, {c: Scalar.one()})
            table = E.kinematic_so(n, phi, normalization="unit")
            assert all(v == Scalar.one() for v in table.entries.values())


def test_kinematic_grading():
    for n in range(1, 7):
        for c in range(n + 1):
            phi = E.SOValuation.from_coeffs(n, {c: Scalar.one()})
            for (l, r) in E.kinematic_so(n, phi).entries:
                assert l[0] + r[0] == n + c


def test_kinematic_equals_pairing_inversion():
    for n in range(1, 9):
        assert checks.kinematic_equals_pairing_inversion(n), n


def test_kinematic_multiplicative():
    rng = random.Random(3)
    for n in range(1, 7):
        for _ in range(3):
            phi = E.SOValuation.from_coeffs(
                n, {i: Scalar.from_rational(rng.randint(-2, 2)) for i in range(n + 1)})
            psi = E.SOValuation.from_coeffs(
                n, {i: Scalar.from_rational(rng.randint(-2, 2)) for i in range(n + 1)})
            lhs = E.kinematic_so(n, phi * psi)
            rhs_entries = {}
            for ((a, _), (b, _)), c in E.kinematic_so(n, psi).entries.items():
                prod = phi.element * E.t_power(n, a)
                for m, c2 in prod.terms.items():
                    key = ((m[0], 0), (b, 0))
                    cur = rhs_entries.get(key, Scalar.zero()) + c * c2
                    rhs_entries[key] = cur
            rhs_entries = {k: v for k, v in rhs_entries.items() if not v.is_zero()}
            assert lhs.entries == rhs_entries, n


def test_additive_binomial_table():
    got = entries_by_degree(E.additive_so(2, E.SOValuation.from_coeffs(
        2, {2: Scalar.one()}, basis="psi")))
    assert got == {(0, 2): Scalar.one(), (1, 1): Scalar.from_rational(2),
                   (2, 0): Scalar.one()}
    got0 = entries_by_degree(E.additive_so(3, E.SOValuation.chi(3)))
    assert got0 == {(0, 0): Scalar.one()}


def test_additive_equals_chi_kinematic():
    for n in range(1, 8):
        assert checks.chi_kinematic_equals_volume_additive(n), n


def test_additive_via_fourier_conjugation():
    for n in range(1, 6):
        assert checks.additive_equals_fourier_conjugated_kinematic(n), n


def test_additive_two_squares_value():
    table = E.additive_so(2, basis="mu")
    mu = {0: Scalar.one(), 1: Scalar.from_rational(2), 2: Scalar.one()}
    # the pairings carry two powers of pi: sum one rational per power
    total = {}
    for ((i, _), (j, _)), c in table.entries.items():
        term = c * mu[i] * mu[j]
        total[term.pi_pow] = total.get(term.pi_pow, 0) + term.coeff
    assert total == {0: 2, -1: 8}


def test_fourier_so():
    for n in range(1, 7):
        for k in range(n + 1):
            mu_k = E.SOValuation.from_coeffs(n, {k: Scalar.one()}, basis="mu")
            hat = E.fourier_so(n, mu_k)
            assert hat.in_basis("mu") == {n - k: Scalar.one()}
            assert E.fourier_so(n, hat).in_basis("mu") == {k: Scalar.one()}


def test_coassociative_cocommutative():
    for n in range(1, 7):
        assert checks.kinematic_coassociative_cocommutative(n), n


def test_nijenhuis_constants():
    for n in range(1, 11):
        assert E.nijenhuis_constants(n)["t_table_constant"] \
            == alpha(n) * Fraction(1, 2 ** (n + 1))
    assert E.nijenhuis_constants(1)["t_table_constant"] == Scalar.pi_power(1, Fraction(1, 2))
    # a single basis unitizing both coproducts exists only in low dimensions
    assert E.nijenhuis_constants(2)["joint_unity_basis_exists"]
    assert not E.nijenhuis_constants(3)["joint_unity_basis_exists"]


def test_mu_product_examples():
    assert E.mu_product_coefficient(2, 1, 1) == Scalar.pi_power(1, Fraction(1, 2))
    assert E.mu_product_coefficient(4, 0, 3) == Scalar.one()
    assert E.mu_product_coefficient(3, 1, 2) == Scalar.from_rational(2)
    with pytest.raises(ValueError):
        E.mu_product_coefficient(2, 1, 2)


def test_crofton_constants():
    assert E.crofton_constant(2, 1) == Scalar.pi_power(1, Fraction(1, 2))
    assert E.crofton_constant(3, 2) == Scalar.from_rational(2)
    assert E.crofton_constant(5, 0) == Scalar.one()


def test_cauchy_constants():
    assert E.cauchy_constant(2) == Scalar.pi_power(1, Fraction(1, 2))
    assert E.cauchy_constant(3) == Scalar.from_rational(2)


def test_basis_round_trips():
    rng = random.Random(11)
    for n in (2, 4):
        for basis in ("mu", "psi", "nijenhuis"):
            coeffs = {i: Scalar.from_rational(rng.randint(-5, 5)) for i in range(n + 1)}
            coeffs = {i: c for i, c in coeffs.items() if not c.is_zero()}
            val = E.SOValuation.from_coeffs(n, coeffs, basis=basis)
            assert val.in_basis(basis) == coeffs


def test_so_tables_match_two_pass_oracle():
    """Every SO table, written once in its basis, equals its native table
    converted by a second diagonal pass: n <= 16, every basis and
    normalization, chi or the volume and every basis valuation."""
    bases = ("t", "mu", "psi", "nijenhuis")
    for n in range(1, 17):
        for basis in bases:
            phis = [None] + [E.SOValuation.from_coeffs(n, {i: Scalar.one()}, basis=basis)
                             for i in range(n + 1)]
            for i, phi in enumerate(phis):
                for norm in ("standard", "unit"):
                    assert E.kinematic_so(n, phi, basis, norm).entries \
                        == so_two_pass("kinematic", n, phi, basis, norm), (n, basis, i, norm)
                assert E.additive_so(n, phi, basis).entries \
                    == so_two_pass("additive", n, phi, basis), (n, basis, i)


def test_additive_coassociative():
    # both coproduct branches of the rotation-sum table agree after one more
    # application on either leg
    for n in range(1, 7):
        table = E.additive_so(n)
        assert table.is_swap_symmetric()
        left, right = {}, {}
        for ((i, _), (j, _)), c in table.entries.items():
            phi_i = E.SOValuation.from_coeffs(n, {i: Scalar.one()}, basis="psi")
            for ((x, _), (y, _)), c2 in E.additive_so(n, phi_i).entries.items():
                key = (x, y, j)
                left[key] = left.get(key, Scalar.zero()) + c * c2
            phi_j = E.SOValuation.from_coeffs(n, {j: Scalar.one()}, basis="psi")
            for ((x, _), (y, _)), c2 in E.additive_so(n, phi_j).entries.items():
                key = (i, x, y)
                right[key] = right.get(key, Scalar.zero()) + c * c2
        left = {k: v for k, v in left.items() if not v.is_zero()}
        right = {k: v for k, v in right.items() if not v.is_zero()}
        assert left == right


def test_so_pairing_symmetric_with_transform_pairs():
    # the full pairing matrix against transformed bases is block diagonal by
    # degree and exactly symmetric
    for n in range(1, 9):
        ev = E.volume_functional(n)
        for k in range(n + 1):
            lhs = ev((E.t_power(n, k) * E.fourier_so(
                n, E.SOValuation(n, E.t_power(n, n - k))).element))
            rhs = ev((E.t_power(n, n - k) * E.fourier_so(
                n, E.SOValuation(n, E.t_power(n, k))).element))
            assert lhs == rhs
