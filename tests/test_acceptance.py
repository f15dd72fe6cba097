"""The acceptance gate: one test per criterion, each printing a PASS line.

Exact criteria are checked with exact equality (no tolerances).  Where
``intgeo verify`` runs the same identity, the criterion runs that check's
predicate from ``intgeo.checks`` over its own, wider range.  The Monte Carlo
criterion uses the statistical |z| <= 3 gate at fixed seeds.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import math
import time
from fractions import Fraction

from intgeo import checks, euclid, hermitian, montecarlo, spaceforms
from intgeo.scalars import Scalar, binomial


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_unit_structure_constants():
    t0 = time.time()
    for n in range(1, 11):
        assert checks.unit_coefficient_presentations(n), n
    assert time.time() - t0 < 60
    report(1, "both coproducts admit unit-coefficient presentations, n <= 10 "
              "(kinematic: t basis under the unit motion measure; additive: "
              "psi_k/k! basis)")


def test_criterion_02_planar_kinematic_formula():
    got = {(l[0], r[0]): c
           for (l, r), c in euclid.kinematic_so(2, basis="mu").entries.items()}
    assert got == {(0, 2): Scalar.one(), (2, 0): Scalar.one(),
                   (1, 1): Scalar.pi_power(-1, 2)}
    report(2, "planar chi table is chi x mu2 + mu2 x chi + (2/pi) mu1 x mu1")


def test_criterion_03_mu_products_two_routes():
    for n in range(1, 11):
        assert checks.mu_products_two_routes(n), n
    report(3, "intrinsic-volume product coefficients agree by two routes, "
              "i + j <= n <= 10")


def test_criterion_04_hilbert_series():
    t0 = time.time()
    for n in range(1, 25):
        assert checks.hilbert_function(n), n
    assert time.time() - t0 < 10
    report(4, "hermitian Hilbert functions match the rational generating "
              "function, n <= 24")


def test_criterion_05_reduction_consistency():
    for n in range(1, 7):
        alg = hermitian.un_algebra(n)
        for k in range(n + 1):
            nf = alg.element({(k, 2 * n - 2 * k): Fraction(1)})
            expect = alg.element({(0, 2 * n): Fraction(
                binomial(2 * n - 2 * k, n - k), binomial(2 * n, n))})
            assert nf == expect, (n, k)
    report(5, "top-degree reductions reproduce the disk evaluations, n <= 6")


def test_criterion_06_presentations_agree():
    for n in range(1, 25):
        assert checks.presentations_agree(n), n
    report(6, "relation and evaluation-kernel presentations coincide, n <= 24")


def test_criterion_07_binomial_identity():
    t0 = time.time()
    for n in range(0, 41):
        for k in range(n + 1):
            assert hermitian.pfaff_saalschutz_residual(n, k) == 0, (n, k)
    assert time.time() - t0 < 1
    report(7, "alternating binomial residual is exactly zero, 0 <= k <= n <= 40")


def test_criterion_08_tasaki_matrices():
    t0 = time.time()
    for n in range(1, 13):
        assert checks.tasaki_symmetric_palindromic(n), n
    assert time.time() - t0 < 30
    report(8, "Tasaki matrices symmetric, even ones palindromic, n <= 12")


def test_criterion_09_fourier_involution_iota():
    for n in range(1, 11):
        assert checks.fourier_involution(n), n
        assert checks.iota_commutes_with_fourier(n), n
    report(9, "Fourier transform is involutive and commutes with iota, n <= 10")


def test_criterion_10_first_order_brackets():
    t0 = time.time()
    ker = hermitian.first_order_formula(4, 4, 5, space="projective")

    def pref(num):
        return Scalar.pi_power(-4, Fraction(num, 5))
    assert ker.coeffs == {(0, 0): pref(30), (0, 1): pref(-6),
                          (1, 0): pref(-3), (1, 1): pref(7)}
    atab = hermitian.additive_un(4, hermitian.intrinsic_volume_element(4, 7))
    block = hermitian.convert_un_table(atab, 4, "tasaki").block(4, 3)
    e = Scalar.from_rational
    assert block.scalars() == [[e(Fraction(30, 120)), e(Fraction(-6, 120))],
                               [e(Fraction(-3, 120)), e(Fraction(7, 120))],
                               [Scalar.zero(), Scalar.zero()]]
    assert time.time() - t0 < 60
    report(10, "length-average and Minkowski-sum brackets are exactly "
               "(1/(5 pi^4)) resp. (1/120) times [30, -6, -3, +7]")


def test_criterion_11_real_space_forms():
    for n in range(1, 11):
        assert checks.reproductive_property(n), n
        if n >= 2:
            assert checks.euler_characteristic_decomposition(n), n
    _, _, ok = spaceforms.t_phi_series(9)
    assert ok
    for l in range(1, 11):
        v = spaceforms.real_space_form(2 * l)
        t = v.t_element()
        assert v.sphere_value(t * t, 2 * l) == Scalar.from_rational(8 * l), l
    report(11, "transfer-basis calculus: reproductive property, chi "
               "decomposition, series round trip, sphere values 8l")


def test_criterion_12_curved_ideal_equals_projective_kernel():
    t0 = time.time()
    for n in range(1, 13):
        assert checks.curved_ideal_equals_projective_kernel(n), n
    assert time.time() - t0 < 300
    report(12, "curved relation ideal at lam=1 equals the projective "
               "evaluation kernel, n <= 12")


def test_criterion_13_chapoton():
    t0 = time.time()
    assert checks.chapoton_functional_equations(12)
    _, _, g = spaceforms.chapoton_check(12)
    assert g.coeffs[1:4] == [Fraction(1), Fraction(3), Fraction(13)]
    assert spaceforms.conjecture_coefficients(12) == g.coeffs[1:13]
    assert time.time() - t0 < 1
    report(13, "functional equations reproduce the closed-form coefficients, "
               "m <= 12, including (1, 3, 13)")


def test_criterion_14_monte_carlo_suite():
    t0 = time.time()
    runs = montecarlo.default_suite(samples=10 ** 6)
    elapsed = time.time() - t0
    assert len(runs) == 12
    for r in runs:
        assert abs(r.z) <= 3, (r.name, r.z)
    assert elapsed < 120, elapsed
    # bit-reproducibility of the logs
    again = montecarlo.estimate_principal_kinematic(
        montecarlo.ConvexBody.ball([0, 0], 1), montecarlo.ConvexBody.cube(2, 1),
        10 ** 5, runs[0].seed)
    again2 = montecarlo.estimate_principal_kinematic(
        montecarlo.ConvexBody.ball([0, 0], 1), montecarlo.ConvexBody.cube(2, 1),
        10 ** 5, runs[0].seed)
    assert again.row() == again2.row()
    expect_disk_square = math.pi + 5
    assert runs[0].prediction == expect_disk_square
    expect_additive = 2 + 8 / math.pi
    assert abs(runs[11].prediction - expect_additive) < 1e-14
    zmax = max(abs(r.z) for r in runs)
    report(14, f"12-run Monte Carlo suite at 10^6 samples: max |z| = "
               f"{zmax:.3f} <= 3 in {elapsed:.1f} s, bit-reproducible")
