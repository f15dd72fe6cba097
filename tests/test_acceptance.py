"""The acceptance gate: one test per criterion, each printing a PASS line.

Exact criteria are checked with exact equality (no tolerances); the Monte
Carlo criterion uses the statistical |z| <= 3 gate at fixed seeds.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import math
import time
from fractions import Fraction

from intgeo import euclid, hermitian, montecarlo, spaceforms
from intgeo.scalars import LambdaScalar, Scalar, binomial


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_unit_structure_constants():
    t0 = time.time()
    for n in range(1, 11):
        info = euclid.nijenhuis_constants(n)
        assert info["kinematic_all_ones"], n
        assert info["additive_all_ones"], n
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
        for i in range(n + 1):
            for j in range(n + 1 - i):
                direct = euclid.mu_product_coefficient(n, i, j)
                via_t = euclid.mu_product_coefficient_via_t(n, i, j)
                assert direct == via_t, (n, i, j)
    report(3, "intrinsic-volume product coefficients agree by two routes, "
              "i + j <= n <= 10")


def test_criterion_04_hilbert_series():
    t0 = time.time()
    for n in range(1, 17):
        assert hermitian.un_algebra(n).hilbert_series() \
            == hermitian.poincare_series_coefficients(n), n
    assert time.time() - t0 < 10
    report(4, "hermitian Hilbert functions match the rational generating "
              "function, n <= 16")


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
    for n in range(1, 17):
        hermitian.un_algebra(n, "evaluation-kernel")
    report(6, "relation and evaluation-kernel presentations coincide, n <= 16")


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
        for k, mat in hermitian.tasaki_matrices(n).items():
            size = len(mat)
            for i in range(size):
                for j in range(size):
                    assert mat[i][j] == mat[j][i], (n, k)
            if k % 2 == 0 and k <= n:
                l = k // 2
                for i in range(l + 1):
                    for j in range(l + 1):
                        assert mat[i][j] == mat[l - i][l - j], (n, k)
    assert time.time() - t0 < 30
    report(8, "Tasaki matrices symmetric, even ones palindromic, n <= 12")


def test_criterion_09_fourier_involution_iota():
    for n in range(1, 11):
        model = hermitian.un_model(n)
        for k in range(2 * n + 1):
            for i in range(model.alg.dimension(k)):
                e = model.alg.basis_element(k, i)
                assert model.fourier(model.fourier(e)) == e, (n, k, i)
        for l in range(n + 1):
            for i in range(model.alg.dimension(2 * l)):
                e = model.alg.basis_element(2 * l, i)
                assert model.fourier(model.iota(e)) \
                    == model.iota(model.fourier(e)), (n, l, i)
    report(9, "Fourier transform is involutive and commutes with iota, n <= 10")


def test_criterion_10_first_order_brackets():
    t0 = time.time()
    ker = hermitian.first_order_formula(4, 4, 5, space="projective")

    def pref(num):
        return Scalar.pi_power(-4, Fraction(num, 5))
    assert ker.coeffs == {(0, 0): pref(30), (0, 1): pref(-6),
                          (1, 0): pref(-3), (1, 1): pref(7)}
    atab = hermitian.additive_un(4, hermitian.intrinsic_volume_element(4, 7))
    coeffs, _, _ = hermitian.klain_expand_block(4, atab, 4, 3)
    e = Scalar.from_rational
    assert coeffs == {(0, 0): e(Fraction(30, 120)), (0, 1): e(Fraction(-6, 120)),
                      (1, 0): e(Fraction(-3, 120)), (1, 1): e(Fraction(7, 120))}
    assert time.time() - t0 < 60
    report(10, "length-average and Minkowski-sum brackets are exactly "
               "(1/(5 pi^4)) resp. (1/120) times [30, -6, -3, +7]")


def test_criterion_11_real_space_forms():
    for n in range(1, 11):
        v = spaceforms.real_space_form(n)
        for j in range(1, n + 1):
            for i in range(0, n - j + 1):
                assert v.phi(j) * v.tau(i) == v.tau(i + j), (n, i, j)
        if n >= 2:
            assert v.chi() == v.tau(0) + v.phi(2).scale(
                LambdaScalar.lam_power(1, Fraction(1, 4))), n
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
        ok, _ = spaceforms.curved_ideal_matches_projective_kernel(n)
        assert ok, n
    assert time.time() - t0 < 300
    report(12, "curved relation ideal at lam=1 equals the projective "
               "evaluation kernel, n <= 12")


def test_criterion_13_chapoton():
    t0 = time.time()
    ok, f, g = spaceforms.chapoton_check(12)
    assert ok
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
        montecarlo.ConvexBody.ball([0, 0], 1), montecarlo._square(1),
        10 ** 5, runs[0].seed)
    again2 = montecarlo.estimate_principal_kinematic(
        montecarlo.ConvexBody.ball([0, 0], 1), montecarlo._square(1),
        10 ** 5, runs[0].seed)
    assert again.row() == again2.row()
    expect_disk_square = math.pi + 5
    assert runs[0].prediction == expect_disk_square
    expect_additive = 2 + 8 / math.pi
    assert abs(runs[11].prediction - expect_additive) < 1e-14
    zmax = max(abs(r.z) for r in runs)
    report(14, f"12-run Monte Carlo suite at 10^6 samples: max |z| = "
               f"{zmax:.3f} <= 3 in {elapsed:.1f} s, bit-reproducible")
