import json
from fractions import Fraction
from pathlib import Path

import pytest

from intgeo import checks, linalg
from intgeo import spaceforms as SF
from intgeo.scalars import alpha
from intgeo.series import FormalSeries, binomial_power
from oracles import curved_ideal_exact_route, curved_relation_quotient

GOLDEN = Path(__file__).parent / "golden"


def test_tau_product_rule():
    v = SF.real_space_form(4)
    got = v.tau(1) * v.tau(1)
    assert got == v.element({2: Fraction(1), 4: {1: Fraction(-1, 4)}})
    assert got.coeffs == {(2, 0): 1, (4, 1): Fraction(-1, 4)}
    assert got.substitute(0) == {2: 1}
    assert got.substitute(Fraction(1, 3)) == {2: 1, 4: Fraction(-1, 12)}
    # weights add: tau_i of weight i, lam of weight -2
    square = got * got
    assert {i - 2 * p for i, p in square.coeffs} == {4}


def test_chi_is_unit():
    for n in (1, 2, 3, 4, 5):
        v = SF.real_space_form(n)
        for k in range(n + 1):
            assert v.chi() * v.tau(k) == v.tau(k)


def test_sphere_values():
    v = SF.real_space_form(3)
    assert v.sphere_value(v.chi(), 2) == 2
    assert v.sphere_value(v.chi(), 3) == 0
    for j in range(4):
        assert v.sphere_value(v.tau(j), j) == 2 ** (j + 1)


def test_phi_powers_on_spheres():
    for n in (4, 6):
        v = SF.real_space_form(n)
        for k in range(1, n // 2 + 1):
            for l in range(n // 2 + 1):
                val = v.sphere_value(v.phi(2 * k), 2 * l)
                want = 2 * 4 ** k if k <= l else 0
                assert val == want


def test_t_squared_on_even_spheres():
    for l in range(1, 11):
        v = SF.real_space_form(2 * l)
        t = v.t_element()
        assert v.sphere_value(t * t, 2 * l) == 8 * l


def test_kinematic_routes_and_flat_limit():
    for n in range(1, 7):
        assert checks.curved_kinematic_routes(n), n
        v = SF.real_space_form(n)
        for l in range(n + 1):
            assert checks.kinematic_routes_agree(v, v.tau(l)), (n, l)
            table = v.kinematic(v.tau(l))
            factor = {0: alpha(n) * Fraction(1, 2 ** (n + 1))}
            for ((i, _), (j, _)), c in table.entries.items():
                assert i + j == n + l
                assert c == factor


def test_t_phi_series_round_trip():
    for order in (3, 6, 9):
        t_of_phi, phi_of_t, ok = SF.t_phi_series(order)
        assert ok
        # weight 1: x^k carries lam^((k-1)/2), so only odd powers occur and
        # the flat limit (lam^0) of both substitutions is the identity
        for series in (t_of_phi, phi_of_t):
            assert series.coeffs[1] == 1
            assert not any(series.coeffs[0::2])
        # t_of_phi carries the coefficients of the flat generator t
        v = SF.real_space_form(order)
        t = v.zero()
        for m in range((order - 1) // 2 + 1):
            t = t + v.phi(1 + 2 * m).scale(t_of_phi.coeffs[1 + 2 * m], m)
        assert t == v.t_element()


def test_complex_space_form_build():
    for n in range(1, 6):
        m = SF.complex_space_form(n)
        assert m.at_one.hilbert_series() == SF.poincare_series_coefficients(n)


def test_pairing_algebra_is_the_curved_relation_quotient():
    for n in range(17):
        alg, rel = SF.complex_space_form(n).at_one, curved_relation_quotient(n)
        assert alg.basis == rel.basis, n
        # every reduction entry, in the same order
        assert [(m, list(r.items())) for m, r in alg.reduction.items()] \
            == [(m, list(r.items())) for m, r in rel.reduction.items()], n
        assert alg.hilbert_series() == rel.hilbert_series(), n


def _mono_key(mono):
    return ",".join(str(e) for e in mono)


def test_generic_normal_forms_match_frozen_reductions():
    # every reduction m -> {bm: {lam_pow: coefficient}} for n <= 6, frozen
    # from a row reduction over the rational-function field Q(lam)
    frozen = json.loads((GOLDEN / "curved_normal_forms.json").read_text())
    assert sorted(frozen, key=int) == [str(n) for n in range(1, 7)]
    for n, table in frozen.items():
        m = SF.complex_space_form(int(n))
        got = {_mono_key(mono): {
                   _mono_key(bm): {str(p): str(c) for p, c in cs.items()}
                   for bm, cs in m.normal_form_symbolic({mono: Fraction(1)}).items()}
               for mono in m.at_one.reduction}
        assert got == table, n


def test_generic_normal_form_of_lam_polynomials():
    m = SF.complex_space_form(4)
    mono = (1, 3)
    base = m.normal_form_symbolic({mono: Fraction(3)})
    shifted = m.normal_form_symbolic({mono: {2: Fraction(1), 0: Fraction(2)},
                                      (0, 9): {0: Fraction(1)}})
    # one power of lam per basis term: the one its degree asks for
    assert all(len(cs) == 1 for cs in base.values())
    assert shifted == {bm: {p + 2: c / 3, p: 2 * c / 3}
                       for bm, cs in base.items() for p, c in cs.items()}
    assert m.normal_form_symbolic({mono: Fraction(0)}) == {}


def test_ideal_generators_weighted_homogeneous():
    # lam weight -2, s weight 2, t weight 1: every generator is homogeneous,
    # which is what lets the lam = 1 quotient stand for generic lam
    for n in range(1, 13):
        gens = SF.curved_ideal_generators(n)
        for g, weight in zip(gens, (n + 1, n + 2)):
            for (a, b), cs in g.items():
                for c in cs:
                    assert 2 * a + b - 2 * c == weight


def test_flat_limit_is_the_flat_ideal():
    for n in range(1, 6):
        m = SF.complex_space_form(n)

        def trunc(p):
            return {mo: c for mo, c in p.items() if 2 * mo[0] + mo[1] <= 2 * n}
        got = [g for g in m.flat_limit_generators() if g]
        want = [g for g in (trunc(SF.fk(n + 1)), trunc(SF.fk(n + 2))) if g]
        assert got == want


def test_n1_curved_generator():
    m = SF.complex_space_form(1)
    assert m.ideal_lambda[0] == {(1, 0): {0: Fraction(1)},
                                 (0, 2): {0: Fraction(-1, 2)}}


def test_cp_values():
    assert SF.cp_values(2, (0, 2)) == 6
    for n in range(1, 6):
        assert SF.cp_values(n, (0, 2 * n)) == Fraction(
            __import__("math").comb(2 * n, n))
        assert SF.cp_values(n, (0, 3)) == 0
        assert SF.cp_values(n, (n + 1, 0)) == 0


def test_curved_ideal_matches_projective_kernel():
    # the initial dimensions; criterion 12 checks the equality for n <= 12
    for n in range(1, 13):
        dims = SF.curved_ideal_dims(n)
        hs = SF.poincare_series_coefficients(n)
        free = {d: d // 2 + 1 for d in range(2 * n + 1)}
        assert dims == {d: free[d] - hs[d] for d in range(2 * n + 1)
                        if free[d] != hs[d]}


def test_curved_certificate_matches_exact_kernel():
    for n in range(1, 9):
        assert (SF.curved_ideal_matches_projective_kernel(n),
                SF.curved_ideal_dims(n)) == curved_ideal_exact_route(n), n


def one_generator_mutants(real):
    """``curved_ideal_generators`` keeping one of the two generators."""
    return [lambda n: real(n)[:1], lambda n: real(n)[1:]]


def test_curved_check_catches_mutations(monkeypatch):
    n = 5
    for mutant in one_generator_mutants(SF.curved_ideal_generators):
        with monkeypatch.context() as mp:
            mp.setattr(SF, "curved_ideal_generators", mutant)
            assert not SF.curved_ideal_matches_projective_kernel(n)
    cp_values = SF.cp_values
    monkeypatch.setattr(SF, "cp_values", lambda k, mono: cp_values(k, mono)
                        + (mono == (0, 2 * n)))
    assert not SF.curved_ideal_matches_projective_kernel(n)


def test_curved_check_decides_exactly_on_rank_shortfall(monkeypatch):
    assert all(SF.curved_ideal_matches_projective_kernel(n) for n in range(1, 7))
    calls = []
    kernel = linalg.kernel_basis
    monkeypatch.setattr(linalg, "CERTIFICATE_PRIME", 2)
    monkeypatch.setattr(linalg, "kernel_basis",
                        lambda *args: calls.append(args) or kernel(*args))
    for n in range(1, 7):
        assert SF.curved_ideal_matches_projective_kernel(n), n
    assert calls
    # the exact comparison still refutes either generator alone
    n = 4
    for mutant in one_generator_mutants(SF.curved_ideal_generators):
        with monkeypatch.context() as mp:
            mp.setattr(SF, "curved_ideal_generators", mutant)
            assert not SF.curved_ideal_matches_projective_kernel(n)


def test_conjecture_coefficients():
    assert SF.conjecture_coefficients(3) == [1, 3, 13]


def test_chapoton():
    _, f, g = SF.chapoton_check(12)
    assert f.coeffs[1:4] == [Fraction(1), Fraction(4), Fraction(22)]
    assert g.coeffs[1:4] == [Fraction(1), Fraction(3), Fraction(13)]


def test_fbar_relations_vanish():
    for n in range(1, 11):
        res = SF.fbar_relations_check(n)
        assert res and all(res.values()), (n, res)


def test_fbar_lowest_components_lambda_free():
    # below the first curvature correction the components coincide with the
    # flat relation polynomials
    for n in (2, 3):
        comps = SF.fbar_polynomials(n, n + 2)
        for i in (n + 1, n + 2):
            lam_free = {m: cs.get(0, Fraction(0)) for m, cs in comps[i].items()}
            lam_free = {m: c for m, c in lam_free.items() if c}
            want = {m: c for m, c in SF.fk(i).items() if 2 * m[0] + m[1] <= 2 * n}
            assert lam_free == want


def test_series_utilities():
    x = FormalSeries.variable(8)
    sq = binomial_power(x, Fraction(-1, 2))
    assert sq.coeffs[:3] == [Fraction(1), Fraction(-1, 2), Fraction(3, 8)]
    # (1 + x)^(-1/2) composed with x^2 is (1 + x^2)^(-1/2)
    comp = sq.compose(x * x)
    assert comp == binomial_power(x * x, Fraction(-1, 2))
    assert comp.coeffs[:5] == [Fraction(1), 0, Fraction(-1, 2), 0, Fraction(3, 8)]
    with pytest.raises(ValueError):
        sq.compose(FormalSeries.constant(Fraction(1), 8))


def test_space_form_kinematic_multiplicative_and_cocommutative():
    """The kinematic table is multiplicative, cocommutative, and agrees with
    the factorized route for random psi, rho and psi * rho."""
    import random
    rng = random.Random(43)
    for n in (2, 3, 4):
        v = SF.real_space_form(n)
        chi_table = v.kinematic()
        swapped = {((j, 0), (i, 0)): c
                   for ((i, _), (j, _)), c in chi_table.entries.items()}
        assert swapped == chi_table.entries
        for _ in range(3):
            psi = v.element({i: Fraction(rng.randint(-2, 2))
                             for i in range(n + 1)})
            rho = v.element({i: Fraction(rng.randint(-2, 2))
                             for i in range(n + 1)})
            for x in (psi, rho, psi * rho):
                assert checks.kinematic_routes_agree(v, x), n
            lhs = v.kinematic(psi * rho).entries
            rhs = {}
            for ((i, _), (j, _)), cs in v.kinematic(rho).entries.items():
                prod = psi * v.tau(i)
                for (a, q), ca in prod.coeffs.items():
                    acc = rhs.setdefault(((a, 0), (j, 0)), {})
                    for p, c in cs.items():
                        acc[p + q] = acc.get(p + q, 0) + c * ca
            rhs = {k: {p: c for p, c in cs.items() if c} for k, cs in rhs.items()}
            assert lhs == {k: cs for k, cs in rhs.items() if cs}, n
