import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import pytest

from intgeo import emitters
from intgeo import euclid as E
from intgeo import hermitian as H
from intgeo import linalg
from intgeo.graded import GradedElement, mono_mul, poly_mul
from intgeo.linalg import identity
from intgeo.scalars import Scalar, binomial, omega
from oracles import (additive_two_congruences, basis_elements, display_congruence,
                     display_route, ideal_rows, invert_exact_scalar, iota, iota_raw,
                     kinematic_un_products, mat_mul, monomials_of_degree, pairing_route,
                     scalar_mat_mul, un_block_entries, un_evaluation_kernel_quotient,
                     un_relation_quotient)

ROOT = Path(__file__).resolve().parents[1]


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c != 0}


def test_fk_examples():
    fs = H.fk_polynomials(4)
    assert fs[0] == {(0, 1): Fraction(1)}
    assert fs[1] == {(1, 0): Fraction(1), (0, 2): Fraction(-1, 2)}
    assert fs[2] == {(0, 3): Fraction(1, 3), (1, 1): Fraction(-1)}
    assert fs[3] == {(2, 0): Fraction(-1, 2), (1, 2): Fraction(1),
                     (0, 4): Fraction(-1, 4)}


def test_fk_recursion():
    fs = H.fk_polynomials(14)
    for k in range(1, 13):
        term1 = poly_mul({(1, 0): Fraction(k)}, fs[k - 1])
        term2 = poly_mul({(0, 1): Fraction(k + 1)}, fs[k])
        term3 = {m: (k + 2) * c for m, c in fs[k + 1].items()}
        assert poly_add(poly_add(term1, term2), term3) == {}


def test_hilbert_series_and_palindrome():
    # criterion 4 checks the generating function for n <= 24
    for n in range(1, 17):
        hs = H.un_algebra(n).hilbert_series()
        assert hs == hs[::-1]
    assert H.un_algebra(2).hilbert_series() == [1, 1, 2, 1, 1]
    assert H.un_algebra(3).hilbert_series() == [1, 1, 2, 2, 2, 1, 1]


def test_presentations_agree():
    for n in range(1, 25):
        assert H.presentations_agree(n), n


def test_presentation_certificate_matches_exact_kernel():
    for n in range(1, 9):
        ker = un_evaluation_kernel_quotient(n)
        alg = H.un_algebra(n)
        assert H.presentations_agree(n), n
        assert (ker.basis, ker.reduction) == (alg.basis, alg.reduction), n


def test_pairing_algebra_is_the_relation_quotient():
    for n in range(17):
        alg, rel = H.un_algebra(n), un_relation_quotient(n)
        assert alg.basis == rel.basis, n
        assert (alg.gens.names, alg.gens.weights, alg.truncation) \
            == (rel.gens.names, rel.gens.weights, rel.truncation), n
        # every reduction entry, in the same order
        assert [(m, list(r.items())) for m, r in alg.reduction.items()] \
            == [(m, list(r.items())) for m, r in rel.reduction.items()], n
        assert ideal_rows(alg, rel.columns) == ideal_rows(rel, rel.columns), n
        assert alg.hilbert_series() == rel.hilbert_series(), n


def dropped_relation(real):
    """The relation list without f_(n+2), whose ideal lies in the evaluation
    kernel but is smaller."""
    return lambda n: real(n)[:-1]


def test_presentation_check_catches_mutations(monkeypatch):
    n = 5
    with monkeypatch.context() as mp:
        mp.setattr(H, "un_relations", dropped_relation(H.un_relations))
        assert not H.presentations_agree(n)
    binomial = H.binomial
    monkeypatch.setattr(H, "binomial", lambda a, b: binomial(a, b)
                        + (a == 2 * n and b == n))
    assert not H.presentations_agree(n)


def test_presentation_check_decides_exactly_on_rank_shortfall(monkeypatch):
    calls = []
    kernel = linalg.kernel_basis
    monkeypatch.setattr(linalg, "CERTIFICATE_PRIME", 2)
    monkeypatch.setattr(linalg, "kernel_basis",
                        lambda *args: calls.append(args) or kernel(*args))
    for n in range(1, 9):
        assert H.presentations_agree(n), n
    assert calls
    # the exact comparison still refutes an ideal smaller than the kernel
    # (for n = 1, f_3 lies above the truncation, so nothing is dropped)
    monkeypatch.setattr(H, "un_relations", dropped_relation(H.un_relations))
    for n in range(2, 6):
        assert not H.presentations_agree(n), n


# Run in one fresh process, so that no cache hides a call: count the calls
# of ``rref`` under each CLI run of argv, after checking that no intgeo
# module but ``linalg`` binds it.
RREF_PROBE = """
import contextlib, io, json, sys
from intgeo import cli, linalg
rref = linalg.rref
print(json.dumps(sorted(name for name, mod in sys.modules.items()
                        if name.startswith("intgeo") and name != "intgeo.linalg"
                        and getattr(mod, "rref", None) is rref)))
calls = []
linalg.rref = lambda *args: calls.append(1) or rref(*args)
for argv in json.loads(sys.argv[1]):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    print(len(calls))
"""

# One run of every kind of exact command, each at a dimension no earlier run
# has built, so that no cache hides a call.
EXACT_COMMANDS = [
    ["verify", "--max-dim", "5"], ["so", "kinematic", "--dim", "7"],
    ["un", "verify", "--dim", "8"], ["un", "kinematic", "--dim", "10"],
    ["spaceform", "complex", "--check", "bfs", "--dim", "9"],
    ["spaceform", "complex", "--check", "conjecture", "--dim", "11"],
]


def test_exact_commands_never_row_reduce():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", RREF_PROBE, json.dumps(EXACT_COMMANDS)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n", 1)[0] == "[]"
    assert done.stdout.split()[1:] == ["0"] * len(EXACT_COMMANDS)


def test_relations_die_in_their_algebra():
    for n in range(1, 7):
        alg = H.un_algebra(n)
        assert alg.normal_form_raw(H.fk(n + 1)).is_zero()
        assert alg.normal_form_raw(H.fk(n + 2)).is_zero()


def test_restriction_compatibility():
    # the restriction sending the generators to themselves is well defined
    # because each relation of the smaller algebra reduces to zero there but
    # is a genuine nonzero element one dimension up
    for n in range(1, 6):
        small = H.un_algebra(n)
        big = H.un_algebra(n + 1)
        assert small.normal_form_raw(H.fk(n + 1)).is_zero()
        assert not big.normal_form_raw(H.fk(n + 1)).is_zero()
        for d in range(n + 1):
            assert small.basis[d] == big.basis[d]
            for m in monomials_of_degree(small.gens, d):
                assert small.element({m: Fraction(1)}).terms \
                    == big.element({m: Fraction(1)}).terms


def test_ev_disk_examples():
    assert H.ev_disk(1)(H.un_algebra(1).element({(0, 2): Fraction(1)})) \
        == Scalar.pi_power(-1, 2)
    a2 = H.un_algebra(2)
    ev = H.ev_disk(2)
    assert ev(a2.element({(0, 4): Fraction(1)})) == Scalar.pi_power(-2, 12)
    assert ev(a2.element({(1, 2): Fraction(1)})) == Scalar.pi_power(-2, 4)


def test_tasaki_monomial_examples():
    rows = H.tasaki_monomial_rows(2)
    assert rows[0] == {(0, 2): Scalar.pi_power(1, Fraction(1, 2))}
    assert rows[1] == {(1, 0): Scalar.pi_power(1, 2),
                       (0, 2): Scalar.pi_power(1, Fraction(-1, 2))}
    assert H.tasaki_monomial_rows(1)[0] == {(0, 1): Scalar.pi_power(1, Fraction(1, 2))}


def tasaki_matrix(k):
    """T[q][a]: the coefficient of s^a t^(k-2a) in tau_{k,q}."""
    monos = [(a, k - 2 * a) for a in range(k // 2 + 1)]
    return [[row.get(m, Scalar.zero()) for m in monos]
            for row in H.tasaki_monomial_rows(k)]


def test_monomial_to_sigma_closed_form_matches_bareiss():
    for k in range(41):
        # the same closed form with one Scalar inverse per prefactor
        inv_pref = [H.tasaki_prefactor(k, q).inverse() for q in range(k // 2 + 1)]
        assert H.monomial_to_sigma(k).scalars() == [
            [c * Fraction(binomial(a, q), 4 ** a) for q, c in enumerate(inv_pref)]
            for a in range(k // 2 + 1)], k
    for k in range(29):
        inv = H.monomial_to_sigma(k).scalars()
        assert scalar_mat_mul(inv, tasaki_matrix(k)) == identity(k // 2 + 1), k
        if k <= 10:
            assert inv == invert_exact_scalar(tasaki_matrix(k)), k


def test_hermitian_tasaki_change():
    m2 = H.un_model(2)
    assert m2.hermitian_element(2, 1) == m2.tasaki_element(2, 1)
    assert m2.hermitian_element(2, 0) \
        == m2.tasaki_element(2, 0) - m2.tasaki_element(2, 1)
    with pytest.raises(ValueError):
        m2.tasaki_element(3, 0)
    with pytest.raises(ValueError):
        m2.hermitian_element(3, 0)  # q below the admissible range


def test_basis_round_trips():
    rng = random.Random(5)
    for n in (2, 3):
        model = H.un_model(n)
        for tag in ("monomial", "tasaki", "hermitian"):
            for k in range(2 * n + 1):
                if tag == "tasaki" and k > n:
                    continue
                rows = model.display(k, tag).scalars()
                labels = model.basis_labels(k, tag)
                assert len(rows) == model.alg.dimension(k) == len(labels)
                # invertibility: random coordinates round-trip through rows
                inv = invert_exact_scalar(rows)
                vec = [Scalar.from_rational(rng.randint(-3, 3))
                       for _ in range(len(rows))]
                mid = [sum((vec[i] * rows[i][j] for i in range(len(rows))),
                           start=Scalar.zero()) for j in range(len(rows))]
                back = [sum((mid[i] * inv[i][j] for i in range(len(rows))),
                            start=Scalar.zero()) for j in range(len(rows))]
                assert back == vec


def test_fourier_on_hermitian_basis():
    # the transform sends mu_{k,q} to mu_{2n-k, n-k+q}
    for n in (1, 2, 3, 4):
        model = H.un_model(n)
        for k in range(2 * n + 1):
            qlo = max(0, k - n)
            for q in range(qlo, k // 2 + 1):
                img = model.fourier(model.hermitian_element(k, q))
                expect = model.hermitian_element(2 * n - k, n - k + q)
                assert img == expect, (n, k, q)


def test_fourier_involution_and_examples():
    # criterion 9 checks the involution for n <= 10
    m2 = H.un_model(2)
    for q in (0, 1):
        mu = m2.hermitian_element(2, q)
        assert m2.fourier(mu) == mu
    assert m2.fourier(m2.alg.one()) == H.volume_element(2)


def test_fourier_intrinsic_volume_rule():
    for n in (1, 2, 3):
        model = H.un_model(n)
        for d in range(2 * n + 1):
            td = model.alg.element({(0, d): Fraction(1)})
            h = (factorial(d) * omega(d) * Scalar.pi_power(-d)) \
                * (factorial(2 * n - d) * omega(2 * n - d)
                   * Scalar.pi_power(-(2 * n - d))).inverse()
            assert model.fourier(td) \
                == model.alg.element({(0, 2 * n - d): Fraction(1)}).scale(h)


def test_klain_examples():
    for n in (2, 3, 4):
        model = H.un_model(n)
        for k in range(n + 1):
            p = k // 2
            for q in range(p + 1):
                kl = model.klain(model.tasaki_element(k, q), k)
                assert kl.coeffs == [Scalar.one() if j == q else Scalar.zero()
                                     for j in range(p + 1)]
                klmu = model.klain(model.hermitian_element(k, q), k)
                for l in range(p + 1):
                    want = Scalar.one() if l == q else Scalar.zero()
                    assert klmu.vertex_value(l) == want


def test_klain_of_t_power_matches_disk_values():
    # the restriction of t^(2p) to a complex p-plane has Klain value
    # matching its evaluation on the p-dimensional disk
    for n in (2, 3):
        model = H.un_model(n)
        for p in range(1, n + 1):
            k = 2 * p
            kl = model.klain(model.alg.element({(0, k): Fraction(1)}), k)
            expect = Scalar.pi_power(-p, binomial(2 * p, p) * factorial(p))
            assert kl.vertex_value(p) == expect


def iota_of(model, x):
    """iota of an even-degree element through ``H.iota_block``."""
    terms = {}
    for k in x.degrees():
        img = H._apply(model.alg.coordinates(x, k), H.iota_block(model.n, k))
        terms.update(zip(model.alg.basis[k], img))
    return GradedElement(model.alg, terms)


def test_iota_on_tasaki_and_relations():
    for n in (2, 3, 4):
        model = H.un_model(n)
        for l in range(1, n // 2 + 1):
            for q in range(l + 1):
                img = iota_of(model, model.tasaki_element(2 * l, q))
                assert img == model.tasaki_element(2 * l, l - q), (n, l, q)
        for k in range(1, n + 1):
            f2k = model.alg.normal_form_raw(H.fk(2 * k)) if 2 * k <= 2 * n else None
            if f2k is None:
                continue
            assert iota_of(model, f2k) == f2k.scale(Fraction((-1) ** k)), (n, k)
        for k in range(1, n + 1):
            if 2 * k > 2 * n:
                continue
            tf = model.alg.normal_form_raw(
                poly_mul({(0, 1): Fraction(1)}, H.fk(2 * k - 1)))
            f2k = model.alg.normal_form_raw(H.fk(2 * k))
            rhs = (f2k.scale(Fraction(4 * k, 2 * k - 1)) + tf).scale(
                Fraction((-1) ** (k + 1)))
            assert iota_of(model, tf) == rhs, (n, k)


def test_chi_blocks_and_tasaki_matrices_match_pairing_route():
    # the oracle inverts the Tasaki pairing, symmetric by assertion
    for n in range(1, 9):
        chi, tasaki = pairing_route(n)
        mats = H.tasaki_matrices(n)
        for k in range(n + 1):
            assert H._chi_block(n, k) == chi[k], (n, k)
            assert H._chi_block(n, 2 * n - k) == chi[k].T, (n, k)
            assert mats[k] == tasaki[k].scalars(), (n, k)


def test_pi_matrix_reads_one_power_of_pi():
    block = H.PiMatrix.read([[Scalar.pi_power(2, 3), Scalar.zero()],
                             [Fraction(0), Scalar.pi_power(2, -1)]])
    assert block == (2, [[3, 0], [0, -1]], 1)
    assert block.inverse().scalars() == [[Scalar.pi_power(-2, Fraction(1, 3)), 0],
                                         [0, Scalar.pi_power(-2, -1)]]
    for rows in ([[Scalar.pi_power(1), Scalar.one()]],
                 [[Scalar.pi_power(1), Scalar.zero()], [Fraction(0), Scalar.one()]],
                 [[Scalar.pi_power(1)], [Fraction(2)]]):
        with pytest.raises(H.MixedPiGrading):
            H.PiMatrix.read(rows)
    # a single entry cannot mix powers either: the sum raises before any block
    with pytest.raises(H.MixedPiGrading):
        Scalar.pi_power(1) + Scalar.one()


def _random_rows(rng, rows, cols):
    """Rational rows with some zero rows, and now and then all zero."""
    zero = rng.random() < 0.1
    return [[Fraction(0) if zero or rng.random() < 0.2 else
             Fraction(rng.randint(-20, 20), rng.randint(1, 36)) for _ in range(cols)]
            if rng.random() > 0.15 else [Fraction(0)] * cols for _ in range(rows)]


def _with_power(rows, e):
    return [[Scalar(x, e) for x in row] for row in rows]


def _in_normal_form(block):
    if not any(map(any, block.m)):
        return block.e == 0 and block.d == 1
    return block.d > 0 and gcd(block.d, *(x for row in block.m for x in row)) == 1


def test_integer_pi_matrix_matches_fraction_oracles():
    """Products, transposes and inverses of integer blocks pi^e m / d equal
    the Fraction product and inverse entry for entry, pi powers included,
    and every result is in the gcd normal form."""
    rng = random.Random(28)
    for _ in range(150):
        r, c, s = (rng.randint(1, 5) for _ in range(3))
        a, b = _random_rows(rng, r, c), _random_rows(rng, c, s)
        ea, eb = rng.randint(-4, 4), rng.randint(-4, 4)
        pa, pb = (H.PiMatrix.read(_with_power(m, e)) for m, e in ((a, ea), (b, eb)))
        assert pa.scalars() == _with_power(a, ea)
        prod = pa @ pb
        assert prod.scalars() == _with_power(mat_mul(a, b), ea + eb)
        assert prod == H.PiMatrix.read(_with_power(mat_mul(a, b), ea + eb))
        assert pa.T.scalars() == _with_power([list(col) for col in zip(*a)], ea)
        for block in (pa, pb, prod, pa.T):
            assert _in_normal_form(block), block
        square = a[:c] if r >= c else None
        if square is None:
            continue
        pa = H.PiMatrix.read(_with_power(square, ea))
        try:
            inv = invert_exact_scalar(_with_power(square, ea))
        except linalg.SingularMatrixError:
            with pytest.raises(linalg.SingularMatrixError):
                pa.inverse()
            continue
        assert pa.inverse().scalars() == inv
        assert _in_normal_form(pa.inverse())


def test_pairing_inverses_and_fourier_match_scalar_bareiss():
    # the Scalar route: pair elements through the functional, solve the
    # Klain system, and invert by Bareiss entry by entry, with no PiMatrix
    for n in range(1, 7):
        model = H.un_model(n)
        mats = H.tasaki_matrices(n)
        for k in range(n + 1):
            left = [model.tasaki_element(k, q) for q in range(model.alg.dimension(k))]
            pairing = [[model.ev(li * model.fourier(lj)) for lj in left] for li in left]
            assert mats[k] == invert_exact_scalar(pairing), (n, k)
            src = H._klain_columns(n, k).scalars()
            dst = H._klain_columns(n, 2 * n - k).scalars()
            s_inv = invert_exact_scalar([[dst[a][q] for a in range(len(dst))]
                                         for q in range(len(dst[0]))])
            fwd = [[sum((s_inv[i][q] * v[q] for q in range(len(v))), Scalar.zero())
                    for i in range(len(s_inv))] for v in src]
            assert model.fourier_matrix(k).scalars() == fwd, (n, k)
            assert model.fourier_matrix(2 * n - k).scalars() \
                == invert_exact_scalar(fwd), (n, k)


def test_kinematic_chi_matches_plain_monomial_inversion():
    # independent route: invert the raw monomial pairing and transpose
    for n in range(1, 9):
        model = H.un_model(n)
        table = H.kinematic_un(n)
        for k in range(2 * n + 1):
            dim_l = model.alg.dimension(k)
            dim_r = model.alg.dimension(2 * n - k)
            pairing = [[model.ev(model.alg.multiply(model.alg.basis_element(k, a),
                                                    model.alg.basis_element(2 * n - k, b)))
                        for b in range(dim_r)] for a in range(dim_l)]
            transposed = [[pairing[a][b] for a in range(dim_l)] for b in range(dim_r)]
            inv = invert_exact_scalar(transposed)
            for a in range(dim_l):
                for b in range(dim_r):
                    got = table.entries.get(((k, a), (2 * n - k, b)), Scalar.zero())
                    assert got == inv[b][a], (n, k, a, b)


def _positive_definite(form):
    """Symmetric elimination over Q: every pivot is positive."""
    q = [list(row) for row in form]
    for i in range(len(q)):
        if q[i][i] <= 0:
            return False
        for r in range(i + 1, len(q)):
            f = q[r][i] / q[i][i]
            q[r] = [x - f * y for x, y in zip(q[r], q[i])]
    return True


def _times_t_power(alg, k, j):
    """Row a: the degree-(k + j) coordinates of m_a t^j, read off the
    reduction map, for the degree-k basis monomials m_a."""
    index = alg.basis_index[k + j]
    rows = []
    for m in alg.basis[k]:
        row = [Fraction(0)] * len(index)
        for bm, c in alg.reduction[mono_mul(m, (0, j))].items():
            row[index[bm]] = c
        rows.append(row)
    return rows


def test_hard_lefschetz():
    # Alesker, J. Differential Geom. 65 (2003): t^(2n-2k) maps degree k onto
    # degree 2n - k, and (phi, psi) -> top coefficient of phi psi t^(2n-2k)
    # is positive definite on the primitive part ker t^(2n-2k+1)
    for n in range(1, 17):
        alg = H.un_algebra(n)
        top = (0, 2 * n)
        assert alg.basis[2 * n] == [top]
        for k in range(n + 1):
            dim = alg.dimension(k)
            linalg.invert_integer(H.PiMatrix.read(_times_t_power(alg, k, 2 * n - 2 * k)).m)
            if k == 0:
                prim = identity(dim)
            else:
                cols = list(zip(*_times_t_power(alg, k, 2 * n - 2 * k + 1)))
                prim = [[v.get(a, 0) for a in range(dim)]
                        for v in linalg.kernel_basis(cols, dim)]
            assert len(prim) == (k + 1) % 2, (n, k)
            pair = [[alg.reduction[mono_mul(mono_mul(ma, mb), (0, 2 * n - 2 * k))].get(top, 0)
                     for mb in alg.basis[k]] for ma in alg.basis[k]]
            form = mat_mul(mat_mul(prim, pair), list(map(list, zip(*prim))))
            assert _positive_definite(form), (n, k)


def test_kinematic_un_examples():
    table = H.kinematic_un(1)
    so = E.kinematic_so(2)
    assert {(l, r): c for (l, r), c in table.entries.items()} \
        == {((l[0], 0), (r[0], 0)): c for (l, r), c in so.entries.items()}
    for n in (1, 2, 3):
        model = H.un_model(n)
        v = H.volume_element(n)
        ev_top = model.ev(model.alg.basis_element(2 * n, 0))
        assert H.kinematic_un(n, v).entries \
            == {((2 * n, 0), (2 * n, 0)): (ev_top * ev_top).inverse()}
        assert H.kinematic_un(n).is_swap_symmetric()


def test_kinematic_multiplicative():
    rng = random.Random(9)
    for n in (1, 2, 3):
        model = H.un_model(n)
        for _ in range(2):
            phi = model.alg.element({
                m: Fraction(rng.randint(-2, 2))
                for d in range(n + 1) for m in model.alg.basis[d]})
            psi = model.alg.element({
                m: Fraction(rng.randint(-2, 2))
                for d in range(n + 1) for m in model.alg.basis[d]})
            lhs = H.kinematic_un(n, model.alg.multiply(phi, psi))
            rhs = {}
            for ((k, a), right), c in H.kinematic_un(n, psi).entries.items():
                prod = model.alg.multiply(phi, model.alg.basis_element(k, a))
                for d in prod.degrees():
                    for a2, c2 in enumerate(model.alg.coordinates(prod, d)):
                        if not (c2 == 0 or getattr(c2, "is_zero", lambda: False)()):
                            key = ((d, a2), right)
                            rhs[key] = rhs.get(key, Scalar.zero()) + c * c2
            rhs = {k: v for k, v in rhs.items()
                   if not (Scalar.zero() + v).is_zero()}
            assert lhs.entries == {k: Scalar.zero() + v for k, v in rhs.items()}


def test_tables_linear_in_phi_across_degrees():
    """The table of a phi with a part in every degree is the sum of the
    tables of its homogeneous parts, for both coproducts."""
    rng = random.Random(19)
    for n in (1, 2, 3, 4):
        alg = H.un_model(n).alg
        parts = [alg.element({m: Fraction(rng.choice((-2, -1, 1, 3)))
                              for m in alg.basis[d]}) for d in range(2 * n + 1)]
        phi = alg.zero()
        for part in parts:
            phi = phi + part
        assert phi.degrees() == list(range(2 * n + 1))
        for build in (H.kinematic_un, H.additive_un):
            total = {}
            for part in parts:
                for key, c in build(n, part).entries.items():
                    total[key] = total[key] + c if key in total else c
            assert build(n, phi).entries == {k: c for k, c in total.items() if c}


def _with_pi(entries):
    return {key: (c.coeff, c.pi_pow) for key, c in entries.items()}


@pytest.mark.parametrize("n", range(1, 7))
def test_kinematic_blocks_match_product_oracle(n):
    """kinematic_un reads its blocks off the reduction map; the oracle
    multiplies phi into every basis element.  phi runs over chi, every basis
    element, every Fourier image of one (Scalar coefficients), and a phi whose
    two degrees carry different powers of pi."""
    model = H.un_model(n)
    basis = [model.alg.basis_element(k, i) for k in range(2 * n + 1)
             for i in range(model.alg.dimension(k))]
    mixed = H.volume_element(n) + H.intrinsic_volume_element(n, 1)
    assert n == 1 or len({c.pi_pow for c in mixed.terms.values()}) == 2
    for phi in [None, mixed] + basis + [model.fourier(b) for b in basis]:
        assert _with_pi(H.kinematic_un(n, phi).entries) \
            == _with_pi(kinematic_un_products(n, phi).entries), phi


@pytest.mark.parametrize("n", range(0, 9))
def test_display_and_fourier_match_the_normal_form_route(n):
    """Every display basis, its inverse and every Fourier matrix, all read
    off the Klain coordinates, equal the route through raw Tasaki rows,
    normal forms and Fourier images, pi powers included."""
    model = H.un_model(n)
    display, fourier = display_route(n)
    for k in range(2 * n + 1):
        assert model.fourier_matrix(k) == fourier[k], k
        for tag in ("monomial", "tasaki", "hermitian"):
            assert model.display(k, tag) == display[k, tag], (k, tag)
            assert model.display_inverse(k, tag) == display[k, tag].inverse(), (k, tag)


@pytest.mark.parametrize("n", range(1, 7))
def test_fourier_is_the_identity_in_tasaki_coordinates(n):
    """In Tasaki coordinates the additive table of phi is the kinematic table
    of Fourier(phi) with every leg degree d moved to 2n - d."""
    model = H.un_model(n)
    for k in range(2 * n + 1):
        for i in range(model.alg.dimension(k)):
            phi = model.alg.basis_element(k, i)
            kin = H.convert_un_table(H.kinematic_un(n, model.fourier(phi)), n, "tasaki")
            add = H.convert_un_table(H.additive_un(n, phi), n, "tasaki")
            assert _with_pi({((2 * n - dl, a), (2 * n - dr, b)): c
                             for ((dl, a), (dr, b)), c in kin.entries.items()}) \
                == _with_pi(add.entries), (k, i)


@pytest.mark.parametrize("n", range(1, 9))
def test_display_tables_match_two_congruences(n):
    """A table in a display basis is one congruence of the kept blocks with
    the composed legs; the oracles write the monomial table's Scalars and
    read them back, for the Fourier legs and then the display legs.  The
    composed additive leg F_d A_(2n-d) is display_inverse(d) outside the
    monomial basis."""
    model = H.un_model(n)
    for d in range(2 * n + 1):
        for tag in ("tasaki", "hermitian"):
            assert model.fourier_matrix(d) @ model.display_inverse(2 * n - d, tag) \
                == model.display_inverse(d, tag), (d, tag)
    for k in range(2 * n + 1):
        for i in range(model.alg.dimension(k)):
            phi = model.alg.basis_element(k, i)
            kin, add = H.kinematic_un(n, phi), H.additive_un(n, phi)
            oracle = additive_two_congruences(n, phi)
            for basis in ("monomial", "tasaki", "hermitian"):
                assert _with_pi(H.convert_un_table(kin, n, basis).entries) \
                    == _with_pi(display_congruence(n, kin.entries, basis)), (k, i, basis)
                assert _with_pi(H.convert_un_table(add, n, basis).entries) \
                    == _with_pi(oracle[basis]), (k, i, basis)


def test_display_query_writes_only_its_own_entries():
    """Converting a table and emitting it writes no Scalar of the monomial
    table it came from, and a table writes its entries once."""
    n = 4
    phi = H.un_model(n).alg.basis_element(3, 1)
    for build in (H.kinematic_un, H.additive_un):
        for basis in ("tasaki", "hermitian"):
            table = build(n, phi)
            shown = H.convert_un_table(table, n, basis)
            emitters.emit_table(shown, "json")
            assert table._entries is None, (build, basis)
            assert shown.entries is shown.entries


@pytest.mark.parametrize("n", range(1, 9))
def test_un_entries_are_the_scalar_image_of_the_cells(n):
    """A U(n) table's entries, read off its cells, equal the Scalars its
    blocks write one by one: chi or the volume and the first basis element
    of every degree, both tables, every basis."""
    alg = H.un_model(n).alg
    phis = [None] + [alg.basis_element(k, 0) for k in range(2 * n + 1)]
    for phi in phis:
        for build in (H.kinematic_un, H.additive_un):
            table = build(n, phi)
            for basis in ("monomial", "tasaki", "hermitian"):
                shown = H.convert_un_table(table, n, basis)
                assert _with_pi(shown.entries) == _with_pi(un_block_entries(shown)), \
                    (phi, build, basis)


def _klain_block(table, n, k, l):
    """The (k, l) block of a table in Tasaki coordinates, which are the Klain
    coordinates of both legs, as {(q_left, q_right): Scalar}."""
    block = H.convert_un_table(table, n, "tasaki").block(k, l)
    return {(i, j): v for i, row in enumerate(block.scalars())
            for j, v in enumerate(row) if v}


@pytest.mark.parametrize("n", range(1, 7))
def test_first_order_is_one_block_of_the_oracle_table(n):
    """Every first-order kernel, in both spaces, equals the Klain expansion of
    its block of the oracle's full table, perp flags included."""
    spaces = (("euclidean", Scalar.one()),
              ("projective", Scalar.pi_power(-n, factorial(n))))
    for d in range(2 * n + 1):
        table = kinematic_un_products(n, H.intrinsic_volume_element(n, d))
        for k in range(d, 2 * n + 1):
            l = 2 * n + d - k
            coeffs = _klain_block(table, n, k, l)
            for space, scale in spaces:
                ker = H.first_order_formula(n, k, l, space=space)
                assert (ker.k, ker.l, ker.left_perp, ker.right_perp) == (k, l, k > n, l > n)
                assert _with_pi(ker.coeffs) \
                    == _with_pi({q: scale * v for q, v in coeffs.items()}), (k, l, space)


def test_first_order_query_inverts_one_chi_block():
    n = 4
    for k in range(2 * n + 1):
        for l in range(2 * n - k, 2 * n + 1):
            H._chi_block.cache_clear()
            H.first_order_formula(n, k, l)
            assert H._chi_block.cache_info().currsize == 1, (k, l)


def test_tasaki_matrices_golden_n2():
    mats = H.tasaki_matrices(2)
    t22 = mats[2]
    e = Scalar.from_rational
    assert t22 == [[e(Fraction(3, 8)), e(Fraction(-1, 8))],
                   [e(Fraction(-1, 8)), e(Fraction(3, 8))]]


def test_additive_un_matches_euclidean_plane():
    table = H.additive_un(1)
    so = E.additive_so(2, basis="t")
    assert {(l, r): c for (l, r), c in table.entries.items()} \
        == {((l[0], 0), (r[0], 0)): c for (l, r), c in so.entries.items()}


def test_first_order_cp4_bracket():
    ker = H.first_order_formula(4, 4, 5, space="projective")
    assert not ker.left_perp and ker.right_perp

    def pref(num):
        return Scalar.pi_power(-4, Fraction(num, 5))
    assert ker.coeffs == {(0, 0): pref(30), (0, 1): pref(-6),
                          (1, 0): pref(-3), (1, 1): pref(7)}


def test_first_order_additive_u4_bracket():
    atab = H.additive_un(4, H.intrinsic_volume_element(4, 7))
    e = Scalar.from_rational
    assert _klain_block(atab, 4, 4, 3) \
        == {(0, 0): e(Fraction(30, 120)), (0, 1): e(Fraction(-6, 120)),
            (1, 0): e(Fraction(-3, 120)), (1, 1): e(Fraction(7, 120))}


def test_first_order_trivial_cases():
    assert H.first_order_formula(2, 4, 4).coeffs == {(0, 0): Scalar.one()}
    for n in (1, 2):
        for l in range(2 * n + 1):
            ker = H.first_order_formula(n, 2 * n, l)
            assert ker.coeffs == {(0, 0): Scalar.one()}, (n, l)
    for k, l in ((1, 1), (5, 1), (1, 5), (-1, 5)):
        with pytest.raises(ValueError):
            H.first_order_formula(2, k, l)


def test_mu_k0_ratio_reported():
    assert H.mu_k0_fk_ratio(3, 1) == Scalar.pi_power(1, Fraction(1, 2))
    assert H.mu_k0_fk_ratio(3, 2) == Scalar.pi_power(1, -2)
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            H.mu_k0_fk_ratio(n, k)  # raises if not proportional


def test_basis_change_round_trip():
    for n in (2, 3):
        model = H.un_model(n)
        for tag in ("hermitian", "tasaki"):
            for k in range(2 * n + 1):
                fwd = model.display_inverse(k, tag).scalars()
                back = model.display(k, tag).scalars()
                for prod in (scalar_mat_mul(fwd, back), scalar_mat_mul(back, fwd)):
                    assert prod == identity(len(prod)), (n, tag, k)


def test_basis_change_tasaki_hermitian_binomial():
    # in any fixed degree k <= n the change from Tasaki to hermitian
    # coordinates is the inverse binomial (vertex-evaluation) matrix
    n = 3
    model = H.un_model(n)
    for k in range(n + 1):
        p = k // 2
        for q in range(p + 1):
            tau = model.tasaki_element(k, q)
            expansion = model.alg.zero()
            for l in range(p + 1):
                expansion = expansion + model.hermitian_element(k, l).scale(
                    Fraction(binomial(l, q)))
            assert tau == expansion


def test_convert_table_round_trip_and_middle_block():
    for n in (2, 3):
        table = H.kinematic_un(n)
        tas = H.convert_un_table(table, n, "tasaki")
        # the middle-degree block in Tasaki coordinates is the Tasaki matrix
        mats = H.tasaki_matrices(n)
        mid = mats[n]
        for i in range(len(mid)):
            for j in range(len(mid)):
                assert tas.entries.get(((n, i), (n, j)), Scalar.zero()) == mid[i][j], \
                    (n, i, j)
        herm = H.convert_un_table(table, n, "hermitian")
        assert len(herm.entries) > 0
        # converting is a change of coordinates: total pairing against the
        # canonical table is preserved degree by degree
        back_entries = {}
        model = H.un_model(n)
        for (l, r), c in tas.entries.items():
            rows_l = model.display(l[0], "tasaki").scalars()
            rows_r = model.display(r[0], "tasaki").scalars()
            for a, ca in enumerate(rows_l[l[1]]):
                for b, cb in enumerate(rows_r[r[1]]):
                    key = ((l[0], a), (r[0], b))
                    v = c * ca * cb
                    cur = back_entries.get(key)
                    back_entries[key] = v if cur is None else cur + v
        back_entries = {k: v for k, v in back_entries.items()
                        if not (Scalar.zero() + v).is_zero()}
        assert back_entries == table.entries


def test_kinematic_multiplicative_dim4():
    model = H.un_model(4)
    rng = random.Random(13)
    phi = model.alg.element({m: Fraction(rng.randint(-2, 2))
                             for d in (1, 2) for m in model.alg.basis[d]})
    psi = model.alg.element({m: Fraction(rng.randint(-2, 2))
                             for d in (2, 3) for m in model.alg.basis[d]})
    lhs = H.kinematic_un(4, model.alg.multiply(phi, psi))
    rhs = {}
    for ((k, a), right), c in H.kinematic_un(4, psi).entries.items():
        prod = model.alg.multiply(phi, model.alg.basis_element(k, a))
        for d in prod.degrees():
            for a2, c2 in enumerate(model.alg.coordinates(prod, d)):
                if not (Scalar.zero() + c2).is_zero():
                    key = ((d, a2), right)
                    rhs[key] = rhs.get(key, Scalar.zero()) + c * c2
    rhs = {k: Scalar.zero() + v for k, v in rhs.items()
           if not (Scalar.zero() + v).is_zero()}
    assert lhs.entries == rhs


def test_iota_is_an_involution():
    for n in range(1, 11):
        for l in range(n + 1):
            block = H.iota_block(n, 2 * l)
            assert block @ block == H.PiMatrix.eye(len(block.m)), (n, l)


def test_iota_and_fourier_blocks_match_scalar_route():
    """Row a of each block the checks multiply is the image of the a-th
    basis element through ``UnModel.fourier`` and the formal iota."""
    for n in range(1, 9):
        model = H.un_model(n)

        def rows(images, k):
            return [model.alg.coordinates(x, k) for x in images]
        for k in range(2 * n + 1):
            fl, fr = model.fourier_matrix(k), model.fourier_matrix(2 * n - k)
            elements = basis_elements(model, [k])
            assert (fl @ fr).scalars() \
                == rows([model.fourier(model.fourier(e)) for e in elements], k), (n, k)
            if k % 2:
                continue
            ik, ir = H.iota_block(n, k), H.iota_block(n, 2 * n - k)
            assert ik.scalars() == rows([iota(model, e) for e in elements], k), (n, k)
            assert (ik @ fl).scalars() \
                == rows([model.fourier(iota(model, e)) for e in elements], 2 * n - k), (n, k)
            assert (fl @ ir).scalars() \
                == rows([iota(model, model.fourier(e)) for e in elements], 2 * n - k), (n, k)


def test_first_order_planar_line_pairs():
    # classical planar average: the number of intersections of two moved
    # curves is (2/pi) times the product of their lengths
    ker = H.first_order_formula(1, 1, 1)
    assert ker.coeffs == {(0, 0): Scalar.pi_power(-1, 2)}


def test_iota_well_defined_on_quotient():
    # reducing before or after the formal swap gives the same class, so the
    # involution descends from the polynomial ring to the algebra
    rng = random.Random(31)
    for n in (2, 3, 4):
        model = H.un_model(n)
        for _ in range(8):
            raw = {}
            for d in range(0, 2 * n + 1, 2):
                for m in monomials_of_degree(model.alg.gens, d):
                    raw[m] = Fraction(rng.randint(-3, 3))
            raw = {m: c for m, c in raw.items() if c}
            via_nf = iota_of(model, model.alg.normal_form_raw(raw))
            direct = model.alg.normal_form_raw(iota_raw(raw))
            assert via_nf == direct, n


def test_pairing_fourier_invariance():
    # the top-degree pairing of transformed elements equals the original one
    rng = random.Random(37)
    for n in (1, 2, 3):
        model = H.un_model(n)
        for k in range(2 * n + 1):
            for _ in range(3):
                x = model.element_from_coords(k, [
                    Scalar.from_rational(rng.randint(-3, 3))
                    for _ in range(model.alg.dimension(k))])
                y = model.element_from_coords(2 * n - k, [
                    Scalar.from_rational(rng.randint(-3, 3))
                    for _ in range(model.alg.dimension(2 * n - k))])
                lhs = model.ev(model.fourier(x) * model.fourier(y))
                rhs = model.ev(x * y)
                assert lhs == rhs, (n, k)


def test_kinematic_chi_adjointness_identity():
    # the defining property of the chi table: contracting both legs against
    # arbitrary elements through the pairing reproduces the pairing of the
    # product
    rng = random.Random(41)
    for n in (1, 2, 3):
        model = H.un_model(n)
        table = H.kinematic_un(n)
        for _ in range(4):
            phi = model.alg.element({m: Fraction(rng.randint(-2, 2))
                                     for d in range(2 * n + 1)
                                     for m in model.alg.basis[d]})
            psi = model.alg.element({m: Fraction(rng.randint(-2, 2))
                                     for d in range(2 * n + 1)
                                     for m in model.alg.basis[d]})
            total = Scalar.zero()
            for ((k, a), (kr, b)), c in table.entries.items():
                left = model.ev(model.alg.multiply(
                    model.alg.basis_element(k, a), phi))
                right = model.ev(model.alg.multiply(
                    model.alg.basis_element(kr, b), psi))
                total = total + c * left * right
            assert total == model.ev(model.alg.multiply(phi, psi)), n


def test_additive_of_volume_has_no_top_top_block():
    for n in (1, 2, 3):
        table = H.additive_un(n)
        for ((k, _), (kr, _)) in table.entries:
            assert k + kr == 2 * n
            assert not (k == 2 * n and kr == 2 * n)
