"""Every check of the registry catches a wrong answer.

For each entry of ``checks.REGISTRY`` one library function it checks is
made to give one wrong answer.  The entry must report FAIL, and
``intgeo verify`` must print its FAIL line, count exactly one failure and
exit 1: the other checks do not see the mutation.
"""

from fractions import Fraction

import pytest

from intgeo import checks, cli, euclid, hermitian, spaceforms
from intgeo.graded import TensorTable
from intgeo.scalars import Scalar, omega

MAX_DIM = 2
TWO = Scalar.from_rational(2)
DOUBLE = hermitian.PiMatrix(0, [[2]])


class Entries:
    """Stands in for a table: only ``entries`` is read."""

    def __init__(self, table):
        self.entries = dict(table.entries)
        key = min(self.entries)
        self.entries[key] = self.entries[key] * TWO


def double_last(values):
    return values[:-1] + [values[-1] * 2]


def additive_of_volume(real, n, phi=None, basis="psi"):
    return Entries(real(n)) if phi is None else real(n, phi, basis)


def skew_tasaki(real, n):
    mats = real(n)
    if n == 2:
        mats[2][0][1] = mats[2][0][1] * TWO
    return mats


def doubled_kinematic(real, self, psi=None):
    table = real(self, psi)
    table.entries = {k: {p: c * 2 for p, c in v.items()}
                     for k, v in table.entries.items()}
    return table


# predicate name -> (owner, attribute, wrong(real, *args))
MUTATIONS = {
    "ball_volume_product": (
        checks, "omega", lambda real, k: real(k) * 2 if k == 51 else real(k)),
    "ball_volume_ratio": (
        Scalar, "__truediv__",
        lambda real, a, b: real(a, b) * 2 if b == omega(48) else real(a, b)),
    "kinematic_equals_pairing_inversion": (
        euclid, "kinematic_via_pairing", lambda real, n: Entries(real(n))),
    "unit_coefficient_presentations": (
        euclid, "nijenhuis_constants",
        lambda real, n: {**real(n), "additive_all_ones": n != 2}),
    "chi_kinematic_equals_volume_additive": (
        euclid, "additive_so", additive_of_volume),
    "additive_equals_fourier_conjugated_kinematic": (
        euclid, "fourier_so", lambda real, n, val: real(n, val).scale(TWO)),
    "mu_products_two_routes": (
        euclid, "mu_product_coefficient_via_t",
        lambda real, n, i, j: real(n, i, j) * (2 if (i, j) == (1, 1) else 1)),
    "kinematic_coassociative_cocommutative": (
        TensorTable, "is_swap_symmetric", lambda real, self: False),
    "ball_tube_polynomial": (
        euclid, "steiner_polynomial",
        lambda real, volumes: {**real(volumes), 0: real(volumes)[0] * 2}),
    # the certificate sees the multiples of each degree with one row missing
    "presentations_agree": (
        hermitian, "kernel_equals_span",
        lambda real, matrix, rows, ncols: real(matrix, rows[:-1], ncols)),
    "hilbert_function": (
        hermitian, "poincare_series_coefficients",
        lambda real, n: double_last(real(n)) if n == 2 else real(n)),
    # F_0 doubled: F_0 F_2n = 2 I, while iota_0 F_0 = F_0 iota_2n still holds
    "fourier_involution": (
        hermitian.UnModel, "fourier_matrix",
        lambda real, self, k: real(self, k) @ DOUBLE if k == 0 else real(self, k)),
    # wrong on degree 0 only, which the transform exchanges with the top degree
    "iota_commutes_with_fourier": (
        hermitian, "iota_block",
        lambda real, n, k: real(n, k) @ DOUBLE if k == 0 else real(n, k)),
    "tasaki_symmetric_palindromic": (hermitian, "tasaki_matrices", skew_tasaki),
    "reproductive_property": (
        spaceforms.RealSpaceFormAlgebra, "tau",
        lambda real, self, i: real(self, i).scale(2) if i == self.n else real(self, i)),
    # a curvature term leaves the lam = 0 kinematic table as it is
    "euler_characteristic_decomposition": (
        spaceforms.RealSpaceFormAlgebra, "chi",
        lambda real, self: real(self) + self.phi(2).scale(Fraction(1, 4), 1)),
    "curved_kinematic_routes": (
        spaceforms.RealSpaceFormAlgebra, "kinematic", doubled_kinematic),
    "curved_ideal_equals_projective_kernel": (
        spaceforms, "cp_values",
        lambda real, n, mono: real(n, mono) + (mono == (0, 2 * n))),
    "chapoton_functional_equations": (
        spaceforms, "conjecture_coefficients", lambda real, m: double_last(real(m))),
}


def test_every_check_has_a_mutation():
    assert sorted(MUTATIONS) == sorted(c.holds.__name__ for c in checks.REGISTRY)


@pytest.mark.parametrize("check", checks.REGISTRY, ids=lambda c: c.holds.__name__)
def test_check_fails_on_a_wrong_answer(check, monkeypatch, capsys):
    owner, name, wrong = MUTATIONS[check.holds.__name__]
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: wrong(real, *args, **kw))
    ok, text = check.verdict(MAX_DIM)
    assert not ok
    assert cli.main(["verify", "--max-dim", str(MAX_DIM)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"[{check.group}] FAIL {text}" in out
    assert out[-1] == "1 CHECK(S) FAILED"
