"""The exact check battery behind ``intgeo verify`` and ``intgeo un verify``.

Each ``Check`` in ``REGISTRY`` is one identity: its report group, its text and
a predicate for one dimension n (for the series check, one order).  The
command line runs a predicate for n <= --max-dim unless the check fixes or
caps the range; the tests run the same predicates over their own ranges.
``Report`` formats every PASS/FAIL report the command line prints.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple

from . import euclid, hermitian, spaceforms
from .scalars import Scalar, alpha, binomial, omega


class Report:
    """One check report: its lines, its number of failures and its bytes."""

    def __init__(self):
        self.lines = []
        self.failed = 0

    def add(self, ok, text, group=None):
        line = f"{'PASS' if ok else 'FAIL'} {text}"
        self.lines.append(line if group is None else f"[{group}] {line}")
        self.failed += not ok

    def emit(self):
        tail = f"{self.failed} CHECK(S) FAILED" if self.failed else "ALL CHECKS PASSED"
        return "".join(f"{line}\n" for line in self.lines + [tail]).encode()


class Check(NamedTuple):
    group: str
    text: str                    # "{top}" stands for the last n checked
    holds: Callable[[int], bool]
    first: int
    last: Callable[[int], int]   # the last n checked, given --max-dim

    def verdict(self, max_dim):
        """(ok, text) of the predicate over the command-line range."""
        top = self.last(max_dim)
        ok = all(map(self.holds, range(self.first, top + 1)))
        return ok, self.text.format(top=top)


REGISTRY = []


def _check(group, text, first=1, last=lambda max_dim: max_dim):
    """Append the decorated predicate to REGISTRY; the order is the report's."""
    def register(holds):
        REGISTRY.append(Check(group, text, holds, first, last))
        return holds
    return register


# -- scalars ----------------------------------------------------------------------

@_check("scalars", "ball-volume product identity, n <= {top}", 0, lambda _: 50)
def ball_volume_product(n):
    return omega(n) * omega(n + 1) \
        == Scalar.pi_power(n, Fraction(2 ** (n + 1), factorial(n + 1)))


@_check("scalars", "ball-volume ratio identity, n <= {top}", 2, lambda _: 50)
def ball_volume_ratio(n):
    return omega(n) / omega(n - 2) == Scalar.pi_power(1, Fraction(2, n))


# -- euclidean --------------------------------------------------------------------

@_check("euclidean", "kinematic table equals pairing inversion, n <= {top}")
def kinematic_equals_pairing_inversion(n):
    return euclid.kinematic_via_pairing(n).entries == euclid.kinematic_so(n).entries


@_check("euclidean", "unit-coefficient presentations of both coproducts, n <= {top}")
def unit_coefficient_presentations(n):
    info = euclid.nijenhuis_constants(n)
    return info["kinematic_all_ones"] and info["additive_all_ones"]


@_check("euclidean", "chi kinematic table equals volume additive table, n <= {top}")
def chi_kinematic_equals_volume_additive(n):
    return euclid.kinematic_so(n, basis="psi").entries == euclid.additive_so(n).entries


@_check("euclidean", "additive operator equals Fourier-conjugated kinematic, "
        "n <= {top}")
def additive_equals_fourier_conjugated_kinematic(n):
    # Fourier sends t^d to hat[d] t^(n-d) on each leg
    hat = [euclid.t_mu_coefficient(d) * euclid.t_mu_coefficient(n - d).inverse()
           for d in range(n + 1)]
    for k in range(n + 1):
        phi = euclid.SOValuation.from_coeffs(n, {k: Scalar.one()}, basis="psi")
        kin = euclid.kinematic_so(n, euclid.fourier_so(n, phi))
        conj = {((n - a, 0), (n - b, 0)): c * hat[a] * hat[b]
                for ((a, _), (b, _)), c in kin.entries.items()}
        if conj != euclid.additive_so(n, phi, basis="t").entries:
            return False
    return True


@_check("euclidean", "intrinsic-volume product coefficients by two routes, n <= {top}")
def mu_products_two_routes(n):
    return all(euclid.mu_product_coefficient(n, i, j)
               == euclid.mu_product_coefficient_via_t(n, i, j)
               for i in range(n + 1) for j in range(n + 1 - i))


@_check("euclidean", "kinematic coproduct coassociative and cocommutative, n <= {top}")
def kinematic_coassociative_cocommutative(n):
    table = euclid.kinematic_so(n)
    if not table.is_swap_symmetric():
        return False

    def image(d):
        phi = euclid.SOValuation.from_coeffs(n, {d: Scalar.one()})
        return euclid.kinematic_so(n, phi).entries.items()
    left, right = {}, {}
    for ((a, _), (b, _)), c in table.entries.items():
        for ((x, _), (y, _)), c2 in image(a):
            left[x, y, b] = left.get((x, y, b), Scalar.zero()) + c * c2
        for ((x, _), (y, _)), c2 in image(b):
            right[a, x, y] = right.get((a, x, y), Scalar.zero()) + c * c2
    return ({k: v for k, v in left.items() if not v.is_zero()}
            == {k: v for k, v in right.items() if not v.is_zero()})


@_check("euclidean", "tube polynomial of a ball matches the binomial expansion, "
        "n <= {top}")
def ball_tube_polynomial(n):
    for r in (Fraction(1), Fraction(3, 7), Fraction(3, 2), Fraction(5, 2)):
        expect = {n - i: omega(n) * Fraction(binomial(n, i) * r ** i)
                  for i in range(n + 1)}
        volumes = [euclid.mu_ball(n, i, r) for i in range(n + 1)]
        if euclid.steiner_polynomial(volumes) != expect:
            return False
    return True


# -- hermitian --------------------------------------------------------------------

@_check("hermitian", "relation and evaluation-kernel presentations agree, n <= {top}")
def presentations_agree(n):
    return hermitian.presentations_agree(n)


@_check("hermitian", "Hilbert function matches the rational generating function, "
        "n <= {top}")
def hilbert_function(n):
    return hermitian.un_algebra(n).hilbert_series() \
        == hermitian.poincare_series_coefficients(n)


@_check("hermitian", "Fourier transform is an involution, n <= {top}")
def fourier_involution(n):
    """F_k F_(2n-k) = I on every degree k.  Blind spot: F_k is built as
    S_k S_(2n-k)^-1 from the Klain coordinates S, so the involution holds by
    construction and this tests only the inverse."""
    model = hermitian.un_model(n)
    return all(model.fourier_matrix(k) @ model.fourier_matrix(2 * n - k)
               == hermitian.PiMatrix.eye(model.alg.dimension(k)) for k in range(2 * n + 1))


@_check("hermitian", "iota commutes with the Fourier transform, n <= {top}")
def iota_commutes_with_fourier(n):
    """iota_k F_k = F_k iota_(2n-k) on every even degree k = 2l, 0 <= l <= n.
    Blind spot: it holds as well with iota replaced by the identity, at
    every n."""
    model = hermitian.un_model(n)
    return all(hermitian.iota_block(n, k) @ model.fourier_matrix(k)
               == model.fourier_matrix(k) @ hermitian.iota_block(n, 2 * n - k)
               for k in range(0, 2 * n + 1, 2))


@_check("hermitian", "Tasaki matrices symmetric and palindromic, n <= {top}")
def tasaki_symmetric_palindromic(n):
    """Every Tasaki matrix is symmetric; the one of even degree 2l <= n,
    of size l + 1, also satisfies T[i][j] = T[l-i][l-j]."""
    for k, m in hermitian.tasaki_matrices(n).items():
        if m != [list(col) for col in zip(*m)]:
            return False
        if k % 2 == 0 and k <= n and m != [row[::-1] for row in m[::-1]]:
            return False
    return True


# -- space forms ------------------------------------------------------------------

@_check("space forms", "reproductive property of the transfer basis, n <= {top}")
def reproductive_property(n):
    v = spaceforms.real_space_form(n)
    return all(v.phi(j) * v.tau(i) == v.tau(i + j)
               for j in range(1, n + 1) for i in range(n - j + 1))


@_check("space forms", "Euler characteristic decomposes through the hyperplane "
        "square, n <= {top}", first=2)
def euler_characteristic_decomposition(n):
    v = spaceforms.real_space_form(n)
    return v.chi() == v.tau(0) + v.phi(2).scale(Fraction(1, 4), lam_pow=1)


def kinematic_routes_agree(v, psi):
    """Whether the kinematic table of psi in the real space form v equals,
    term by term, the factorized form (psi (x) tau_0) * sum over i of
    phi^i (x) phi^(n-i), times alpha_n/2^(n+1)."""
    n, tau0 = v.n, v.tau(0)
    terms = {}
    for i in range(n + 1):
        left = psi * v.phi(i) if i else psi
        right = tau0 * v.phi(n - i) if n - i else tau0
        for (a, pa), ca in left.coeffs.items():
            for (b, pb), cb in right.coeffs.items():
                cell = terms.setdefault(((a, 0), (b, 0)), {})
                cell[pa + pb] = cell.get(pa + pb, 0) + ca * cb
    factor = alpha(n) * Fraction(1, 2 ** (n + 1))
    terms = {key: {p: factor * c for p, c in cell.items() if c}
             for key, cell in terms.items()}
    return v.kinematic(psi).entries == {key: cell for key, cell in terms.items() if cell}


@_check("space forms", "curved kinematic routes agree and specialize to flat, "
        "n <= {top}")
def curved_kinematic_routes(n):
    v = spaceforms.real_space_form(n)
    return kinematic_routes_agree(v, v.chi()) and v.kinematic_matches_flat()


@_check("space forms", "curved ideal equals projective kernel at lam=1, n <= {top}",
        last=lambda max_dim: min(max_dim, 5))
def curved_ideal_equals_projective_kernel(n):
    return spaceforms.curved_ideal_matches_projective_kernel(n)


@_check("space forms", "functional equations reproduce the conjecture coefficients",
        12, lambda _: 12)
def chapoton_functional_equations(order):
    return spaceforms.chapoton_check(order)[0]
