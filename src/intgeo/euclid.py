"""Classical integral geometry of (R^n, SO(n)).

Intrinsic-volume bases and conversions, exact intrinsic volumes of boxes,
Steiner polynomials, the kinematic and additive coproducts with explicit
normalization tags, Crofton/Cauchy constants, and the unit-coefficient
rescaling of both coproducts.

Normalizations.  "standard" means the motion measure is the product of
Lebesgue measure on translations with the probability measure on rotations,
so the measure of motions taking the origin into E equals vol(E).  "unit"
rescales the motion measure so the kinematic table in the t basis has all
coefficients 1.  Additive tables always use the probability rotation measure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .graded import GradedElement, LinearFunctional, QuotientAlgebra, TensorTable
from .scalars import Scalar, alpha, binomial, omega


@lru_cache(maxsize=None)
def so_algebra(n):
    """The algebra of SO(n)-invariant valuations: one generator t, t^{n+1} = 0,
    so every power t^d with d <= n is its own normal form."""
    return QuotientAlgebra(("t",), (1,), {d: [(d,)] for d in range(n + 1)},
                           {(d,): {(d,): Fraction(1)} for d in range(n + 1)})


def t_power(n, i):
    return GradedElement(so_algebra(n), {(i,): Fraction(1)})


def t_mu_coefficient(i):
    """The exact c_i with t^i = c_i * mu_i."""
    return omega(i) * Scalar.pi_power(-i, factorial(i))


def mu_in_t(n, i):
    """mu_i as an element of the t-algebra."""
    return t_power(n, i).scale(t_mu_coefficient(i).inverse())


def mu_ball(n, i, radius=1):
    """mu_i of the ball of the given radius in R^n."""
    r = Fraction(radius)
    return omega(n) * omega(n - i).inverse() * Scalar.from_rational(binomial(n, i) * r ** i)


def psi_coefficient(n, i):
    """c with psi_i = c * t^i (psi_i = mu_i / mu_i(B_1), so psi_i(B_r) = r^i)."""
    return (t_mu_coefficient(i) * mu_ball(n, i)).inverse()


def volume_functional(n):
    """Top-degree functional normalized so vol corresponds to 1."""
    return LinearFunctional({(n,): t_mu_coefficient(n)})


# -- exact intrinsic volumes and tube volumes ----------------------------------

def box_intrinsic_volume(sides, i):
    """Exact mu_i of a box with the given side lengths: the i-th elementary
    symmetric function of the sides (Klain and Rota 1997).  No sides is a
    point."""
    sigma = [Fraction(1)] + [Fraction(0)] * len(sides)
    for top, side in enumerate(sides, 1):
        for j in range(top, 0, -1):
            sigma[j] += side * sigma[j - 1]
    return Scalar.from_rational(sigma[i] if i < len(sigma) else Fraction(0))


def steiner_polynomial(volumes):
    """Tube-volume polynomial of a body with intrinsic volumes V_0 .. V_n: the
    coefficient of r^j in the volume of its r-neighborhood, keyed n down to 0."""
    n = len(volumes) - 1
    return {n - i: omega(n - i) * v for i, v in enumerate(volumes)}


# -- valuations and display bases --------------------------------------------

class SOValuation:
    """An SO(n)-invariant valuation, stored in the t basis."""

    def __init__(self, n, element):
        self.n = n
        self.element = element

    @classmethod
    def from_coeffs(cls, n, coeffs, basis="t"):
        """Build from {degree: coefficient} in the given display basis."""
        el = so_algebra(n).zero()
        for i, c in coeffs.items():
            el = el + t_power(n, i).scale(_so_basis_coeff(n, basis, i) * c)
        return cls(n, el)

    @classmethod
    def chi(cls, n):
        return cls(n, t_power(n, 0))

    @classmethod
    def volume(cls, n):
        return cls.from_coeffs(n, {n: Scalar.one()}, basis="mu")

    def t_coeffs(self):
        return {m[0]: c for m, c in self.element.terms.items()}

    def in_basis(self, basis):
        coeffs = {}
        for i, c in self.t_coeffs().items():
            coeffs[i] = c * _so_basis_coeff(self.n, basis, i).inverse()
        return {i: c for i, c in coeffs.items() if not c.is_zero()}

    def __mul__(self, other):
        return SOValuation(self.n, self.element * other.element)

    def __add__(self, other):
        return SOValuation(self.n, self.element + other.element)

    def scale(self, c):
        return SOValuation(self.n, self.element.scale(c))


def fourier_so(n, val):
    """Degree-reversing transform fixed by Klain complementarity: mu_k -> mu_{n-k}."""
    out = so_algebra(n).zero()
    for k, c in val.t_coeffs().items():
        h = t_mu_coefficient(k) * t_mu_coefficient(n - k).inverse()
        out = out + t_power(n, n - k).scale(c * h)
    return SOValuation(n, out)


# -- coproducts ---------------------------------------------------------------

def _table(n, basis, normalization):
    labels = {d: [f"{basis}_{d}"] for d in range(n + 1)}
    return TensorTable("SO", n, normalization, basis, basis_labels=labels)


@lru_cache(maxsize=None)
def _scales(n, native, basis):
    """Per degree d, the factor taking a coordinate on native_d to one on
    basis_d: a table entry of bidegree (a, b) scales by s_a s_b.  None in
    the native basis itself, where every factor is 1."""
    if basis == native:
        return None
    return [_so_basis_coeff(n, native, d) * _so_basis_coeff(n, basis, d).inverse()
            for d in range(n + 1)]


def kinematic_so(n, phi=None, basis="t", normalization="standard"):
    """Kinematic coproduct table of phi (default: the Euler characteristic).

    In the t basis with standard normalization the image of t^c is
    (alpha_n / 2^(n+1)) * sum of t^a (x) t^b over a+b = n+c; "unit"
    normalization drops the constant.  In another display basis each entry
    is written once, as this value times the diagonal change of basis of both
    legs.
    """
    if phi is None:
        phi = SOValuation.chi(n)
    if normalization not in ("standard", "unit"):
        raise ValueError(f"unknown normalization {normalization!r}")
    factor = alpha(n) * Scalar.from_rational(Fraction(1, 2 ** (n + 1)))
    if normalization == "unit":
        factor = Scalar.one()
    scale = _scales(n, "t", basis)
    table = _table(n, basis, normalization)
    for c, coeff in phi.t_coeffs().items():
        value = factor * coeff
        for a in range(c, n + 1):
            b = n + c - a
            if 0 <= b <= n:
                table.add((a, 0), (b, 0),
                          value if scale is None else value * scale[a] * scale[b])
    return table


def additive_so(n, phi=None, basis="psi"):
    """Additive (Minkowski-sum) coproduct table of phi, probability rotations.

    The image of psi_k is sum of C(k,i) psi_i (x) psi_j over i+j = k, written
    once in the display basis as for ``kinematic_so``; default input is the
    volume, whose table equals the kinematic table of chi.
    """
    if phi is None:
        phi = SOValuation.volume(n)
    scale = _scales(n, "psi", basis)
    table = _table(n, basis, "standard")
    for k, coeff in phi.in_basis("psi").items():
        for i in range(k + 1):
            j, value = k - i, coeff * binomial(k, i)
            table.add((i, 0), (j, 0),
                      value if scale is None else value * scale[i] * scale[j])
    return table


@lru_cache(maxsize=None)
def _so_basis_coeff(n, basis, i):
    # c with basis_i = c * t^i, built once per (n, basis, i)
    if basis == "t":
        return Scalar.one()
    if basis == "mu":
        return t_mu_coefficient(i).inverse()
    if basis == "psi":
        return psi_coefficient(n, i)
    if basis == "nijenhuis":
        return psi_coefficient(n, i) * Fraction(1, factorial(i))
    raise ValueError(f"unknown basis {basis!r}")


def kinematic_via_pairing(n):
    """Independent route to the kinematic table of chi: invert the Poincare
    pairing degree by degree (1x1 blocks in the t basis)."""
    ev = volume_functional(n)
    table = _table(n, "t", "standard")
    for k in range(n + 1):
        m = ev(t_power(n, k) * t_power(n, n - k))
        table.add((k, 0), (n - k, 0), m.inverse())
    return table


def nijenhuis_constants(n):
    """Unit-coefficient presentations of the two coproducts.

    The kinematic coproduct has every structure constant exactly 1 in the
    t basis once the motion measure is rescaled by 2^(n+1)/alpha_n (the
    "unit" normalization); the additive coproduct has every structure
    constant exactly 1 in the basis theta'_i = psi_i / i! with the
    probability rotation measure.  Both facts are verified exactly here.

    A single basis doing both jobs at once would need the kinematic table in
    the theta' basis to carry one uniform constant; for n >= 3 it does not
    (``joint_unity_basis_exists`` is false), so the two unity presentations
    use different bases.  The kinematic constant removed by the "unit"
    rescaling is alpha_n / 2^(n+1).
    """
    thetap = {i: _so_basis_coeff(n, "nijenhuis", i) for i in range(n + 1)}

    kin_t_unit_ok = True
    for c in range(n + 1):
        phi = SOValuation(n, t_power(n, c))
        for v in kinematic_so(n, phi, normalization="unit").entries.values():
            if v != Scalar.one():
                kin_t_unit_ok = False

    add_theta_ok = True
    for k in range(n + 1):
        phi = SOValuation(n, t_power(n, k).scale(thetap[k]))
        for ((i, _), (j, _)), v in additive_so(n, phi, basis="t").entries.items():
            if v / (thetap[i] * thetap[j]) != Scalar.one():
                add_theta_ok = False

    theta_consts = set()
    for c in range(n + 1):
        phi = SOValuation(n, t_power(n, c).scale(thetap[c]))
        for ((a, _), (b, _)), v in kinematic_so(n, phi).entries.items():
            theta_consts.add(v / (thetap[a] * thetap[b]))

    return {
        "kinematic_all_ones": kin_t_unit_ok,
        "additive_all_ones": add_theta_ok,
        "t_table_constant": alpha(n) * Fraction(1, 2 ** (n + 1)),
        "joint_unity_basis_exists": len(theta_consts) == 1,
    }


def mu_product_coefficient(n, i, j):
    """Coefficient c in mu_i * mu_j = c * mu_{i+j}."""
    if i + j > n:
        raise ValueError(f"mu_{i} * mu_{j} vanishes beyond degree {n}")
    return omega(i + j) * (omega(i) * omega(j)).inverse() * Fraction(binomial(i + j, i))


def mu_product_coefficient_via_t(n, i, j):
    """Same coefficient computed by multiplying in the t basis."""
    prod = mu_in_t(n, i) * mu_in_t(n, j)
    (mono, c), = prod.terms.items()
    assert mono == (i + j,)
    return c * t_mu_coefficient(i + j)


def crofton_constant(n, k):
    """c with mu_k = c * integral of chi(. meet H) over affine (n-k)-flats,
    the flat measure being rotation-invariant probability times Lebesgue on
    the k-dimensional fiber; fixed by the unit ball."""
    if not 0 <= k <= n:
        raise ValueError("crofton_constant needs 0 <= k <= n")
    return omega(n) * (omega(n - k) * omega(k)).inverse() * Fraction(binomial(n, k))


def cauchy_constant(n):
    """c with mu_{n-1} = c * sphere-average of the shadow volume."""
    return omega(n) * omega(n - 1).inverse() * Fraction(n, 2)
