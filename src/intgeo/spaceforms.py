"""Constant-curvature families, with the curvature lam as a grading.

lam carries formal weight -2, so both families are graded algebras over Q
and every coefficient is a rational on a monomial lam^p times a basis
element.

Real space forms: the n-dimensional algebra on the transfer basis tau_0..tau_n
(tau_i of weight i) with the homogeneous product rule
tau_i tau_j = tau_{i+j} - (lam/4) tau_{i+j+2}, the hyperplane-average
generator phi, sphere evaluations at lam = 1, and the kinematic coproduct
computed over Q from the transfer rule (``checks`` compares it with the
factorized form).

Complex space forms: the lam = 1 algebra is read off the CP^n evaluation
pairing on the flat basis, by back-substitution through the flat Gram
inverses (the source paper's compact ftaig: the algebra is determined by
its Poincare pairing).  The two-generator presentation whose ideal
substitutes t/sqrt(1 + lam t^2/4) into the flat relation generators is the
check: its multiples span the pairing's kernel (exact containment, ranks
modulo a prime, or else the exact kernel has the same reduced form), with
the rank that makes the pairing-built quotient the quotient by them.  Then
the conjectural closed-form relation series and its Chapoton functional
equations.  The ideal generators are weighted-homogeneous, so the
generic-lam normal form of a monomial m is its lam = 1 normal form with
lam^((deg bm - deg m)/2) on each basis term bm.  The pairing vanishes on
odd total degree, so no normal form mixes even and odd degrees.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .graded import TensorTable, mono_mul
from .linalg import kernel_equals_span, rank_at_least
from .scalars import alpha, binomial
from .series import FormalSeries, binomial_coefficient_general, binomial_power
from .hermitian import (PiMatrix, _chi_block, _disk_basis, _monomials, _reduction_rows,
                        _st_quotient, fk, poincare_series_coefficients)
from . import euclid


# -- real space forms ---------------------------------------------------------

class RealSpaceFormElement:
    """Rational combination of the monomials lam^p tau_i, stored as
    {(i, p): Fraction} without zeros."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return RealSpaceFormElement(self.algebra, out)

    def scale(self, c, lam_pow=0):
        """The element times c lam^lam_pow."""
        return RealSpaceFormElement(self.algebra, {
            (i, p + lam_pow): c * v for (i, p), v in self.coeffs.items()})

    def __mul__(self, other):
        return self.algebra.multiply(self, other)

    def __eq__(self, other):
        return isinstance(other, RealSpaceFormElement) and self.coeffs == other.coeffs

    def substitute(self, lam_value):
        """Specialize the curvature; returns {i: Fraction} without zeros."""
        out = {}
        for (i, p), c in self.coeffs.items():
            out[i] = out.get(i, 0) + c * Fraction(lam_value) ** p
        return {i: c for i, c in out.items() if c}

    def __repr__(self):
        return " + ".join(f"({c})*lam^{p}*tau_{i}"
                          for (i, p), c in sorted(self.coeffs.items())) or "0"


class RealSpaceFormAlgebra:
    """Invariant valuations of the n-dimensional curvature-lam space form."""

    def __init__(self, n):
        self.n = n

    def element(self, coeffs):
        """From {i: Fraction or {lam_pow: Fraction}}."""
        return RealSpaceFormElement(self, {
            (i, p): c for i, cs in coeffs.items()
            for p, c in (cs if isinstance(cs, dict) else {0: cs}).items()})

    def tau(self, i):
        if not 0 <= i <= self.n:
            raise ValueError("tau index out of range")
        return self.element({i: Fraction(1)})

    def zero(self):
        return self.element({})

    def multiply(self, x, y):
        out = {}
        for (i, p), ci in x.coeffs.items():
            for (j, q), cj in y.coeffs.items():
                c = ci * cj
                if i + j <= self.n:
                    key = (i + j, p + q)
                    out[key] = out.get(key, 0) + c
                if i + j + 2 <= self.n:
                    key = (i + j + 2, p + q + 1)
                    out[key] = out.get(key, 0) - c / 4
        return RealSpaceFormElement(self, out)

    def chi(self):
        """The Euler characteristic: sum over i of (lam/4)^i tau_{2i}."""
        return self.phi(0)

    def phi(self, power=1):
        """The hyperplane-average generator: phi^k = sum (lam/4)^j tau_{k+2j}."""
        return self.element({power + 2 * j: {j: Fraction(1, 4 ** j)}
                             for j in range((self.n - power) // 2 + 1)})

    def t_element(self):
        """The flat length generator t = phi / sqrt(1 - lam phi^2 / 4)."""
        out = self.zero()
        for m in range((self.n - 1) // 2 + 1):
            c = binomial_coefficient_general(Fraction(-1, 2), m) * Fraction((-1) ** m, 4 ** m)
            out = out + self.phi(1 + 2 * m).scale(c, m)
        return out

    def sphere_value(self, x, j):
        """Evaluation at lam = 1 on the j-dimensional totally geodesic
        unit-curvature sphere, a rational."""
        if not 0 <= j <= self.n:
            raise ValueError("sphere dimension out of range")
        return x.substitute(1).get(j, Fraction(0)) * 2 ** (j + 1)

    def kinematic(self, psi=None):
        """Kinematic coproduct table on tau (x) tau, each entry {lam_pow: Scalar},
        from the transfer rule: the image of tau_l is the sum of tau_i (x) tau_j
        over i+j = n+l, so every term lam^p tau_l of psi writes its own cells.
        The single power of pi, alpha_n/2^(n+1), is attached as the entries
        are written.  ``checks.kinematic_routes_agree`` compares the table term
        by term with the factorized form (psi (x) tau_0) * sum of
        phi^i (x) phi^j.
        """
        n = self.n
        if psi is None:
            psi = self.chi()
        factor = alpha(n) * Fraction(1, 2 ** (n + 1))
        entries = {}
        for (l, p), c in psi.coeffs.items():
            for i in range(l, n + 1):
                entries.setdefault(((i, 0), (n + l - i, 0)), {})[p] = factor * c
        return TensorTable("spaceform", n, "standard", "tau",
                           {d: [f"tau_{d}"] for d in range(n + 1)}, entries)

    def kinematic_matches_flat(self):
        """lam = 0 specialization of the chi table equals the flat table."""
        got = {k: v[0] for k, v in self.kinematic().entries.items() if 0 in v}
        return got == euclid.kinematic_so(self.n).entries


def real_space_form(n):
    return RealSpaceFormAlgebra(n)


def t_phi_series(order):
    """The mutually inverse substitutions t = phi / sqrt(1 - lam phi^2/4) and
    phi = t / sqrt(1 + lam t^2/4) as truncated series over Q at lam = 1;
    returns (t_of_phi, phi_of_t, roundtrip_ok).

    Both series are homogeneous of weight 1 (x of weight 1, lam of weight
    -2): the generic coefficient of x^k is the one at lam = 1 times
    lam^((k-1)/2).  So is the round trip, which therefore holds for generic
    lam exactly when it holds at lam = 1."""
    x = FormalSeries.variable(order)
    x2 = x * x
    t_of_phi = x * binomial_power(x2.scale(Fraction(-1, 4)), Fraction(-1, 2))
    phi_of_t = x * binomial_power(x2.scale(Fraction(1, 4)), Fraction(-1, 2))
    return t_of_phi, phi_of_t, phi_of_t.compose(t_of_phi) == x


# -- complex space forms -------------------------------------------------------

def curved_ideal_generators(n):
    """The two ideal generators with the curved substitution for t, truncated
    at degree 2n; coefficients are polynomials in lam ({mono: {lam_pow: c}})."""
    out = []
    for k in (n + 1, n + 2):
        gen = {}
        for (a, b), c in fk(k).items():
            # t^b (1 + lam t^2/4)^(-b/2) = sum_m C(-b/2, m) 4^-m lam^m t^(b+2m)
            m = 0
            while 2 * a + b + 2 * m <= 2 * n:
                cm = c * binomial_coefficient_general(Fraction(-b, 2), m) / 4 ** m
                if cm:
                    mono = (a, b + 2 * m)
                    gen.setdefault(mono, {})
                    gen[mono][m] = gen[mono].get(m, Fraction(0)) + cm
                m += 1
        out.append({mono: {p: v for p, v in cs.items() if v}
                    for mono, cs in gen.items()})
    return out


def _cp_gram(n, rows, cols):
    """The CP^n pairing cp_values(n, m m') of the monomials ``rows`` against
    the monomials ``cols``, as integer rows."""
    return [[cp_values(n, (a + a2, b + b2)) for a2, b2 in cols] for a, b in rows]


def _normal_form_rows(n, d):
    """The lam = 1 normal forms of the degree-d monomials, as the integer
    rows over one denominator on the basis monomials of degrees d, d + 2, ..
    up to 2n that ``_st_quotient`` reads: (rows, den, cols).

    A normal form x of m pairs with every basis monomial as m does.  The
    CP^n pairing vanishes above total degree 2n and equals the flat disk
    pairing (times pi^n/n!) at 2n, so the pairing of x with degree 2n - e
    sees only the parts of x of degree <= e.  The part of degree d is the
    flat reduction row; each later part of degree e is the pairing of m with
    basis[2n - e], minus that of the parts before it, times the inverse
    disk Gram, which is n!/pi^n times a chi block."""
    basis, monos = _disk_basis(n), _monomials(d)
    red, den = _reduction_rows(n, d)
    rows, cols = list(red.values()), list(basis[d])
    for e in range(d + 2, 2 * n + 1, 2):
        dual = basis[2 * n - e]
        low = (PiMatrix(0, rows) @ PiMatrix(0, _cp_gram(n, cols, dual))).m
        rhs = [[factorial(n) * (den * v - w) for v, w in zip(vrow, lrow)]
               for vrow, lrow in zip(_cp_gram(n, monos, dual), low)]
        part = PiMatrix.of(-n, rhs, den) @ _chi_block(n, 2 * n - e)
        lcd = lcm(den, part.d)
        rows = [[v * (lcd // den) for v in row] + [v * (lcd // part.d) for v in prow]
                for row, prow in zip(rows, part.m)]
        den, cols = lcd, cols + basis[e]
    return rows, den, cols


class ComplexSpaceFormAlgebra:
    """Curvature family of the hermitian valuation algebras.

    With lam of weight -2 every curved generator is weighted-homogeneous, so
    the quotient over Q(lam) is the rational quotient ``at_one`` (lam = 1)
    with lam^((deg bm - deg m)/2) attached to each reduction coefficient
    m -> bm; the two share their basis and Hilbert function.  ``at_one`` is
    read off the CP^n pairing on the flat basis (``_normal_form_rows``), and
    ``curved_ideal_matches_projective_kernel`` certifies that it is the
    quotient by the curved generators.
    """

    def __init__(self, n):
        self.n = n
        self.ideal_lambda = curved_ideal_generators(n)
        self.at_one = _st_quotient(_disk_basis(n), [_normal_form_rows(n, d)
                                                    for d in range(2 * n + 1)])

    def flat_limit_generators(self):
        """The lam = 0 parts of the ideal generators (the flat relations)."""
        return [{m: cs.get(0, Fraction(0)) for m, cs in g.items()
                 if cs.get(0)} for g in self.ideal_lambda]

    def normal_form_symbolic(self, terms):
        """Generic-lam normal form of {mono: Fraction or {lam_pow: Fraction}},
        as {basis mono: {lam_pow: Fraction}} without zero parts."""
        alg = self.at_one
        out = {}
        for m, cs in terms.items():
            d = alg.gens.degree(m)
            if d > alg.truncation:
                continue
            cs = cs if isinstance(cs, dict) else {0: cs}
            for bm, r in alg.reduction[m].items():
                acc = out.setdefault(bm, {})
                shift = (alg.gens.degree(bm) - d) // 2
                for p, c in cs.items():
                    acc[p + shift] = acc.get(p + shift, 0) + c * r
        nf = {bm: {p: c for p, c in acc.items() if c} for bm, acc in out.items()}
        return {bm: acc for bm, acc in nf.items() if acc}


@lru_cache(maxsize=None)
def complex_space_form(n):
    return ComplexSpaceFormAlgebra(n)


@lru_cache(maxsize=None)
def cp_values(n, mono):
    """Exact evaluation of a monomial on the complex projective n-space with
    unit-curvature normalization (lam = 1), an integer; zero above degree
    2n, and C(b, b/2) at degree 2n."""
    a, b = mono
    if b % 2:
        return 0
    return binomial(b, b // 2) * binomial(n - a + 1, b // 2 + 1)


def curved_ideal_matches_projective_kernel(n):
    """Acceptance check: the curved ideal at lam = 1 equals the kernel of
    projective-space evaluations, as subspaces of the truncated model, and
    ``complex_space_form(n).at_one`` is the quotient by it.

    Two certificates, neither of which reads ``at_one``:

    * ``kernel_equals_span``: the truncated multiples of the lam = 1 curved
      generators span the kernel of the pairing Q(m, m') = cp_values(n, m m');
    * ``rank_at_least``: those multiples have rank at least ncols - |basis|,
      |basis| the sum of the flat Hilbert function.

    So rank Q <= |basis|.  On the flat basis Q is block-anti-triangular, with
    the invertible disk Grams on its anti-diagonal, so rank Q = |basis| and
    Q's basis columns span all its columns: a vector that pairs to zero with
    every basis monomial lies in ker Q.
    ``at_one`` builds nf(m) to pair with the basis as m does, so nf(m) - m
    lies in ker Q, which is the curved ideal."""
    columns = [m for d in range(2 * n + 1) for m in _monomials(d)]
    index = {m: i for i, m in enumerate(columns)}
    multiples = []
    for gen in curved_ideal_generators(n):
        g = {mg: sum(cs.values()) for mg, cs in gen.items()}
        for m in columns:
            # distinct generator monomials give distinct products, so no
            # entry of a row is written twice
            row = {index[p]: c for mg, c in g.items() if c and (p := mono_mul(m, mg)) in index}
            if row:
                multiples.append(row)
    ncols = len(columns)
    return (kernel_equals_span(_cp_gram(n, columns, columns), multiples, ncols)
            and rank_at_least(multiples, ncols, ncols - sum(poincare_series_coefficients(n))))


def curved_ideal_dims(n):
    """{degree: dimension} of the curved ideal at lam = 1 where it is
    nonzero: the monomials of each degree minus the quotient's basis."""
    alg = complex_space_form(n).at_one
    dims = {d: d // 2 + 1 - alg.dimension(d) for d in range(2 * n + 1)}
    return {d: k for d, k in dims.items() if k}


# -- the conjectural relation series ------------------------------------------

def conjecture_coefficients(max_m):
    """c_m = C(4m+1, m+1) - 9 C(4m+1, m-1) for m = 1..max_m."""
    return [Fraction(binomial(4 * m + 1, m + 1) - 9 * binomial(4 * m + 1, m - 1))
            for m in range(1, max_m + 1)]


def chapoton_check(order):
    """Solve f = lam (1+f)^4 in formal power series, set g = f(1 - f - f^2),
    and compare g's coefficients with the closed-form binomial values.
    Returns (ok, f, g).  Both equations have integer coefficients, so the
    series are solved over the integers."""
    lam = FormalSeries.variable(order)
    f = FormalSeries.constant(0, order)
    one = FormalSeries.constant(1, order)
    for _ in range(order + 1):
        g1 = one + f
        g2 = g1 * g1
        f = lam * (g2 * g2)
    g = f * (one - f - f * f)
    expected = conjecture_coefficients(order)
    ok = all(g.coeffs[m] == expected[m - 1] for m in range(1, order + 1))
    return ok, f, g


def fbar_polynomials(n, max_i):
    """Components of weight n+1..max_i of the conjectural relation series,
    truncated to generator degree <= 2n.

    The series is log of (1 + s x^2 + t x + sum c_m lam^m x^(-2m)); a term
    s^a t^b lam^c has x-weight 2a + b - 2c.  Terms that can never reach
    weight > n within the degree cap are pruned.
    """
    cap = 2 * n
    cms = conjecture_coefficients(max(1, (n - 1) // 2 + 1))
    base = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1)}
    for m in range(1, (n - 1) // 2 + 1):
        base[(0, 0, m)] = cms[m - 1]

    def prune(term):
        a, b, c = term
        st = 2 * a + b
        weight = st - 2 * c
        # weight <= st <= cap holds automatically; a term is only useful if
        # the remaining degree budget can still lift it above weight n
        return st <= cap and weight + (cap - st) >= n + 1

    comps = {i: {} for i in range(n + 1, max_i + 1)}
    power = {(0, 0, 0): Fraction(1)}
    max_j = 2 * cap + n  # safe upper bound; iteration stops when power dies
    for j in range(1, max_j + 1):
        nxt = {}
        for (a1, b1, c1), v1 in power.items():
            for (a2, b2, c2), v2 in base.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                if prune(key):
                    nxt[key] = nxt.get(key, Fraction(0)) + v1 * v2
        power = {k: v for k, v in nxt.items() if v}
        if not power:
            break
        sign = Fraction((-1) ** (j + 1), j)
        for (a, b, c), v in power.items():
            w = 2 * a + b - 2 * c
            if n < w <= max_i:
                comp = comps[w]
                mono = (a, b)
                cs = comp.setdefault(mono, {})
                cs[c] = cs.get(c, Fraction(0)) + sign * v
    out = {}
    for i, comp in comps.items():
        out[i] = {m: {p: v for p, v in cs.items() if v}
                  for m, cs in comp.items()}
        out[i] = {m: cs for m, cs in out[i].items() if cs}
    return out


def fbar_relations_check(n, max_i=None):
    """Reduce the conjectural relation components in the generic-curvature
    algebra; returns {i: residual-is-zero} for n < i <= max_i."""
    if max_i is None:
        max_i = min(2 * n, n + 4)
    model = complex_space_form(n)
    comps = fbar_polynomials(n, max_i)
    out = {}
    for i in range(n + 1, max_i + 1):
        out[i] = not model.normal_form_symbolic(comps.get(i, {}))
    return out
