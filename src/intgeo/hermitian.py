"""Hermitian integral geometry of (C^n, U(n)).

The invariant-valuation algebra is presented two ways (generator relations
vs. the kernel of disk evaluations) and both must agree.  On top of the
algebra sit the Tasaki and hermitian bases, Klain functions in
elementary-symmetric coordinates of squared cosines of Kaehler angles, the
degree-reversing Fourier transform, the kinematic and additive coproducts by
Poincare-pairing inversion, Tasaki matrices, and the first-order integrand
kernels for pairs of submanifold dimensions.

Degrees above the middle are always handled through Fourier transforms of
complementary-degree elements; the Kaehler-angle coordinates degenerate
there, so primal Tasaki/hermitian bases exist only in degree <= n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .graded import (GradedElement, LinearFunctional, TensorTable,
                     build_quotient)
from .linalg import invert_exact, kernel_basis
from .scalars import Scalar, binomial, factorial, omega

_SONE = Scalar.one()
_SZERO = Scalar.zero()


class PresentationMismatch(AssertionError):
    """The relations and evaluation-kernel presentations disagree."""


# -- generators of the relation ideal -----------------------------------------

@lru_cache(maxsize=None)
def fk_polynomials(max_k):
    """Weighted-homogeneous components f_1..f_max_k of log(1 + s + t).

    s has weight 2 and t weight 1; the component of weight k collects the
    terms with 2a + b = k from the expansion of log(1 + s + t).
    """
    comps = [dict() for _ in range(max_k + 1)]
    for m in range(1, max_k + 1):
        sign = Fraction((-1) ** (m + 1), m)
        for j in range(m + 1):
            k = m + j  # weight of s^j t^(m-j)
            if k <= max_k:
                mono = (j, m - j)
                comps[k][mono] = comps[k].get(mono, Fraction(0)) + sign * binomial(m, j)
    return [
        {mo: c for mo, c in comp.items() if c != 0}
        for comp in comps[1:]
    ]


def fk(k):
    return fk_polynomials(k)[k - 1]


def disk_value(n, mono):
    """Exact value on the unit disk of C^n of a raw top-degree monomial."""
    a, b = mono
    if 2 * a + b != 2 * n:
        raise ValueError("disk_value needs a monomial of top degree")
    return Scalar.pi_power(-n, Fraction(binomial(b, n - a) * factorial(n)))


@lru_cache(maxsize=None)
def un_algebra(n, presentation="relations"):
    """The U(n)-invariant valuation algebra on generators s (weight 2), t.

    "relations" quotients by the two generators of the relation ideal;
    "evaluation-kernel" takes per-degree kernels of the pairing against disk
    evaluations.  The two must produce identical bases and reduction maps.
    """
    rel = build_quotient(("s", "t"), (2, 1),
                         [fk(n + 1), fk(n + 2)], 2 * n,
                         zero_above_truncation=True)
    if presentation == "relations":
        return rel
    if presentation != "evaluation-kernel":
        raise ValueError(f"unknown presentation {presentation!r}")

    gens = rel.gens
    ideal = []
    for d in range(2 * n + 1):
        rows_monos = gens.monomials_of_degree(d)
        cols_monos = gens.monomials_of_degree(2 * n - d)
        matrix = []
        for m in rows_monos:
            row = []
            for m2 in cols_monos:
                prod = (m[0] + m2[0], m[1] + m2[1])
                row.append(Fraction(binomial(prod[1], n - prod[0])))
            matrix.append(row)
        # kernel of x -> (m' -> ev(x * m')): rows index the degree-d monomials,
        # so we need the null space of the transpose
        transposed = [list(col) for col in zip(*matrix)] if matrix else []
        for vec in kernel_basis(transposed, len(rows_monos)):
            ideal.append({m: c for m, c in zip(rows_monos, vec) if c != 0})
    ker = build_quotient(("s", "t"), (2, 1), ideal, 2 * n,
                         zero_above_truncation=True)
    if ker.basis != rel.basis or ker.reduction != rel.reduction:
        raise PresentationMismatch(
            f"presentations of the U({n}) algebra disagree")
    return ker


def poincare_series_coefficients(n):
    """Coefficients of (1-x^(n+1))(1-x^(n+2)) / ((1-x)(1-x^2)) up to x^(2n).

    1/((1-x)(1-x^2)) expands with coefficient floor(e/2)+1 on x^e.
    """
    num = {0: 1, n + 1: -1, n + 2: -1, 2 * n + 3: 1}
    return [sum(num.get(d - e, 0) * (e // 2 + 1) for e in range(d + 1))
            for d in range(2 * n + 1)]


def ev_disk(n):
    """Top-degree functional normalized so the volume valuation maps to 1."""
    alg = un_algebra(n)
    top = (0, 2 * n)
    return LinearFunctional(alg, {top: disk_value(n, top)})


# -- Tasaki and hermitian bases -----------------------------------------------

def tasaki_prefactor(k, q):
    denom = omega(k) * Fraction(factorial(k - 2 * q) * factorial(2 * q))
    return Scalar.pi_power(k) * denom.inverse()


@lru_cache(maxsize=None)
def tasaki_monomial_rows(k):
    """Rows q = 0..floor(k/2): the degree-k Tasaki elements as {(a,b): Scalar}.

    These expansions in s, t do not depend on the ambient n; each one is the
    prefactor pi^k/(omega_k (k-2q)! (2q)!) times t^(k-2q) (4s - t^2)^q.
    """
    p = k // 2
    rows = []
    for q in range(p + 1):
        pref = tasaki_prefactor(k, q)
        row = {}
        for a in range(q + 1):
            c = Fraction(binomial(q, a) * 4 ** a * (-1) ** (q - a))
            row[(a, k - 2 * a)] = pref * c
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def monomial_to_sigma(k):
    """Inverse of the Tasaki matrix T, whose entry T[q][a] is the coefficient
    of s^a t^(k-2a) in tau_{k,q}: columns give sigma-coordinates of monomials.

    The Klain function of s^a t^(k-2a), as an element of weighted degree k in
    variables cos^2 of the Kaehler angles of a k-plane, is the linear
    combination of elementary symmetric functions read off column a.

    T = D L with D the diagonal of Tasaki prefactors and
    L[q][a] = C(q,a) 4^a (-1)^(q-a) the substitution z -> 4z - 1, whose
    inverse z -> (z + 1)/4 gives T^-1[a][q] = C(a,q) 4^-a / prefactor(k, q).
    """
    p = k // 2
    inv_pref = [tasaki_prefactor(k, q).inverse() for q in range(p + 1)]
    return [[inv_pref[q] * Fraction(binomial(a, q), 4 ** a) for q in range(p + 1)]
            for a in range(p + 1)]


def sigma_substitute_ones(coeffs, m_ones, p_out):
    """Rewrite sum c_q sigma_{P,q}(1,..,1,x) with m_ones ones as a combination
    of sigma_{p_out, j}(x)."""
    out = [_SZERO] * (p_out + 1)
    for q, c in enumerate(coeffs):
        if _iszero(c):
            continue
        for j in range(p_out + 1):
            w = binomial(m_ones, q - j)
            if w:
                out[j] = out[j] + c * w
    return out


def _iszero(c):
    return c.is_zero() if hasattr(c, "is_zero") else c == 0


class KlainPolynomial:
    """Symmetric polynomial in squared cosines of Kaehler angles, stored in
    elementary-symmetric coordinates.

    For degree k <= n the variables are the angles of the k-plane itself; for
    k > n they are the angles of its orthogonal complement (``perp=True``).
    """

    def __init__(self, degree, coeffs, perp=False):
        self.degree = degree
        self.coeffs = list(coeffs)
        self.nvars = len(self.coeffs) - 1
        self.perp = perp

    def vertex_value(self, l):
        """Value on a plane splitting as an l-dim complex summand plus an
        isotropic complement (all angle cosines 1 resp. 0)."""
        total = _SZERO
        for q, c in enumerate(self.coeffs):
            w = binomial(l, q)
            if w:
                total = total + c * w
        return total

    def __eq__(self, other):
        return (isinstance(other, KlainPolynomial)
                and self.degree == other.degree and self.perp == other.perp
                and self.coeffs == other.coeffs)

    def __repr__(self):
        var = "perp" if self.perp else "plane"
        body = " + ".join(f"({c})*sigma_{self.nvars},{q}"
                          for q, c in enumerate(self.coeffs))
        return f"Klain[deg {self.degree}, {var}]({body})"


@lru_cache(maxsize=None)
def _klain_columns(n, k):
    """sigma-coordinates of the degree-k normal-form basis monomials of the
    U(n) model; perp variables above the middle degree.

    A basis monomial is its own normal form, so its Klain data equals the
    relation-free computation through the Tasaki change of basis.
    """
    basis = un_algebra(n).basis[k]
    inv = monomial_to_sigma(k)
    if k <= n:
        return [list(inv[m[0]]) for m in basis], False
    p_out = (2 * n - k) // 2
    cols = [sigma_substitute_ones(inv[m[0]], k - n, p_out) for m in basis]
    return cols, True


class UnModel:
    """Cached per-dimension bundle: algebra, functional, bases, Fourier."""

    def __init__(self, n):
        self.n = n
        self.alg = un_algebra(n)
        self.ev = ev_disk(n)
        self._fourier = {}

    # coordinates ---------------------------------------------------------

    def coords(self, x, k):
        return [Scalar.zero() + c for c in self.alg.coordinates(x, k)]

    def element_from_coords(self, k, vec):
        basis = self.alg.basis[k]
        return GradedElement(self.alg, {m: c for m, c in zip(basis, vec)
                                        if not _iszero(c)})

    def tasaki_element(self, k, q):
        if k > self.n:
            raise ValueError(f"primal Tasaki basis only exists in degree <= {self.n}")
        return self.alg.normal_form_raw(tasaki_monomial_rows(k)[q])

    def hermitian_element(self, k, q):
        """The valuation with Klain value delta_{q,l} on the split planes."""
        n = self.n
        if k <= n:
            p = k // 2
            if not 0 <= q <= p:
                raise ValueError("hermitian index out of range")
            out = self.alg.zero()
            for l in range(q, p + 1):
                c = Fraction((-1) ** (l - q) * binomial(l, q))
                out = out + self.tasaki_element(k, l).scale(c)
            return out
        if not k - n <= q <= k // 2:
            raise ValueError("hermitian index out of range")
        return self.fourier(self.hermitian_element(2 * n - k, q - (k - n)))

    # Klain functions -------------------------------------------------------

    def klain(self, x, k=None):
        """Klain polynomial of a homogeneous element."""
        degs = x.degrees()
        if k is None:
            if len(degs) != 1:
                raise ValueError("klain needs a homogeneous element")
            k = degs[0]
        elif degs and degs != [k]:
            raise ValueError("element is not homogeneous of the stated degree")
        cols, perp = _klain_columns(self.n, k)
        vec = self.coords(x, k)
        p_out = len(cols[0]) - 1 if cols else 0
        out = [_SZERO] * (p_out + 1)
        for a, c in enumerate(vec):
            if _iszero(c):
                continue
            for q in range(p_out + 1):
                out[q] = out[q] + c * cols[a][q]
        return KlainPolynomial(k, out, perp)

    # Fourier transform ------------------------------------------------------

    def fourier_matrix(self, k):
        """Coordinate matrix of the transform from degree k to degree 2n-k."""
        n = self.n
        if k in self._fourier:
            return self._fourier[k]
        if k <= n:
            src_cols, _ = _klain_columns(n, k)
            dst_cols, _ = _klain_columns(n, 2 * n - k)
            # solve S c = v for each source basis vector
            s_mat = [[dst_cols[a][q] for a in range(len(dst_cols))]
                     for q in range(len(dst_cols[0]))]
            s_inv = invert_exact(s_mat, _SONE, _SZERO)
            dim = self.alg.dimension(k)
            mat = []
            for a in range(dim):
                v = src_cols[a]
                mat.append([sum((s_inv[i][q] * v[q] for q in range(len(v))),
                                start=_SZERO) for i in range(dim)])
            self._fourier[k] = mat
        else:
            inv = invert_exact(self.fourier_matrix(2 * n - k), _SONE, _SZERO)
            self._fourier[k] = inv
        return self._fourier[k]

    def fourier(self, x):
        out = self.alg.zero()
        for k in x.degrees():
            mat = self.fourier_matrix(k)
            vec = self.coords(x, k)
            dim = self.alg.dimension(2 * self.n - k)
            img = [sum((vec[a] * mat[a][i] for a in range(len(vec))), start=_SZERO)
                   for i in range(dim)]
            out = out + self.element_from_coords(2 * self.n - k, img)
        return out

    # display bases ------------------------------------------------------------

    def basis_rows(self, k, tag):
        """Display-basis elements of degree k as coordinate rows, plus labels.

        Tags: "monomial"; "tasaki" (primal up to the middle degree, Fourier
        transforms above it); "hermitian" (all degrees, delta-Klain basis).
        """
        n, alg = self.n, self.alg
        dim = alg.dimension(k)
        if tag == "monomial":
            rows = [[_SONE if j == i else _SZERO for j in range(dim)]
                    for i in range(dim)]
            labels = [alg.gens.format_monomial(m) for m in alg.basis[k]]
            return rows, labels
        if tag == "tasaki":
            if k <= n:
                els = [self.tasaki_element(k, q) for q in range(dim)]
                labels = [f"tau_{k},{q}" for q in range(dim)]
            else:
                els = [self.fourier(self.tasaki_element(2 * n - k, q))
                       for q in range(dim)]
                labels = [f"^tau_{2*n-k},{q}" for q in range(dim)]
            return [self.coords(e, k) for e in els], labels
        if tag == "hermitian":
            qlo = max(0, k - n)
            els = [self.hermitian_element(k, q) for q in range(qlo, qlo + dim)]
            labels = [f"mu_{k},{q}" for q in range(qlo, qlo + dim)]
            return [self.coords(e, k) for e in els], labels
        raise ValueError(f"unknown basis {tag!r}")

    # involution on even degrees ------------------------------------------------

    def iota(self, x):
        """The linear involution exchanging t^2 and 4s - t^2 on even degrees."""
        return self.alg.normal_form_raw(iota_raw(x.terms))


def iota_raw(terms):
    """Formal involution on even-degree polynomials: rewrite each monomial
    through powers of t^2 and u = 4s - t^2, swap those two, expand back."""
    tu = {}
    for (a, b), c in terms.items():
        if b % 2:
            raise ValueError("iota acts on even-degree (even t-power) elements")
        for i in range(a + 1):
            ci = Fraction(binomial(a, i), 4 ** a)
            key = (i, (a - i) + b // 2)  # t^(2i) u^(...) after the swap
            tu[key] = tu.get(key, _SZERO) + c * ci
    raw = {}
    for (tpow, upow), c in tu.items():
        for j in range(upow + 1):
            cj = Fraction(binomial(upow, j) * 4 ** j * (-1) ** (upow - j))
            mono = (j, 2 * tpow + 2 * (upow - j))
            raw[mono] = raw.get(mono, _SZERO) + c * cj
    return raw


@lru_cache(maxsize=None)
def un_model(n):
    return UnModel(n)


# -- kinematic and additive operators -----------------------------------------

def _pairing_block(model, k):
    """Symmetric pairing of the degree-k Tasaki basis against its transform."""
    kk = min(k, 2 * model.n - k)
    left = [model.tasaki_element(kk, q) for q in range(model.alg.dimension(kk))]
    right = [model.fourier(e) for e in left]
    mat = [[model.ev(li * rj) for rj in right] for li in left]
    for i in range(len(mat)):
        for j in range(i):
            if mat[i][j] != mat[j][i]:
                raise PresentationMismatch("pairing matrix is not symmetric")
    return left, right, mat


@lru_cache(maxsize=None)
def _chi_table_entries(n):
    """Canonical-coordinate entries of the kinematic image of chi."""
    model = un_model(n)
    entries = {}
    for k in range(n + 1):
        left, right, mat = _pairing_block(model, k)
        inv = invert_exact(mat, _SONE, _SZERO)
        lc = [model.coords(e, k) for e in left]
        rc = [model.coords(e, 2 * n - k) for e in right]
        dim_l = model.alg.dimension(k)
        dim_r = model.alg.dimension(2 * n - k)
        for a in range(dim_l):
            for b in range(dim_r):
                val = _SZERO
                for i in range(len(inv)):
                    for j in range(len(inv)):
                        val = val + inv[i][j] * lc[i][a] * rc[j][b]
                if not val.is_zero():
                    entries[((k, a), (2 * n - k, b))] = val
                    if k != n:
                        entries[((2 * n - k, b), (k, a))] = val
    return entries


def _new_table(n, basis="monomial", normalization="standard"):
    model = un_model(n)
    labels = {}
    for d in range(2 * n + 1):
        if basis == "monomial":
            labels[d] = [model.alg.gens.format_monomial(m)
                         for m in model.alg.basis[d]]
        else:
            labels[d] = model.basis_rows(d, basis)[1]
    return TensorTable("U", n, normalization, basis, basis_labels=labels)


def kinematic_un(n, phi=None):
    """Kinematic coproduct table of phi in canonical coordinates.

    With no argument: the image of chi, obtained by exact inversion of the
    Poincare pairing degree by degree; in general the multiplicative rule
    image(phi) = (phi (x) chi) * image(chi).  Standard motion normalization;
    the image of the volume is vol (x) vol.
    """
    model = un_model(n)
    table = _new_table(n)
    if phi is None:
        table.entries = dict(_chi_table_entries(n))
        return table
    for ((k, a), (kr, b)), c in _chi_table_entries(n).items():
        prod = model.alg.multiply(phi, model.alg.basis_element(k, a))
        for d in prod.degrees():
            vec = model.coords(prod, d)
            for a2, c2 in enumerate(vec):
                if not _iszero(c2):
                    table.add((d, a2), (kr, b), c * c2)
    return table


def convert_un_table(table, n, basis):
    """Re-express a canonical-coordinate table in a display basis."""
    if basis == "monomial":
        return table
    model = un_model(n)
    shell = _new_table(n, basis, table.normalization)
    inv_cache = {}

    def to_display(leg):
        d, i = leg
        if d not in inv_cache:
            rows, _ = model.basis_rows(d, basis)
            # a canonical basis vector's display coordinates form row i of
            # the inverse of the display-rows matrix
            inv_cache[d] = invert_exact(rows, _SONE, _SZERO) if rows else []
        inv = inv_cache[d]
        return {(d, j): inv[i][j] for j in range(len(inv))}

    out = table.map_legs(to_display, to_display, basis=basis)
    out.basis_labels = shell.basis_labels
    return out


def tasaki_matrices(n):
    """Blocks of the kinematic image of chi on tau (x) Fourier(tau) pairs.

    Returns {k: matrix} for k = 0..n; each matrix is symmetric, and in even
    degree 2l <= n satisfies the palindromic symmetry
    T[i][j] = T[l-i][l-j].
    """
    model = un_model(n)
    out = {}
    for k in range(n + 1):
        _, _, mat = _pairing_block(model, k)
        out[k] = invert_exact(mat, _SONE, _SZERO)
    return out


def additive_un(n, phi=None):
    """Additive coproduct: conjugate the kinematic table by Fourier on the
    input and both output legs.  Probability rotation measure."""
    model = un_model(n)
    if phi is None:
        phi = volume_element(n)
    kin = kinematic_un(n, model.fourier(phi))

    def leg_hat(leg):
        d, i = leg
        mat = model.fourier_matrix(d)
        return {(2 * n - d, j): mat[i][j] for j in range(len(mat[i]))}

    out = _new_table(n)
    out.entries = kin.map_legs(leg_hat, leg_hat).entries
    return out


def volume_element(n):
    """The volume valuation: the top monomial scaled so disk evaluation is 1."""
    model = un_model(n)
    top = model.alg.basis_element(2 * n, 0)
    return top.scale(model.ev(top).inverse())


def intrinsic_volume_element(n, d):
    """The d-th intrinsic volume of R^(2n) inside the U(n) algebra."""
    model = un_model(n)
    c = omega(d) * Scalar.pi_power(-d, factorial(d))
    return model.alg.normal_form_raw({(0, d): c.inverse()})


class FirstOrderKernel:
    """Bidegree-(k,l) integrand of a kinematic average of an intrinsic volume,
    with both tensor legs expanded as Klain polynomials."""

    def __init__(self, n, k, l, coeffs, left_perp, right_perp):
        self.n = n
        self.k = k
        self.l = l
        self.coeffs = coeffs  # {(q_left, q_right): Scalar}
        self.left_perp = left_perp
        self.right_perp = right_perp

    def coefficient(self, ql, qr):
        return self.coeffs.get((ql, qr), _SZERO)


def klain_expand_block(n, table, k, l):
    """Expand the bidegree-(k,l) block of a canonical-coordinate table with
    both legs as Klain polynomials; returns ({(q_left, q_right): Scalar},
    left_perp, right_perp)."""
    model = un_model(n)
    left_kl = [model.klain(model.alg.basis_element(k, a), k)
               for a in range(model.alg.dimension(k))]
    right_kl = [model.klain(model.alg.basis_element(l, b), l)
                for b in range(model.alg.dimension(l))]
    coeffs = {}
    for ((dk, a), (dl, b)), c in table.entries.items():
        if dk != k or dl != l:
            continue
        for ql, cl in enumerate(left_kl[a].coeffs):
            for qr, cr in enumerate(right_kl[b].coeffs):
                v = c * cl * cr
                if not v.is_zero():
                    key = (ql, qr)
                    coeffs[key] = coeffs.get(key, _SZERO) + v
    coeffs = {key: v for key, v in coeffs.items() if not v.is_zero()}
    return (coeffs,
            left_kl[0].perp if left_kl else False,
            right_kl[0].perp if right_kl else False)


def first_order_formula(n, k, l, space="euclidean"):
    """Klain-expanded bidegree-(k,l) component of the kinematic image of the
    (k+l-2n)-dimensional volume valuation.

    "euclidean" uses the standard flat motion normalization; "projective"
    divides by the volume of the compact model space (so the group carries the
    probability measure), which multiplies everything by n!/pi^n.
    """
    if not (k + l >= 2 * n and 0 <= k <= 2 * n and 0 <= l <= 2 * n):
        raise ValueError("first-order bidegrees need k + l >= 2n, each <= 2n")
    d = k + l - 2 * n
    table = kinematic_un(n, intrinsic_volume_element(n, d))
    coeffs, left_perp, right_perp = klain_expand_block(n, table, k, l)
    if space == "projective":
        scale = Scalar.pi_power(-n, factorial(n))
        coeffs = {key: scale * v for key, v in coeffs.items()}
    elif space != "euclidean":
        raise ValueError(f"unknown space {space!r}")
    return FirstOrderKernel(n, k, l, coeffs, left_perp, right_perp)


def basis_change(n, frm, to):
    """Per-degree exact matrices converting frm-coordinates to to-coordinates.

    Tags as in ``UnModel.basis_rows``; row i of the degree-k matrix holds the
    to-coordinates of the i-th frm-basis element.
    """
    model = un_model(n)
    out = {}
    for k in range(2 * n + 1):
        rows_f, _ = model.basis_rows(k, frm)
        rows_t, _ = model.basis_rows(k, to)
        inv_t = invert_exact(rows_t, _SONE, _SZERO)
        dim = len(rows_f)
        out[k] = [[sum((rows_f[i][a] * inv_t[a][j] for a in range(dim)),
                       start=_SZERO) for j in range(dim)] for i in range(dim)]
    return out


def pfaff_saalschutz_residual(n, k):
    """Residual of the alternating binomial identity used by the relation
    ideal; exactly zero for all 0 <= k <= n."""
    total = Fraction(0)
    for i in range((n + 1) // 2 + 1):
        c1 = binomial(n + 1 - i, i)
        c2 = binomial(2 * n - 2 * k - 2 * i, n - k - i)
        if c1 and c2:
            total += Fraction((-1) ** i, n + 1 - i) * c1 * c2
    rhs = Fraction((-1) ** (n - k), n + 1) * binomial(k, n - k)
    return total - rhs


def mu_k0_fk_ratio(n, k):
    """The constant c with mu_{k,0} = c f_k, computed from the Klain
    normalization; raises if the two are not actually proportional."""
    model = un_model(n)
    mu = model.hermitian_element(k, 0)
    f = model.alg.normal_form_raw(fk(k))
    ratio = None
    for m, c in f.terms.items():
        if m in mu.terms:
            ratio = mu.terms[m].exact_div(Scalar.zero() + c)
            break
    if ratio is None:
        raise ValueError("elements do not overlap")
    if mu - f.scale(ratio) != model.alg.zero():
        raise ValueError(f"mu_{k},0 is not proportional to the weight-{k} "
                         "log component")
    return ratio


def complex_flat_constant(l):
    """The conversion factor l! omega_l / pi^l in the identity expressing a
    monomial's action through intersections with complex flats."""
    return omega(l) * Scalar.pi_power(-l, factorial(l))
