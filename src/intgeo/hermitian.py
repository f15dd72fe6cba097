"""Hermitian integral geometry of (C^n, U(n)).

The invariant-valuation algebra is read off its disk pairing, and
``presentations_agree`` certifies that the pairing's kernel is the ideal of
two generator relations.  On top of the algebra sit the Tasaki and
hermitian bases, Klain functions in elementary-symmetric coordinates of
squared cosines of Kaehler angles, the degree-reversing Fourier transform,
the kinematic and additive coproducts by Poincare-pairing inversion and the
multiplicative rule, Tasaki matrices, and the first-order integrand kernels
for pairs of submanifold dimensions.  Kinematic blocks are read off the
reduction map, and a first-order kernel builds only the one block it reads.

The Poincare pairing of s^a t^b and s^a' t^b' is the disk value
C(b + b', n - a - a') n!/pi^n (Bernig and Fu, Ann. of Math. 173, 2011), and
it is perfect on the algebra (the source paper's ftaig).  So the basis keeps
the monomials with independent pairing rows, each chi block inverts one
integer Gram (``_disk_gram``), a normal form is a pairing row times a chi
block, and the Tasaki matrices are the chi blocks in Tasaki coordinates.

The Tasaki valuation tau_{k,q} has Klain function sigma_{k,q}, and above the
middle degree the Tasaki basis is the Fourier image of the one below.  So a
monomial's Tasaki coordinates are its Klain coordinates in every degree (in
the complement's angles above the middle), the Fourier transform is the
identity in them, and every display basis and Fourier matrix is read off one
change of basis per degree.

pi acts as a grading: every degree block of the operator assembly (Fourier
matrices, display-basis rows, chi blocks, reduction rows) is one power of pi
times an integer matrix over one denominator, a ``PiMatrix``.  The exponent
is read from the block's entries and must be uniform; products add exponents
and inverses negate them, so all linear algebra runs in integers.  A U(n)
table keeps its canonical blocks and its legs per degree (the Fourier
transform, then a display basis), and ``_UnTable.block`` is the one place a
canonical block meets its legs: table entries, Tasaki matrices and
first-order kernels are all block reads, each one congruence.  ``Scalar``
coefficients are built only when a table entry or a document value is
first read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial, gcd, lcm
from operator import mul
from typing import NamedTuple

from .euclid import t_mu_coefficient
from .graded import (GradedElement, LinearFunctional, QuotientAlgebra,
                     TensorTable, mono_mul)
from .linalg import identity, invert_integer, kernel_equals_span
from .scalars import MixedPiGrading, Scalar, binomial, omega

_SZERO = Scalar.zero()


class PiMatrix(NamedTuple):
    """The matrix pi^e * m / d: m a list of rows of ints and d > 0 one
    denominator with gcd(d, m) = 1; a zero block has e = 0 and d = 1.  This
    normal form makes equal blocks equal tuples."""

    e: int
    m: list
    d: int = 1

    @classmethod
    def of(cls, e, m, d=1):
        """The block pi^e m / d of int rows m, in normal form."""
        g = gcd(*chain.from_iterable(m))
        if not g:
            return cls(0, m, 1)
        g = gcd(g, d)
        if d < 0:
            g = -g
        if g != 1:
            m = [[x // g for x in row] for row in m]
        return cls(e, m, d // g)

    @classmethod
    def read(cls, rows):
        """Split a matrix of Scalars (or rationals) that are all c*pi^e for
        one e; raises MixedPiGrading otherwise."""
        powers = {c.pi_pow if isinstance(c, Scalar) else 0
                  for row in rows for c in row if c}
        if len(powers) > 1:
            raise MixedPiGrading(f"block mixes the powers of pi {sorted(powers)}")
        rows = [[c.coeff if isinstance(c, Scalar) else c for c in row] for row in rows]
        d = lcm(*(c.denominator for row in rows for c in row))
        return cls.of(powers.pop() if powers else 0,
                      [[c.numerator * (d // c.denominator) for c in row] for row in rows], d)

    @classmethod
    def eye(cls, size):
        return cls(0, identity(size))

    def __matmul__(self, other):
        cols = list(zip(*other.m))
        return PiMatrix.of(self.e + other.e,
                           [[sum(map(mul, row, col)) for col in cols] for row in self.m],
                           self.d * other.d)

    @property
    def T(self):
        return PiMatrix(self.e, [list(col) for col in zip(*self.m)], self.d)

    def inverse(self):
        det, adj = invert_integer(self.m)  # (pi^e m/d)^-1 = pi^-e d adj/det
        return PiMatrix.of(-self.e, [[self.d * x for x in row] for row in adj], det)

    def scalars(self):
        return [[Scalar(Fraction(v, self.d), self.e) if v else _SZERO for v in row]
                for row in self.m]


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


def _disk_gram(n, rows, cols):
    """The disk pairing over n!/pi^n of the monomials ``rows`` against the
    monomials ``cols`` of complementary degree: the integers
    C(b + b', n - a - a')."""
    return [[binomial(b + b2, n - a - a2) for a2, b2 in cols] for a, b in rows]


def un_relations(n):
    """(degree, generator) of f_(n+1) and f_(n+2), which generate the ideal."""
    return [(n + 1, fk(n + 1)), (n + 2, fk(n + 2))]


def _monomials(d):
    """The monomials s^a t^(d-2a) of degree d, a ascending."""
    return [(a, d - 2 * a) for a in range(d // 2 + 1)]


@lru_cache(maxsize=None)
def _disk_basis(n):
    """{d: the basis of degree d}: each monomial of ``_monomials(d)`` whose
    disk pairing row against degree 2n - d is independent of the rows kept
    before it, by exact integer elimination."""
    basis = {}
    for d in range(2 * n + 1):
        monos, basis[d], echelon = _monomials(d), [], []
        for m, row in zip(monos, _disk_gram(n, monos, _monomials(2 * n - d))):
            for p, prow in echelon:
                if row[p]:
                    row = [prow[p] * x - row[p] * y for x, y in zip(row, prow)]
            if any(row):
                g = gcd(*row)
                echelon.append((next(j for j, x in enumerate(row) if x), [x // g for x in row]))
                basis[d].append(m)
    return basis


@lru_cache(maxsize=None)
def _reduction_rows(n, d):
    """The reduction map of ``un_algebra(n)`` on the monomials of degree d as
    one integer block: ({monomial: integer row over basis[d]}, denominator).
    A normal form pairs with the basis of degree 2n - d as its monomial does:
    its row is that pairing times the chi block, the inverse pairing."""
    monos, f = _monomials(d), factorial(n)
    pairing = [[f * x for x in row] for row in _disk_gram(n, monos, _disk_basis(n)[2 * n - d])]
    block = PiMatrix(-n, pairing) @ _chi_block(n, 2 * n - d)
    return dict(zip(monos, block.m)), block.d


def _st_quotient(basis, blocks):
    """The quotient on s (weight 2) and t with ``basis`` and the reduction
    map of ``blocks``: per degree d, (rows, den, cols), where the normal
    form of the i-th monomial of ``_monomials(d)`` is rows[i] / den on the
    basis monomials ``cols``.  The map is written in the relation quotient's
    order: basis monomials before the others, each group by degree and then
    high powers of s first, and each normal form's terms in that order too."""
    head, tail = {}, {}
    for d, (rows, den, cols) in enumerate(blocks):
        order = sorted(range(len(cols)), key=lambda j: (2 * cols[j][0] + cols[j][1], -cols[j][0]))
        for m, row in reversed(list(zip(_monomials(d), rows))):
            (head if m in basis[d] else tail)[m] = {
                cols[j]: Fraction(row[j], den) for j in order if row[j]}
    return QuotientAlgebra(("s", "t"), (2, 1), basis, head | tail)


@lru_cache(maxsize=None)
def un_algebra(n):
    """The U(n)-invariant valuation algebra on generators s (weight 2), t,
    truncated at degree 2n: basis ``_disk_basis`` and reduction map
    ``_reduction_rows``, each normal form homogeneous."""
    basis = _disk_basis(n)
    rows = [_reduction_rows(n, d) for d in range(2 * n + 1)]
    return _st_quotient(basis, [(list(red.values()), den, basis[d])
                                for d, (red, den) in enumerate(rows)])


def presentations_agree(n):
    """Whether, in every degree d, the ideal of ``un_relations(n)`` is the
    kernel of the pairing against disk evaluations in degree 2n - d, so that
    nf(m) - m lies in that ideal for ``un_algebra``, which is not read.
    ``kernel_equals_span`` certifies each degree: the relations' multiples
    lie in the kernel, and their rank plus the pairing's is full."""
    for d in range(2 * n + 1):
        cols = _monomials(d)
        index = {m: i for i, m in enumerate(cols)}
        multiples = [{index[mono_mul(m, mf)]: c for mf, c in f.items()}
                     for w, f in un_relations(n) for m in _monomials(d - w)]
        block = _disk_gram(n, _monomials(2 * n - d), cols)
        if not kernel_equals_span(block, multiples, len(cols)):
            return False
    return True


def poincare_series_coefficients(n):
    """Coefficients of (1-x^(n+1))(1-x^(n+2)) / ((1-x)(1-x^2)) up to x^(2n).

    1/((1-x)(1-x^2)) expands with coefficient floor(e/2)+1 on x^e.
    """
    num = {0: 1, n + 1: -1, n + 2: -1, 2 * n + 3: 1}
    return [sum(num.get(d - e, 0) * (e // 2 + 1) for e in range(d + 1))
            for d in range(2 * n + 1)]


def ev_disk(n):
    """Top-degree functional normalized so the volume valuation maps to 1."""
    top = (0, 2 * n)
    return LinearFunctional({top: disk_value(n, top)})


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
    inverse z -> (z + 1)/4 gives T^-1[a][q] = C(a,q) 4^-a / prefactor(k, q)
    = C(a,q) 4^-a omega_k (k-2q)! (2q)! / pi^k, written in integers over the
    one denominator 4^(k/2) times that of omega_k.
    """
    p = k // 2
    om = omega(k)
    return PiMatrix.of(om.pi_pow - k,
                       [[om.coeff.numerator * binomial(a, q) * 4 ** (p - a)
                         * factorial(k - 2 * q) * factorial(2 * q) for q in range(p + 1)]
                        for a in range(p + 1)],
                       om.coeff.denominator * 4 ** p)


def sigma_substitute_ones(coeffs, m_ones, p_out):
    """Rewrite sum c_q sigma_{P,q}(1,..,1,x) with m_ones ones as a combination
    of sigma_{p_out, j}(x)."""
    out = [0] * (p_out + 1)
    for q, c in enumerate(coeffs):
        for j in range(p_out + 1):
            w = binomial(m_ones, q - j)
            if c and w:
                out[j] += c * w
    return out


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
    U(n) model, one row per monomial, as a PiMatrix; perp variables above the
    middle degree (k > n), where k - n of the k-plane's angle cosines are 1.
    These are also the monomials' Tasaki coordinates.

    A basis monomial is its own normal form, so its Klain data equals the
    relation-free computation through the Tasaki change of basis.
    """
    inv = monomial_to_sigma(k)
    p = min(k, 2 * n - k) // 2
    return PiMatrix.of(inv.e, [sigma_substitute_ones(inv.m[a], max(0, k - n), p)
                               for a, _ in un_algebra(n).basis[k]], inv.d)


class UnModel:
    """Cached per-dimension bundle: algebra, functional, bases, Fourier."""

    def __init__(self, n):
        self.n = n
        self.alg = un_algebra(n)
        self.ev = ev_disk(n)
        self._fourier = {}
        self._display = {}
        self._display_inverse = {}

    # elements ------------------------------------------------------------

    def element_from_coords(self, k, vec):
        return GradedElement(self.alg, dict(zip(self.alg.basis[k], vec)))

    def tasaki_element(self, k, q):
        if k > self.n:
            raise ValueError(f"primal Tasaki basis only exists in degree <= {self.n}")
        return self.alg.normal_form_raw(tasaki_monomial_rows(k)[q])

    def hermitian_element(self, k, q):
        """The valuation with Klain value delta_{q,l} on the split planes."""
        qlo = max(0, k - self.n)
        if not qlo <= q <= k // 2:
            raise ValueError("hermitian index out of range")
        return self.element_from_coords(k, self.display(k, "hermitian").scalars()[q - qlo])

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
        return KlainPolynomial(k, _apply(self.alg.coordinates(x, k),
                                         _klain_columns(self.n, k)), k > self.n)

    # Fourier transform ------------------------------------------------------

    def fourier_matrix(self, k):
        """The transform from degree k to degree 2n-k as a PiMatrix; row a
        holds the image of the a-th basis monomial.

        Fourier is the identity in Tasaki coordinates, which are the Klain
        coordinates: F is the degree-k Tasaki coordinates times the
        degree-(2n-k) Tasaki rows.
        """
        if k not in self._fourier:
            self._fourier[k] = (self.display_inverse(k, "tasaki")
                                @ self.display(2 * self.n - k, "tasaki"))
        return self._fourier[k]

    def fourier(self, x):
        terms = {}
        for k in x.degrees():
            img = _apply(self.alg.coordinates(x, k), self.fourier_matrix(k))
            terms.update(zip(self.alg.basis[2 * self.n - k], img))
        return GradedElement(self.alg, terms)

    # display bases ------------------------------------------------------------

    def basis_labels(self, k, tag):
        n, dim = self.n, self.alg.dimension(k)
        if tag == "monomial":
            return [self.alg.gens.format_monomial(m) for m in self.alg.basis[k]]
        if tag == "tasaki":
            name = f"tau_{k}" if k <= n else f"^tau_{2*n-k}"
            return [f"{name},{q}" for q in range(dim)]
        if tag == "hermitian":
            qlo = max(0, k - n)
            return [f"mu_{k},{q}" for q in range(qlo, qlo + dim)]
        raise ValueError(f"unknown basis {tag!r}")

    def display(self, k, tag):
        """The degree-k display basis as a PiMatrix, the inverse of
        ``display_inverse(k, tag)``: row i holds the canonical coordinates of
        the i-th display element.  Tags: "monomial"; "tasaki" (primal up to
        the middle degree, Fourier images above it: Tasaki coordinates are the
        Klain coordinates, and Fourier is the identity in them); "hermitian"
        (all degrees, delta-Klain basis)."""
        if (k, tag) not in self._display:
            self._display[k, tag] = self.display_inverse(k, tag).inverse()
        return self._display[k, tag]

    def display_inverse(self, k, tag):
        """Row i holds the display coordinates of the i-th canonical basis
        monomial.  Tasaki coordinates are the Klain coordinates in every
        degree (``_klain_columns``), and Fourier is the identity in them.  A
        monomial's hermitian coordinates are its Klain values on the split
        planes, sum_q C(l, q) sigma_q for l = 0..dim - 1."""
        if (k, tag) not in self._display_inverse:
            if tag not in ("monomial", "tasaki", "hermitian"):
                raise ValueError(f"unknown basis {tag!r}")
            dim = self.alg.dimension(k)
            rows = (PiMatrix.eye(dim) if tag == "monomial"
                    else _klain_columns(self.n, k))
            if tag == "hermitian":
                rows = rows @ PiMatrix(0, [[binomial(l, q) for l in range(dim)]
                                           for q in range(dim)])
            self._display_inverse[k, tag] = rows
        return self._display_inverse[k, tag]


def iota_block(n, k):
    """The involution exchanging t^2 and 4s - t^2 on the even degree k of
    ``un_algebra(n)`` as a PiMatrix whose row a is the image of the a-th
    basis monomial, iota(s^a t^(2c)) = s^a (4s - t^2)^c, expanded and read
    off the reduction rows."""
    red, den = _reduction_rows(n, k)
    rows = [[sum(binomial(b // 2, j) * 4 ** j * (-1) ** (b // 2 - j) * red[a + j, b - 2 * j][i]
                 for j in range(b // 2 + 1)) for i in range(len(red[a, b]))]
            for a, b in _disk_basis(n)[k]]
    return PiMatrix.of(0, rows, den)


@lru_cache(maxsize=None)
def un_model(n):
    return UnModel(n)


# -- kinematic and additive operators -----------------------------------------

def _apply(vec, f):
    """A coordinate row (Fractions or Scalars of one power of pi) times a
    PiMatrix, as Scalars."""
    return (PiMatrix.read([vec]) @ f).scalars()[0]


@lru_cache(maxsize=None)
def _labels(n, basis):
    """The labels of every degree of a U(n) display basis, which the tables
    in that basis share."""
    return {d: un_model(n).basis_labels(d, basis) for d in range(2 * n + 1)}


@lru_cache(maxsize=None)
def _json_labels(n, basis):
    """``_labels(n, basis)`` quoted as JSON strings, once per (n, basis)."""
    return TensorTable("U", n, "standard", basis, _labels(n, basis)).json_labels()


class _UnTable(TensorTable):
    """A U(n) table in a display basis, kept as its canonical-coordinate
    blocks {(dl, dr): PiMatrix} and one leg per degree: the identity
    (kinematic) or the Fourier transform to degree 2n - d (additive), then
    the display coordinates.  F_d composed with the display legs of degree
    2n - d is ``display_inverse(d, basis)`` outside the monomial basis,
    because F_d S_(2n-d) = S_d for the Klain coordinates S.  ``block`` is the
    one reader of the canonical blocks and ``cells`` the one reader of
    ``block``: the emitters format its integer cells, and ``entries`` is
    their Scalar image, written once, the first time it is read."""

    def __init__(self, n, blocks, fourier=False, basis="monomial"):
        super().__init__("U", n, "standard", basis, _labels(n, basis))
        self.blocks, self.fourier, self._entries = blocks, fourier, None

    def _across(self, d):
        """The degree a leg carries degree d to, and back: 2n - d in an
        additive table, else d."""
        return 2 * self.dim - d if self.fourier else d

    def _leg(self, d):
        """The matrix carrying canonical degree d to degree ``_across(d)``;
        None is the identity."""
        model, basis = un_model(self.dim), self.basis
        if basis != "monomial":
            return model.display_inverse(d, basis)
        return model.fourier_matrix(d) if self.fourier else None

    def block(self, dl, dr):
        """The block of bidegree (dl, dr) in the table's basis: A^T C B, for
        C the canonical block whose legs A and B land on (dl, dr)."""
        sl, sr = self._across(dl), self._across(dr)
        c = self.blocks.get((sl, sr))
        if c is None:
            dim = un_algebra(self.dim).dimension
            return PiMatrix(0, [[0] * dim(dr) for _ in range(dim(dl))])
        a = self._leg(sl)
        return c if a is None else a.T @ c @ self._leg(sr)

    def cells(self):
        """The nonzero cells of every block, each pi^e v/d reduced by one gcd,
        sorted once; the legs are one-to-one on degrees, so no cell is
        written twice.  No Scalar or Fraction is built."""
        out = []
        for dl, dr in self.blocks:
            tl, tr = self._across(dl), self._across(dr)
            e, m, d = self.block(tl, tr)
            for i, row in enumerate(m):
                for j, v in enumerate(row):
                    if v:
                        g = gcd(v, d)
                        out.append((tl, i, tr, j, (v // g, d // g, e)))
        out.sort()
        return out

    def json_labels(self):
        return _json_labels(self.dim, self.basis)

    @property
    def entries(self):
        """The Scalar image of ``cells``, written the first time it is read."""
        if self._entries is None:
            self._entries = {((ld, li), (rd, ri)): Scalar(Fraction(v, d), e)
                             for ld, li, rd, ri, (v, d, e) in self.cells()}
        return self._entries

    @entries.setter
    def entries(self, value):
        self._entries = value


@lru_cache(maxsize=None)
def _chi_block(n, k):
    """Block (k, 2n - k) of the kinematic image of chi in canonical
    coordinates, 0 <= k <= 2n: the inverse of the disk pairing of degree
    2n - k against degree k, pi^n/n! times the inverse of the integer Gram.
    The Gram is inverted before it is scaled, because Bareiss intermediates
    grow with the scale."""
    basis = _disk_basis(n)
    det, adj = invert_integer(_disk_gram(n, basis[2 * n - k], basis[k]))
    return PiMatrix.of(n, adj, det * factorial(n))


def _product_block(n, monos, coeffs, k):
    """Block (k + j, 2n - k) of the kinematic table of a degree-j part of
    phi, k + j <= 2n, whose coefficients on ``monos`` are the one-row
    PiMatrix ``coeffs``: the rows of multiplication out of degree k, read
    off the integer reduction map, times chi's degree-k block."""
    alg = un_algebra(n)
    d = k + alg.gens.degree(monos[0])
    red, den = _reduction_rows(n, d)
    rows = []
    for ma in alg.basis[k]:
        row = [0] * alg.dimension(d)
        for m, c in zip(monos, coeffs.m[0]):
            row = [x + c * r for x, r in zip(row, red[mono_mul(m, ma)])]
        rows.append(row)
    return (d, 2 * n - k), PiMatrix.of(coeffs.e, rows, coeffs.d * den).T @ _chi_block(n, k)


def _kinematic_blocks(n, phi):
    """The kinematic table of phi as {(dl, dr): PiMatrix}, one block per
    degree-j part of phi and source degree k."""
    parts = {}
    for m, c in phi.terms.items():
        parts.setdefault(phi.algebra.gens.degree(m), {})[m] = c
    blocks = {}
    for j, part in parts.items():
        coeffs = PiMatrix.read([list(part.values())])
        blocks.update(_product_block(n, list(part), coeffs, k) for k in range(2 * n + 1 - j))
    return blocks


def kinematic_un(n, phi=None):
    """Kinematic coproduct table of phi in canonical coordinates.

    With no argument: the image of chi, whose degree-k block is the inverse
    of the integer disk Gram of degree 2n - k against degree k, scaled by
    pi^n/n!; in general the multiplicative rule
    image(phi) = (phi (x) chi) * image(chi).  Each degree-j part of phi writes
    the block (k + j, 2n - k) of each source degree k, read off the reduction
    map; a first-order kernel builds only the block it reads.  Standard motion
    normalization; vol maps to vol (x) vol.
    """
    if phi is None:
        phi = un_model(n).alg.one()
    return _UnTable(n, _kinematic_blocks(n, phi))


def convert_un_table(table, n, basis):
    """Re-express a canonical-coordinate table in a display basis.

    A canonical basis vector's display coordinates form a row of the inverse
    of the display-rows matrix, so each block C becomes inv^T C inv when it
    is read.  The table keeps its blocks and composes the display legs into
    its legs; no entry is written before it is read.
    """
    return _UnTable(n, table.blocks, table.fourier, basis)


def tasaki_matrices(n):
    """The chi blocks in Tasaki coordinates: {k: matrix} for k = 0..n, the
    inverse of the pairing of the degree-k Tasaki basis against its Fourier
    image, which is block (k, 2n - k) of the chi table in the Tasaki basis,
    transposed.  No symmetry is assumed: that each is symmetric, and in even
    degree 2l <= n palindromic (T[i][j] = T[l-i][l-j]), tests the Tasaki
    coordinates against the disk Gram.
    """
    chi = _UnTable(n, {(k, 2 * n - k): _chi_block(n, k) for k in range(n + 1)},
                   basis="tasaki")
    return {k: chi.block(k, 2 * n - k).T.scalars() for k in range(n + 1)}


def additive_un(n, phi=None):
    """Additive coproduct: conjugate the kinematic blocks by Fourier on the
    input and both output legs.  Probability rotation measure."""
    if phi is None:
        phi = volume_element(n)
    return _UnTable(n, _kinematic_blocks(n, un_model(n).fourier(phi)), fourier=True)


def volume_element(n):
    """The volume valuation: the top monomial scaled so disk evaluation is 1."""
    model = un_model(n)
    top = model.alg.basis_element(2 * n, 0)
    return top.scale(model.ev(top).inverse())


def intrinsic_volume_element(n, d):
    """The d-th intrinsic volume of R^(2n) inside the U(n) algebra."""
    return un_model(n).alg.normal_form_raw({(0, d): t_mu_coefficient(d).inverse()})


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


def first_order_formula(n, k, l, space="euclidean"):
    """Klain-expanded bidegree-(k,l) component of the kinematic image of the
    (k+l-2n)-dimensional volume valuation: that one block of a table in the
    Tasaki basis, whose coordinates are the Klain coordinates of both legs.

    "euclidean" uses the standard flat motion normalization; "projective"
    divides by the volume of the compact model space (so the group carries the
    probability measure), which multiplies everything by n!/pi^n.
    """
    if not (k + l >= 2 * n and 0 <= k <= 2 * n and 0 <= l <= 2 * n):
        raise ValueError("first-order bidegrees need k + l >= 2n, each <= 2n")
    if space not in ("euclidean", "projective"):
        raise ValueError(f"unknown space {space!r}")
    terms = intrinsic_volume_element(n, k + l - 2 * n).terms
    if space == "projective":
        terms = {m: c * Scalar.pi_power(-n, factorial(n)) for m, c in terms.items()}
    key, c = _product_block(n, list(terms), PiMatrix.read([list(terms.values())]),
                            2 * n - l)
    block = _UnTable(n, {key: c}, basis="tasaki").block(k, l).scalars()
    coeffs = {(i, j): v for i, row in enumerate(block) for j, v in enumerate(row) if v}
    return FirstOrderKernel(n, k, l, coeffs, k > n, l > n)


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
    """The constant c with mu_{k,0} = c f_k, 1 <= k <= n, computed from the
    Klain normalization on integer rows; raises if the two are not actually
    proportional."""
    e, (mu, *_), d = un_model(n).display(k, "hermitian")
    red, den = _reduction_rows(n, k)
    f = PiMatrix.read([list(fk(k).values())]) @ PiMatrix.of(0, [red[m] for m in fk(k)], den)
    i = next((i for i, (x, y) in enumerate(zip(mu, f.m[0])) if x and y), None)
    if i is None:
        raise ValueError("elements do not overlap")
    if any(x * f.m[0][i] != y * mu[i] for x, y in zip(mu, f.m[0])):
        raise ValueError(f"mu_{k},0 is not proportional to the weight-{k} "
                         "log component")
    return Scalar(Fraction(mu[i] * f.d, d * f.m[0][i]), e - f.e)


def complex_flat_constant(l):
    """The conversion factor l! omega_l / pi^l in the identity expressing a
    monomial's action through intersections with complex flats; it is the
    euclidean c_l with t^l = c_l mu_l."""
    return t_mu_coefficient(l)
