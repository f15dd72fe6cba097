"""Weighted-graded commutative polynomial algebras with exact quotients.

A ``QuotientAlgebra`` is built from generator names with positive integer
weights, a list of ideal generators, and a truncation degree D above which
every monomial is zero.  Construction row-reduces the span of all ideal
multiples (each cut off at degree D) over Q, and keeps the non-pivot
monomials as the normal-form basis.  Rows are sparse, so the reduction
keeps to the degrees by itself: a multiple of a homogeneous generator holds
columns of one degree only, and one of a generator that mixes degrees (a
filtered quotient) holds only the degrees it spans.  The monomial order
eliminates high exponents of heavier generators first, so low-s monomials
survive as basis representatives.  ``from_normal_forms`` instead takes a
basis and a reduction map found another way.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import rref
from .scalars import Scalar, cell_coefficient


class GeneratorSet:
    """Ordered generator symbols with positive integer weights."""

    def __init__(self, names, weights):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        if len(names) != len(weights) or any(w < 1 for w in weights):
            raise ValueError("need one weight >= 1 per generator")
        self.names = names
        self.weights = weights

    def degree(self, mono):
        return sum(e * w for e, w in zip(mono, self.weights))

    def monomials_of_degree(self, d):
        """All exponent tuples of weighted degree exactly d."""
        out = []

        def rec(i, rem, acc):
            if i == len(self.weights) - 1:
                w = self.weights[i]
                if rem % w == 0:
                    out.append(tuple(acc + [rem // w]))
                return
            w = self.weights[i]
            for e in range(rem // w + 1):
                rec(i + 1, rem - e * w, acc + [e])

        if len(self.weights) == 0:
            return [()] if d == 0 else []
        rec(0, d, [])
        return out

    def elimination_key(self, mono):
        # heavier generators first, high exponents first: those monomials are
        # preferred as pivots, leaving low-weight monomials in the basis
        order = sorted(range(len(self.weights)),
                       key=lambda i: (-self.weights[i], i))
        return tuple(-mono[i] for i in order)

    def format_monomial(self, mono):
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            prod = c1 * c2
            out[m] = out[m] + prod if m in out else prod
    return {m: c for m, c in out.items() if c}


class GradedElement:
    """Sparse polynomial supported on the normal-form basis of its algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({self.algebra.gens.degree(m) for m in self.terms})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms[m] + c if m in terms else c
        return GradedElement(self.algebra, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GradedElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        return GradedElement(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GradedElement):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    __rmul__ = scale

    def __eq__(self, other):
        return isinstance(other, GradedElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((m, hash(c)) for m, c in self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        gens = self.algebra.gens
        bits = [f"({c})*{gens.format_monomial(m)}" for m, c in sorted(self.terms.items())]
        return " + ".join(bits)


class QuotientAlgebra:
    """Truncated quotient of a weighted polynomial ring.

    The ideal multiples are sparse rows {column: coefficient} over
    ``columns``, reduced by one ``rref``; its pivots are the monomials that
    leave the basis.  ``from_normal_forms`` builds the quotient from a basis
    and a reduction map computed another way.
    """

    def __init__(self, names, weights, ideal, truncation):
        self._grade(GeneratorSet(names, weights), int(truncation))
        gens, D, columns = self.gens, self.truncation, self.columns
        self.ideal = [dict(g) for g in ideal if g]
        col_index = {m: i for i, m in enumerate(columns)}

        rows = []
        for g in self.ideal:
            w = min(gens.degree(m) for m in g)
            for d in range(D - w + 1):
                for m in gens.monomials_of_degree(d):
                    # distinct generator monomials give distinct products,
                    # so no entry of the row is written twice
                    row = {}
                    for mg, c in g.items():
                        mm = mono_mul(m, mg)
                        if gens.degree(mm) <= D and c:
                            row[col_index[mm]] = c
                    if row:
                        rows.append(row)

        reduced, pivots = rref(rows, len(columns))
        pivot_set = set(pivots)

        basis = {d: [] for d in range(D + 1)}
        for i, m in enumerate(columns):
            if i not in pivot_set:
                basis[gens.degree(m)].append(m)
        for d in basis:
            # display order: low exponents of heavy generators first
            basis[d] = sorted(basis[d], key=lambda m: tuple(reversed(gens.elimination_key(m))))

        # reduction map: every monomial of degree <= D -> basis coordinates,
        # in column order whatever order the elimination left in a row
        reduction = {m: {m: Fraction(1)} for i, m in enumerate(columns)
                     if i not in pivot_set}
        for row, p in zip(reduced, pivots):
            reduction[columns[p]] = {columns[j]: -c for j, c in sorted(row.items()) if j != p}
        self.basis, self.reduction = basis, reduction
        self.basis_index = {d: {m: i for i, m in enumerate(ms)} for d, ms in basis.items()}

    @classmethod
    def from_normal_forms(cls, names, weights, basis, reduction):
        """The quotient with the given basis {degree: monomials in display
        order} and reduction map, truncated at the top degree; no ``ideal``."""
        self = cls.__new__(cls)
        self._grade(GeneratorSet(names, weights), max(basis))
        self.basis, self.reduction = basis, reduction
        self.basis_index = {d: {m: i for i, m in enumerate(ms)} for d, ms in basis.items()}
        return self

    def _grade(self, gens, truncation):
        """Every monomial up to the truncation, by degree in elimination order."""
        self.gens, self.truncation = gens, truncation
        self.columns = [m for d in range(truncation + 1)
                        for m in sorted(gens.monomials_of_degree(d), key=gens.elimination_key)]

    # -- the algebra interface --------------------------------------------

    def zero(self):
        return GradedElement(self, {})

    def one(self):
        unit = tuple(0 for _ in self.gens.names)
        return GradedElement(self, {unit: Fraction(1)})

    def element(self, terms):
        """Normal form of a raw {monomial exponent tuple: coefficient} dict."""
        return self.normal_form_raw(terms)

    def basis_element(self, d, i):
        return GradedElement(self, {self.basis[d][i]: Fraction(1)})

    def normal_form_raw(self, terms):
        """Normal form of {monomial: coefficient}; a monomial of degree above
        the truncation is zero."""
        out = {}
        for m, c in terms.items():
            if not c or self.gens.degree(m) > self.truncation:
                continue
            for bm, r in self.reduction[m].items():
                v = c * r
                out[bm] = out[bm] + v if bm in out else v
        return GradedElement(self, out)

    def multiply(self, x, y):
        return self.normal_form_raw(poly_mul(x.terms, y.terms))

    def hilbert_series(self):
        return [len(self.basis[d]) for d in range(self.truncation + 1)]

    def dimension(self, d):
        return len(self.basis[d])

    def coordinates(self, x, d):
        """Coordinate vector of the degree-d part of x on the degree-d basis."""
        idx = self.basis_index[d]
        vec = [Fraction(0)] * len(idx)
        for m, c in x.terms.items():
            if self.gens.degree(m) == d:
                vec[idx[m]] = c
        return vec

    def ideal_rows(self, monos):
        """Sparse rows e_m - nf(m), {position in ``monos``: coefficient}, one
        for each non-basis monomial m among ``monos``: these span the ideal
        there.  ``monos`` must hold every basis monomial those normal forms
        use (one degree of a homogeneous ideal, or all of ``columns``).  Over
        ``columns`` the rows are the reduced row echelon form of the ideal
        multiples."""
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for m in monos:
            if m in self.basis_index[self.gens.degree(m)]:
                continue
            row = {index[m]: Fraction(1)}
            for bm, c in self.reduction[m].items():
                row[index[bm]] = -c
            rows.append(row)
        return rows


class LinearFunctional:
    """Values on normal-form basis monomials; extended linearly to elements,
    which are in normal form already."""

    def __init__(self, values):
        self.values = dict(values)

    def __call__(self, x):
        total = None
        for m, c in x.terms.items():
            if m in self.values:
                v = c * self.values[m]
                total = v if total is None else total + v
        if total is None:
            return Scalar.zero()
        return total


class TensorTable:
    """Bidegree-indexed exact coefficients on basis x basis pairs.

    Legs are addressed as (degree, index) into per-degree ordered bases, and
    ``basis_labels`` names every index of every degree.  The table carries its
    group/normalization/basis tags so emitted documents are never ambiguous
    about conventions.  ``entries`` is the library view, {(left, right):
    coefficient}; ``cells`` is the one stream every format is written from.
    """

    def __init__(self, group, dim, normalization, basis, basis_labels,
                 entries=None):
        self.group = group
        self.dim = dim
        self.normalization = normalization
        self.basis = basis
        self.basis_labels = basis_labels
        self.entries = dict(entries or {})

    def add(self, left, right, coeff):
        """Store coeff as the (left, right) entry unless it is zero.  Every
        builder writes each entry once, so an entry already present raises
        ValueError."""
        key = (left, right)
        if key in self.entries:
            raise ValueError(f"table entry {key} written twice")
        if coeff:
            self.entries[key] = coeff

    def is_swap_symmetric(self):
        return all(self.entries.get((r, l)) == c
                   for (l, r), c in self.entries.items())

    def __eq__(self, other):
        return isinstance(other, TensorTable) and self.entries == other.entries

    def cells(self):
        """The entries sorted by bidegree and index, left leg first, each as
        (left degree, left index, right degree, right index, coefficient),
        the coefficient read by ``cell_coefficient``."""
        return sorted(left + right + (cell_coefficient(c),)
                      for (left, right), c in self.entries.items())

    def json_labels(self):
        """``basis_labels`` with every label quoted as a JSON string."""
        import json  # loaded with the emitters, which alone call this
        return {d: [json.dumps(x) for x in labels]
                for d, labels in self.basis_labels.items()}
