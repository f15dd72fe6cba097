"""Weighted-graded commutative polynomial algebras with exact quotients.

A ``QuotientAlgebra`` is given by generator names with positive integer
weights, a normal-form basis {degree: monomials in display order} and a
reduction map taking every monomial up to the top degree D to its basis
coordinates; every monomial above D is zero.  The quotient does no linear
algebra of its own: its callers read the basis and the reduction map off a
perfect pairing (``hermitian.un_algebra``, ``spaceforms``), or write them
down (``euclid.so_algebra``).
"""

from __future__ import annotations

from fractions import Fraction

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
    """Truncated quotient of a weighted polynomial ring, given by its basis
    {degree: monomials in display order} and its reduction map {monomial:
    {basis monomial: coefficient}}, truncated at the top degree of the
    basis."""

    def __init__(self, names, weights, basis, reduction):
        self.gens = GeneratorSet(names, weights)
        self.truncation = max(basis)
        self.basis, self.reduction = basis, reduction
        self.basis_index = {d: {m: i for i, m in enumerate(ms)} for d, ms in basis.items()}

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
