"""Exact linear algebra over Q.

Two routines carry the load: a fraction-free (Bareiss) inverse used for the
Poincare-pairing and basis-change matrices (in integers, as c and c times
the inverse, c the determinant up to sign), and a certificate that given
rows span a matrix's kernel (exact containment plus ranks modulo a prime),
used to check presentations against evaluation kernels, with a rank bound
taken the same way.  Reduced row echelon form serves only when a rank
modulo the prime falls short, and the test oracles.  Matrices are plain lists
of lists of Fractions (ints are accepted).  The rows that row reduction
takes and returns, and the vectors of a kernel, are sparse: mappings
{column: entry}.
"""

from __future__ import annotations

import math
from fractions import Fraction


class SingularMatrixError(ArithmeticError):
    """Raised when an exact inverse does not exist.  Never regularized."""


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _scaled(vec):
    """(d, ints) with vec = ints / d and d the least common denominator."""
    d = math.lcm(*(x.denominator for x in vec)) if vec else 1
    return d, [x.numerator * (d // x.denominator) for x in vec]


def invert_integer(m):
    """(c, c m^-1) with c = +-det(m) for a square matrix of ints, all in
    integers: fraction-free (Bareiss) Gauss-Jordan on [m | I], where every
    division is exact and the sign of c follows the row swaps.  Raises
    SingularMatrixError when no pivot can be found -- callers treat that as
    a hard bug (wrong basis or functional), so no fallback is attempted."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("invert_integer needs a square matrix")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        pk = a[k]
        d = pk[k]
        for i in range(n):
            if i == k:
                continue
            ai = a[i]
            f = ai[k]
            for j in range(2 * n):
                if j != k:
                    ai[j] = (d * ai[j] - f * pk[j]) // prev
            ai[k] = 0
        prev = d
    return (a[n - 1][n - 1] if n else 1), [row[n:] for row in a]


def rref(rows, ncols):
    """Reduced row echelon form over Q of sparse rows {column: int or Fraction}.

    Fraction-free Gauss-Jordan, column by column, on the rows scaled to
    integers: a remaining row that holds the column is the pivot row prow,
    and every other row r holding it becomes p r - f prow over its gcd (p, f
    the column's entries).  Rows that share no column (two degrees of a
    homogeneous ideal) never meet.  Returns (reduced, pivots): Fraction rows
    in column order, without stored zeros, each over its pivot entry, in
    the order of their ascending pivots.  Zero rows are dropped.
    """
    rest = [dict(zip(r, _scaled(list(r.values()))[1]))
            for r in ({j: x for j, x in row.items() if x} for row in rows) if r]
    reduced, pivots = [], []
    for c in range(ncols):
        i = next((i for i, r in enumerate(rest) if c in r), None)
        if i is None:
            continue
        prow = rest.pop(i)
        p = prow[c]
        for row in reduced + rest:
            f = row.get(c)
            if f:
                for j in row:
                    row[j] *= p
                for j, x in prow.items():
                    v = row.get(j, 0) - f * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                g = math.gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
        reduced.append(prow)
        pivots.append(c)
    return [{j: Fraction(x, prow[c]) for j, x in sorted(prow.items())}
            for prow, c in zip(reduced, pivots)], pivots


def kernel_basis(matrix, ncols):
    """Basis of the right null space of a dense ``matrix`` (rows over Q), as
    sparse vectors {column: Fraction}: one per non-pivot column f, with 1 at
    f and minus the reduced rows' f-entries at their pivots."""
    reduced, pivots = rref([{j: x for j, x in enumerate(row) if x}
                            for row in matrix], ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = {f: Fraction(1)}
        for row, p in zip(reduced, pivots):
            if f in row:
                v[p] = -row[f]
        basis.append(v)
    return basis


# Kernel certificates take ranks modulo this prime.  The rank modulo a prime
# never exceeds the rank over Q, so an unlucky prime can only send a
# certificate to its exact comparison, never make it wrong.
CERTIFICATE_PRIME = 2 ** 61 - 1


def _rank_mod_p(rows, ncols, p):
    """Rank of an integer matrix modulo the prime p, by forward elimination.

    Columns are eliminated sparsest first, which leaves the rank unchanged
    and keeps fill-in low.  Row updates skip the reduction modulo p: each
    adds less than p^2 in absolute value, so entries stay small, and a row is
    reduced when it is tested for a pivot or becomes one.
    """
    counts = [sum(1 for row in rows if row[j] % p) for j in range(ncols)]
    order = sorted(range(ncols), key=counts.__getitem__)
    work = [[row[j] % p for j in order] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] % p), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        prow[c:] = [x % p for x in prow[c:]]
        inv = pow(prow[c], -1, p)
        support = [(j, prow[j]) for j in range(c + 1, ncols) if prow[j]]
        for row in work[rank + 1:]:
            f = row[c] % p
            if f:
                f = f * inv % p
                for j, y in support:
                    row[j] -= f * y
                row[c] = 0
        rank += 1
        if rank == len(work):
            break
    return rank


def kernel_equals_span(matrix, rows, ncols):
    """Certify that the right null space of the dense ``matrix`` is spanned
    by the sparse ``rows`` ({column: entry} mappings), which need not be
    independent.

    Every row of either side is scaled to integers, which changes neither
    the kernel nor the span.  Returns

    * False when ``matrix . v != 0`` for some row v -- an exact test;
    * True when every row lies in the kernel and the ranks of the rows and
      of the matrix modulo CERTIFICATE_PRIME add up to ``ncols``: then
      dim ker = ncols - rank(matrix) <= rank(rows), so the rows span the
      kernel;
    * otherwise a rank modulo the prime falls short, which an unlucky prime
      can cause as well as a kernel larger than the span, and the verdict is
      whether the exact kernel and the rows have the same reduced form.
    """
    mat = [_scaled(row)[1] for row in matrix]
    dense = []
    for v in rows:
        support = dict(zip(v, _scaled(list(v.values()))[1]))
        if any(sum(row[j] * x for j, x in support.items()) for row in mat):
            return False
        dense.append([support.get(j, 0) for j in range(ncols)])
    p = CERTIFICATE_PRIME
    if _rank_mod_p(dense, ncols, p) + _rank_mod_p(mat, ncols, p) == ncols:
        return True
    return rref(kernel_basis(matrix, ncols), ncols) == rref(rows, ncols)


def rank_at_least(rows, ncols, r):
    """Whether the sparse ``rows`` ({column: entry} mappings) have rank at
    least r over Q: by their rank modulo CERTIFICATE_PRIME, which never
    exceeds it, or else by their reduced form."""
    dense = [_scaled([v.get(j, 0) for j in range(ncols)])[1] for v in rows]
    return _rank_mod_p(dense, ncols, CERTIFICATE_PRIME) >= r or len(rref(rows, ncols)[1]) >= r
