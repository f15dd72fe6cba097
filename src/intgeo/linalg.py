"""Exact linear algebra over Q.

Two routines carry the whole load: a fraction-free (Bareiss) inverse used for
the Poincare-pairing and basis-change matrices, and reduced row echelon form
used to build quotient-algebra normal forms.  The row reduction splits the
columns into the independent blocks of the rows' nonzero pattern and reduces
each block densely.  Matrices are plain lists of lists of Fractions (ints are
accepted).
"""

from __future__ import annotations

import math
from fractions import Fraction


class SingularMatrixError(ArithmeticError):
    """Raised when an exact inverse does not exist.  Never regularized."""


def _is_zero(x):
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _scaled(vec):
    """(d, ints) with vec = ints / d and d the least common denominator."""
    d = math.lcm(*(x.denominator for x in vec)) if vec else 1
    return d, [x.numerator * (d // x.denominator) for x in vec]


def mat_mul(a, b):
    """Matrix product over Q in integer arithmetic: every row of ``a`` and
    column of ``b`` is scaled to integers, and each entry is one division."""
    cols = [_scaled(col) for col in zip(*b)]
    out = []
    for row in a:
        da, ia = _scaled(row)
        out.append([Fraction(sum(x * y for x, y in zip(ia, ib) if x), da * db)
                    for db, ib in cols])
    return out


def invert_exact(m):
    """Exact inverse of a square matrix over Q.

    Each row is scaled to integers (A = D M with D diagonal), and a
    fraction-free (Bareiss) Gauss-Jordan pass on [A | D] runs in Python
    integers, where every division is exact.  It ends with det(A) on the
    diagonal and det(A) A^-1 D = det(A) M^-1 on the right.  Raises
    SingularMatrixError when no pivot can be found -- callers treat that as
    a hard bug (wrong basis or functional), so no fallback is attempted.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("invert_exact needs a square matrix")
    a = []
    for i, row in enumerate(m):
        den, ints = _scaled(row)
        a.append(ints + [den if j == i else 0 for j in range(n)])
    width = 2 * n
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
            for j in range(width):
                if j != k:
                    ai[j] = (d * ai[j] - f * pk[j]) // prev
            ai[k] = 0
        prev = d
    det = a[n - 1][n - 1] if n else 1
    return [[Fraction(a[i][n + j], det) for j in range(n)] for i in range(n)]


def _rref_dense(rows, ncols):
    """Gauss-Jordan reduction of one dense block, column by column.

    Returns (reduced_rows, pivot_columns); zero rows never become pivot rows,
    so they are dropped.  A pivot row is zero left of its pivot, and row
    operations touch only the pivot row's nonzero columns.
    """
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        support = [j for j in range(c, ncols) if prow[j]]
        inv = prow[c]
        for j in support:
            prow[j] = prow[j] / inv
        for i in range(len(work)):
            row = work[i]
            if i != r and row[c]:
                f = row[c]
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rref(rows, ncols):
    """Reduced row echelon form over Q.

    Returns (reduced_rows, pivot_columns).  Zero rows are dropped.

    Two columns are linked when some row is nonzero in both; row operations
    never leave a connected component of these links, so each component is
    reduced on its own and its rows are expanded back to full width.  RREF is
    unique for a fixed column order, so the result equals the reduction of
    the whole matrix at once.  The components of a homogeneous ideal are its
    degrees; those of the lam-filtered ideals are the two parities.
    """
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supported = []
    for row in rows:
        cols = [j for j, x in enumerate(row) if x]
        if cols:
            supported.append((row, cols[0]))
            root = find(cols[0])
            for j in cols[1:]:
                parent[find(j)] = root

    block_cols = {}
    for c in range(ncols):
        block_cols.setdefault(find(c), []).append(c)
    block_rows = {}
    for row, first in supported:
        block_rows.setdefault(find(first), []).append(row)

    out = []
    for root, members in block_rows.items():
        cols = block_cols[root]
        reduced, pivots = _rref_dense([[row[j] for j in cols] for row in members],
                                      len(cols))
        for sub, p in zip(reduced, pivots):
            full = [Fraction(0)] * ncols
            for j, x in zip(cols, sub):
                full[j] = x
            out.append((cols[p], full))
    out.sort(key=lambda item: item[0])
    return [full for _, full in out], [p for p, _ in out]


def kernel_basis(matrix, ncols):
    """Basis of the right null space of ``matrix`` (rows over Q)."""
    reduced, pivots = rref(matrix, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis
