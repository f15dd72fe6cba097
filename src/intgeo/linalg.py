"""Exact linear algebra over the coefficient rings.

Two routines carry the whole load: a fraction-free (Bareiss) inverse used for
the Poincare-pairing matrices, and reduced row echelon form over Q used to
build quotient-algebra normal forms.  The row reduction splits the columns
into the independent blocks of the rows' nonzero pattern and reduces each
block densely.  Matrices are plain lists of lists.  The inverse needs only
ring operators (+, -, *), equality with 0 via ``is_zero``/falsiness, and
``exact_div``; the row reduction takes Fraction entries.
"""

from __future__ import annotations

from fractions import Fraction


class SingularMatrixError(ArithmeticError):
    """Raised when an exact inverse does not exist.  Never regularized."""


def _is_zero(x):
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def _exact_div(a, b):
    if hasattr(a, "exact_div"):
        return a.exact_div(b)
    return a / b


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, zero):
    rows, mid, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = zero
            for k in range(mid):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def invert_exact(m, one, zero):
    """Exact inverse by fraction-free Gaussian elimination.

    Runs a Bareiss-style Gauss-Jordan pass on [M | I]; every division along
    the way is exact in the entry ring, so the routine works verbatim over
    Q, Q[pi,pi^-1] and Q[lam].  Raises SingularMatrixError when no pivot can
    be found -- callers treat that as a hard bug (wrong basis or functional),
    so no fallback is attempted.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("invert_exact needs a square matrix")
    a = [list(row) + identity(n, one, zero)[i] for i, row in enumerate(m)]
    width = 2 * n
    prev = one
    for k in range(n):
        piv = next((r for r in range(k, n) if not _is_zero(a[r][k])), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        for i in range(n):
            if i == k:
                continue
            for j in range(width):
                if j == k:
                    continue
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = _exact_div(num, prev)
            a[i][k] = zero
        prev = a[k][k]
    det = a[n - 1][n - 1]
    if _is_zero(det):
        raise SingularMatrixError("matrix is singular")
    return [[_exact_div(a[i][n + j], det) for j in range(n)] for i in range(n)]


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
