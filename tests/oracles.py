"""Slow reference implementations the fast paths are checked against.

GJK (Gilbert, Johnson and Keerthi 1988): a support-function search for the
point of the Minkowski difference nearest the origin, with tolerance 1e-10,
one pair of bodies at a time.  The Minkowski-sum volume is the volume of the
convex hull of all pairwise vertex sums.  The exact inverse of a matrix of
Scalars runs fraction-free Bareiss elimination entry by entry, without
splitting off a power of pi per block; it serves graded matrices, whose
minors are all single powers of pi.  The presentation checks are redone by
computing both subspaces exactly: the evaluation kernels by
``kernel_basis``, the ideals by row-reducing every truncated multiple of
their generators, built densely and summed entry by entry.  A quotient by
ideal generators is built by row-reducing their truncated multiples with
``rref`` (``RelationQuotient``, the constructor ``QuotientAlgebra`` had
before its callers read their algebras off a pairing): the U(n) algebra by
its two relations, and the lam = 1 complex space-form algebra by the curved
generators.  iota acts element by element on Scalars, through the formal
swap of t^2 and 4s - t^2 and ``normal_form_raw``.  The Haar
rotation sampler builds sample-major matrices from one draw per call: the
textbook circle and quaternion formulas for SO(2) and SO(3), Gram-Schmidt
with a fancy-index sign flip for n >= 4.  The planar Minkowski-area kernel
and the Crofton flat kernel are the sample-minor versions the Monte Carlo
estimators used before their sums were written out over per-entry vectors:
numpy reductions over the short matrix axes.  The kinematic kernels are the forms the
kinematic indicator used before it went sample-major: einsum closed forms
for a ball against a ball or a box, box pairs in center and half-width form,
and the other polytope pairs and a ball against a polytope as batched matrix
products of vertex and axis arrays.  A chunk's sum of squares is numpy's
pairwise sum of a squared copy.  The U(n) kinematic table is built product
by product, one algebra multiplication per basis element.  The U(n) display
bases come from the raw Tasaki rows reduced through normal forms, and above
the middle degree from the Fourier images of the complementary degree.  The
U(n) chi blocks and Tasaki matrices invert the pairing of the Tasaki basis
against its Fourier image, with the monomial Gram read off the reduction map
and the disk functional.  An SO(n) table in a display basis is built in two
passes: the table in its native basis, then a second table that scales each
entry by the diagonal change of basis of both legs.  A table's bytes come
from one dict per term with both labels and its coefficient as
``scalar_to_json`` data, dumped by ``emit_json``; CSV and LaTeX format the
sorted Scalar entries; a U(n) table writes its Scalar entries block by block.

Every oracle that reads rotations reads ``np.ascontiguousarray(rots)``:
einsum and matmul choose their summation order, and whether they fuse a
multiply and an add, from the strides of their operands, so the oracles
see the memory layout the old estimators saw.
"""

import csv
import io
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from intgeo import emitters

from intgeo.bodies import sample_blocks
from intgeo.euclid import SOValuation, _so_basis_coeff
from intgeo.graded import GeneratorSet, QuotientAlgebra, mono_mul
from intgeo.hermitian import (PiMatrix, _chi_block, _klain_columns, _UnTable, fk,
                              kinematic_un, tasaki_monomial_rows, un_model)
from intgeo.linalg import SingularMatrixError, identity, kernel_basis, rref
from intgeo.scalars import Scalar, alpha, binomial
from intgeo.spaceforms import _cp_gram, curved_ideal_generators

GJK_TOL = 1e-10


def support(body, d):
    """Farthest point of a ConvexBody (or a moved view) in direction d."""
    d = np.asarray(d, dtype=float)
    if body.kind == "ball":
        nrm = np.linalg.norm(d)
        if nrm == 0:
            return body.center_f()
        return body.center_f() + float(body.radius) * d / nrm
    verts = body.vertices_f()
    return verts[int(np.argmax(verts @ d))]


class MovedPolytope:
    """Vertex view of a rigidly moved polytope."""

    kind = "polytope"

    def __init__(self, vertices):
        self._v = np.asarray(vertices, dtype=float)
        self.dimension = self._v.shape[1]

    def vertices_f(self):
        return self._v


class MovedBall:
    kind = "ball"

    def __init__(self, center, radius):
        self._c = np.asarray(center, dtype=float)
        self.radius = radius
        self.dimension = len(self._c)

    def center_f(self):
        return self._c


def moved(body, x, rot, scale=1.0):
    """x + rot(body), optionally scaled about the body's center or vertex
    centroid, as a view the oracle can query."""
    if body.kind == "ball":
        return MovedBall(x + rot @ body.center_f(), scale * float(body.radius))
    v = body.vertices_f()
    if scale != 1.0:
        c = v.mean(axis=0)
        v = c + scale * (v - c)
    return MovedPolytope(x + v @ rot.T)


def _nearest_on_simplex(pts):
    """Closest point of the convex hull of pts (list of arrays) to the origin,
    with the supporting sub-simplex."""
    best = None
    for r in range(1, len(pts) + 1):
        for idx in combinations(range(len(pts)), r):
            sub = np.array([pts[i] for i in idx])
            if r == 1:
                coords = np.array([1.0])
            else:
                # barycentric coordinates of the projection of the origin
                diffs = sub[1:] - sub[0]
                g = diffs @ diffs.T
                rhs = -diffs @ sub[0]
                try:
                    sol = np.linalg.lstsq(g, rhs, rcond=None)[0]
                except np.linalg.LinAlgError:
                    continue
                coords = np.concatenate(([1.0 - sol.sum()], sol))
            if np.any(coords < -1e-12):
                continue
            point = coords @ sub
            d = float(np.dot(point, point))
            if best is None or d < best[0] - 1e-18:
                best = (d, point, [pts[i] for i in idx])
    return best[1], best[2]


def gjk_intersects(a, b, tol=GJK_TOL, max_iter=200):
    """Boolean convex intersection via support-function separation search."""
    def sup(d):
        return support(a, d) - support(b, -d)

    d0 = a.center_f() - b.center_f() if a.kind == "ball" and b.kind == "ball" \
        else np.ones(a.dimension)
    if not np.any(d0):
        d0 = np.ones(a.dimension)
    simplex = [sup(d0)]
    for _ in range(max_iter):
        v, simplex = _nearest_on_simplex(simplex)
        dist = float(np.linalg.norm(v))
        if dist <= tol:
            return True
        w = sup(-v)
        # every difference point x satisfies <x, v>/|v| >= <w, v>/|v|, a lower
        # bound on the distance to the origin
        lower = float(np.dot(w, v)) / dist
        if lower > tol:
            return False
        if dist - lower <= tol:
            return True
        simplex.append(w)
    return dist <= tol


def convex_hull_volume(points):
    from scipy.spatial import ConvexHull
    return float(ConvexHull(points).volume)


def minkowski_sum_volume(a_vertices, b_vertices):
    """Volume of the Minkowski sum of two convex polytopes (vertex lists)."""
    a = np.asarray(a_vertices, dtype=float)
    b = np.asarray(b_vertices, dtype=float)
    sums = (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])
    return convex_hull_volume(sums)


# -- Monte Carlo kernels over the short matrix axes ----------------------------

def gram_schmidt(g):
    """Orthonormalize the columns of batched n x n matrices (classical)."""
    m, n, _ = g.shape
    q = np.empty_like(g)
    for j in range(n):
        v = g[:, :, j].copy()
        for i in range(j):
            proj = np.sum(q[:, :, i] * g[:, :, j], axis=1, keepdims=True)
            v -= proj * q[:, :, i]
        nrm = np.sqrt(np.sum(v * v, axis=1, keepdims=True))
        q[:, :, j] = v / nrm
    return q


def random_rotations(n, gen, count):
    """Haar rotations, sample-major, from one Gaussian draw of count samples.

    SO(2): (c, s) scaled to the unit circle, [[c, -s], [s, c]].  SO(3): the
    unit quaternion (w, x, y, z) as Shoemake's matrix ("Uniform random
    rotations", Graphics Gems III, 1992), with s = 2 / |q|^2 and
    xy = x (y s) and so on.  n >= 4: Gram-Schmidt on an n x n draw, last
    column flipped where the determinant is negative.
    """
    if n == 2:
        q = gen.standard_normal((count, 2))
        c, s = (q / np.sqrt(np.sum(q * q, axis=1, keepdims=True))).T
        return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=1)
    if n == 3:
        q = gen.standard_normal((count, 4))
        w, x, y, z = q.T
        xs, ys, zs = (q[:, 1:] * (2.0 / np.sum(q * q, axis=1))[:, None]).T
        wx, wy, wz = w * xs, w * ys, w * zs
        xx, xy, xz = x * xs, x * ys, x * zs
        yy, yz, zz = y * ys, y * zs, z * zs
        rows = [[1.0 - (yy + zz), xy - wz, xz + wy],
                [xy + wz, 1.0 - (xx + zz), yz - wx],
                [xz - wy, yz + wx, 1.0 - (xx + yy)]]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=1)
    q = gram_schmidt(gen.standard_normal((count, n, n)))
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


def planar_minkowski_areas(ga, gb, rots):
    """area(A + R B) per rotation by the mixed-area support formula."""
    rots = np.ascontiguousarray(rots)
    normals = np.einsum("mij,kj->mki", rots, gb.facet_normals)
    h = np.max(np.einsum("vi,mki->mkv", ga.vertices, normals), axis=2)
    return ga.volumes[2] + gb.volumes[2] + np.einsum("mk,k->m", h, gb.facet_areas)


def flat_hits(a, dirs, normals, offsets):
    """Whether the affine flat {sum_t t_i d_i + sum_u u_j n_j} meets the body.

    dirs: (m, n-k, n) spanning directions; normals: (m, k, n) fiber frame;
    offsets: (m, k) coordinates in the fiber.
    """
    m = dirs.shape[0]
    n = dirs.shape[2]
    flat_dim = dirs.shape[1]
    base = np.einsum("mk,mkn->mn", offsets, normals)
    if a.kind == "ball":
        rel = a.center_f() - base
        tang = np.einsum("mfn,mn->mf", dirs, rel)
        closest = rel - np.einsum("mf,mfn->mn", tang, dirs)
        return np.einsum("mn,mn->m", closest, closest) <= float(a.radius) ** 2
    if a.kind == "box":
        if flat_dim == n - 1:
            # hyperplane with normal normals[:,0]: box straddles the offset
            u = normals[:, 0, :]
            c = (a.lo_f() + a.hi_f()) / 2
            h = (a.hi_f() - a.lo_f()) / 2
            centered = np.einsum("mn,n->m", u, c) - offsets[:, 0]
            reach = np.einsum("mn,n->m", np.abs(u), h)
            return np.abs(centered) <= reach
        if flat_dim == 1:
            # line base + t d against an axis-aligned box: slab clipping
            d = dirs[:, 0, :]
            lo = np.full(m, -np.inf)
            hi = np.full(m, np.inf)
            ok = np.ones(m, dtype=bool)
            for i in range(n):
                di = d[:, i]
                bi = base[:, i]
                par = np.abs(di) < 1e-14
                out = par & ((bi < a.lo_f()[i]) | (bi > a.hi_f()[i]))
                ok &= ~out
                with np.errstate(divide="ignore", invalid="ignore"):
                    t1 = (a.lo_f()[i] - bi) / di
                    t2 = (a.hi_f()[i] - bi) / di
                tlo = np.where(par, -np.inf, np.minimum(t1, t2))
                thi = np.where(par, np.inf, np.maximum(t1, t2))
                lo = np.maximum(lo, tlo)
                hi = np.minimum(hi, thi)
            return ok & (lo <= hi)
    raise ValueError(f"no flat test for body kind {a.kind!r} and "
                     f"flat dimension {flat_dim}")


def crofton_hits(a, k, rots, offsets):
    """``flat_hits`` of the flats the Crofton estimator draws: the first n - k
    columns of each rotation span the flat, the last k frame its fiber, and
    offsets (m, k) place it in the fiber."""
    rots = np.ascontiguousarray(rots)
    n = rots.shape[1]
    return flat_hits(a, np.transpose(rots[:, :, : n - k], (0, 2, 1)),
                     np.transpose(rots[:, :, n - k:], (0, 2, 1)), offsets)


def chunk_sums(vals):
    """(sum, sum of squares) of a chunk's value vector by numpy's pairwise
    sum, the squares taken into a new array."""
    return float(np.sum(vals)), float(np.sum(vals * vals))


# -- kinematic kernels over einsums and matrix products ---------------------------

def kinematic_hits(a, b, xs, rots):
    """Whether A meets x + R B: the einsum closed forms for a ball against a
    ball or a box, and the matrix-product kernels for every other pair,
    dispatched by kind as the kinematic indicator dispatched them."""
    rots = np.ascontiguousarray(rots)
    if a.kind == b.kind == "ball":
        centers = xs + np.einsum("mij,j->mi", rots, b.center_f())
        gap = centers - a.center_f()
        rr = float(a.radius) + float(b.radius)
        return np.einsum("mi,mi->m", gap, gap) <= rr * rr
    if a.kind == b.kind == "box":
        return hits_box_box(a, b, xs, rots)
    if a.kind == "ball":
        # the ball center in the moved body's frame
        ball, other = a, b
        centers = np.einsum("mji,mj->mi", rots, a.center_f() - xs)
    elif b.kind == "ball":
        ball, other = b, a
        centers = xs + np.einsum("mij,j->mi", rots, b.center_f())
    else:
        return hits_polytopes(a.geometry(), b.geometry(), xs, rots)
    radius = float(ball.radius)
    if other.kind == "box":
        gap = centers - np.clip(centers, other.lo_f(), other.hi_f())
        return np.einsum("mi,mi->m", gap, gap) <= radius ** 2
    return hits_ball_polytope(other.geometry(), centers, radius)



def hits_box_box(a, b, xs, rots):
    """Separating-axis test for an axis-aligned box against moved boxes, in
    center and half-width form, for n <= 3."""
    n = a.dimension
    ac = (a.lo_f() + a.hi_f()) / 2
    ah = (a.hi_f() - a.lo_f()) / 2
    bc = (b.lo_f() + b.hi_f()) / 2
    bh = (b.hi_f() - b.lo_f()) / 2
    centers = xs + np.einsum("mij,j->mi", rots, bc)
    diff = centers - ac
    m = len(xs)
    separated = np.zeros(m, dtype=bool)

    def test_axes(axes, valid=None):
        nonlocal separated
        # axes: (m, k, n), possibly unnormalized; zero axes carry no information
        proj_d = np.abs(np.einsum("mkn,mn->mk", axes, diff))
        ra = np.einsum("mkn,n->mk", np.abs(axes), ah)
        rb = np.einsum("mkj,j->mk", np.abs(np.einsum("mkn,mnj->mkj", axes, rots)), bh)
        sep = proj_d > ra + rb
        if valid is not None:
            sep &= valid
        separated |= np.any(sep, axis=1)

    eye = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    test_axes(eye)
    test_axes(np.transpose(rots, (0, 2, 1)))
    if n == 3:
        cross_axes = []
        for i in range(3):
            for j in range(3):
                e = np.zeros(3)
                e[i] = 1.0
                axis = np.cross(e[None, :], rots[:, :, j])
                cross_axes.append(axis)
        axes = np.stack(cross_axes, axis=1)
        norms = np.linalg.norm(axes, axis=2)
        valid = norms > 1e-9
        test_axes(axes, valid)
    return ~separated


def _separated(pa, pb):
    """Whether some axis strictly separates two point sets, given their
    projections (samples, points, axes); a zero axis projects everything to 0
    and never separates."""
    return ((pa.max(axis=1) < pb.min(axis=1))
            | (pb.max(axis=1) < pa.min(axis=1))).any(axis=1)


def _cross_axes(fixed, turned):
    """Columns e x f for every fixed e (p, 3) and every column f of turned
    (s, 3, q), as (s, 3, p * q): e x f is the skew matrix of e times f."""
    zero = np.zeros(len(fixed))
    x, y, z = fixed.T
    skew = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(-1, 3)
    s, _, q = turned.shape
    p = len(fixed)
    return (skew @ turned).reshape(s, p, 3, q).transpose(0, 2, 1, 3).reshape(s, 3, p * q)


def hits_polytopes(ga, gb, xs, rots):
    """Separating axes of a fixed polytope A against the moved x + R B.

    The facet normals of A and the rotated facet normals of B go first; in
    space, the samples they leave unseparated are then tested on the cross
    products of A's edge directions with B's rotated edge directions.
    Axes are columns: projections are (samples, points, axes).
    """
    m, n = xs.shape
    hits = np.empty(m, dtype=bool)
    count = len(ga.axes) + len(gb.axes) + len(ga.edge_dirs) * len(gb.edge_dirs)
    for lo, hi in sample_blocks(m, count * (len(ga.vertices) + len(gb.vertices))):
        r = rots[lo:hi]
        moved = xs[lo:hi, None, :] + gb.vertices @ np.transpose(r, (0, 2, 1))
        axes = np.concatenate([np.broadcast_to(ga.axes.T, (hi - lo, n, len(ga.axes))),
                               r @ gb.axes.T], axis=2)
        live = ~_separated(ga.vertices @ axes, moved @ axes)
        if len(ga.edge_dirs) and len(gb.edge_dirs):
            idx = np.flatnonzero(live)
            axes = _cross_axes(ga.edge_dirs, r[idx] @ gb.edge_dirs.T)
            live[idx] = ~_separated(ga.vertices @ axes, moved[idx] @ axes)
        hits[lo:hi] = live
    return hits


def hits_ball_polytope(g, centers, radius):
    """A fixed polytope against the balls B(c_m, radius), on the axes through
    every possible closest feature: facet normals, vertex-to-center
    directions and, in space, edge perpendiculars through the center."""
    m, n = centers.shape
    hits = np.empty(m, dtype=bool)
    count = len(g.axes) + len(g.vertices) + len(g.edge_points)
    for lo, hi in sample_blocks(m, count * (len(g.vertices) + 2)):
        c = centers[lo:hi, :, None]
        w = c - g.edge_points.T
        w -= (w * g.edge_units.T).sum(axis=1, keepdims=True) * g.edge_units.T
        axes = np.concatenate([np.broadcast_to(g.axes.T, (hi - lo, n, len(g.axes))),
                               c - g.vertices.T, w], axis=2)
        mid = (c * axes).sum(axis=1, keepdims=True)
        reach = radius * np.sqrt((axes * axes).sum(axis=1, keepdims=True))
        hits[lo:hi] = ~_separated(g.vertices @ axes,
                                  np.concatenate([mid - reach, mid + reach], axis=1))
    return hits


# -- exact products and inverses, entry by entry ----------------------------------

def mat_mul(a, b):
    """Matrix product over Q, one Fraction sum per entry."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def scalar_mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Scalar.zero()) for col in zip(*b)]
            for row in a]


def invert_exact_scalar(m):
    """Exact inverse of a matrix of Scalars (or rationals) by fraction-free
    Gauss-Jordan elimination on [M | I].

    Every intermediate entry is a minor of [M | I].  When entry (i, j) of M
    is a multiple of pi^(r_i + c_j), give column j of I the grade -r_j: then
    each minor is a single power of pi and every division is exact.  An
    ungraded M raises MixedPiGrading at the first sum of two powers."""
    n = len(m)
    zero, one = Scalar.zero(), Scalar.one()
    a = [[zero + x for x in row] + [one if j == i else zero for j in range(n)]
         for i, row in enumerate(m)]
    prev = one
    for k in range(n):
        piv = next((r for r in range(k, n) if not a[r][k].is_zero()), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        for i in range(n):
            if i == k:
                continue
            for j in range(2 * n):
                if j != k:
                    a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) / prev
            a[i][k] = zero
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return [[a[i][n + j] / det for j in range(n)] for i in range(n)]


# -- the relation quotient, row-reduced -------------------------------------

def monomials_of_degree(gens, d):
    """All exponent tuples of weighted degree exactly d."""
    out = []

    def rec(i, rem, acc):
        if i == len(gens.weights) - 1:
            w = gens.weights[i]
            if rem % w == 0:
                out.append(tuple(acc + [rem // w]))
            return
        w = gens.weights[i]
        for e in range(rem // w + 1):
            rec(i + 1, rem - e * w, acc + [e])

    if len(gens.weights) == 0:
        return [()] if d == 0 else []
    rec(0, d, [])
    return out


def elimination_key(gens, mono):
    # heavier generators first, high exponents first: those monomials are
    # preferred as pivots, leaving low-weight monomials in the basis
    order = sorted(range(len(gens.weights)),
                   key=lambda i: (-gens.weights[i], i))
    return tuple(-mono[i] for i in order)


def columns(gens, truncation):
    """Every monomial up to the truncation, by degree in elimination order."""
    return [m for d in range(truncation + 1)
            for m in sorted(monomials_of_degree(gens, d), key=lambda m: elimination_key(gens, m))]


class RelationQuotient(QuotientAlgebra):
    """The quotient by a list of ideal generators, as ``QuotientAlgebra``
    built it before its callers read the basis and the reduction map off a
    pairing.

    The ideal multiples (each cut off at the truncation degree D) are sparse
    rows {column: coefficient} over ``columns``, reduced by one ``rref``; its
    pivots are the monomials that leave the basis.  The monomial order
    eliminates high exponents of heavier generators first, so low-s
    monomials survive as basis representatives.
    """

    def __init__(self, names, weights, ideal, truncation):
        gens, D = GeneratorSet(names, weights), int(truncation)
        self.columns = cols = columns(gens, D)
        self.ideal = [dict(g) for g in ideal if g]
        col_index = {m: i for i, m in enumerate(cols)}

        rows = []
        for g in self.ideal:
            w = min(gens.degree(m) for m in g)
            for d in range(D - w + 1):
                for m in monomials_of_degree(gens, d):
                    # distinct generator monomials give distinct products,
                    # so no entry of the row is written twice
                    row = {}
                    for mg, c in g.items():
                        mm = mono_mul(m, mg)
                        if gens.degree(mm) <= D and c:
                            row[col_index[mm]] = c
                    if row:
                        rows.append(row)

        reduced, pivots = rref(rows, len(cols))
        pivot_set = set(pivots)

        basis = {d: [] for d in range(D + 1)}
        for i, m in enumerate(cols):
            if i not in pivot_set:
                basis[gens.degree(m)].append(m)
        for d in basis:
            # display order: low exponents of heavy generators first
            basis[d] = sorted(basis[d], key=lambda m: tuple(reversed(elimination_key(gens, m))))

        # reduction map: every monomial of degree <= D -> basis coordinates,
        # in column order whatever order the elimination left in a row
        reduction = {m: {m: Fraction(1)} for i, m in enumerate(cols)
                     if i not in pivot_set}
        for row, p in zip(reduced, pivots):
            reduction[cols[p]] = {cols[j]: -c for j, c in sorted(row.items()) if j != p}
        super().__init__(names, weights, basis, reduction)


def ideal_rows(alg, monos):
    """Sparse rows e_m - nf(m), {position in ``monos``: coefficient}, one
    for each non-basis monomial m among ``monos``: these span the ideal
    there.  ``monos`` must hold every basis monomial those normal forms
    use (one degree of a homogeneous ideal, or all of ``columns``).  Over
    ``columns`` the rows are the reduced row echelon form of the ideal
    multiples."""
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for m in monos:
        if m in alg.basis_index[alg.gens.degree(m)]:
            continue
        row = {index[m]: Fraction(1)}
        for bm, c in alg.reduction[m].items():
            row[index[bm]] = -c
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def un_relation_quotient(n):
    """The U(n) algebra as ``hermitian.un_algebra`` built it before it read
    its basis and reduction map off the disk pairing: the quotient by the
    relations f_(n+1) and f_(n+2), row-reduced by ``rref``."""
    return RelationQuotient(("s", "t"), (2, 1), [fk(n + 1), fk(n + 2)], 2 * n)


@lru_cache(maxsize=None)
def curved_relation_quotient(n):
    """``complex_space_form(n).at_one`` as it was built before it was read
    off the CP^n pairing: the quotient by the curved generators at lam = 1,
    row-reduced by ``rref``."""
    ideal = [{m: sum(cs.values(), Fraction(0)) for m, cs in g.items()}
             for g in curved_ideal_generators(n)]
    return RelationQuotient(("s", "t"), (2, 1), ideal, 2 * n)


# -- presentations checked by exact kernels -----------------------------------

def sparse_rows(rows):
    """Dense rows as {column: entry} rows without zeros."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def truncated_multiples(alg):
    """Dense rows over ``alg.columns`` of every multiple m * g of an ideal
    generator g of a ``RelationQuotient``, cut off at the truncation, zero
    rows included."""
    index = {m: i for i, m in enumerate(alg.columns)}
    rows = []
    for g in alg.ideal:
        w = min(alg.gens.degree(m) for m in g)
        for d in range(alg.truncation - w + 1):
            for m in monomials_of_degree(alg.gens, d):
                row = [Fraction(0)] * len(alg.columns)
                for mg, c in g.items():
                    mm = mono_mul(m, mg)
                    if alg.gens.degree(mm) <= alg.truncation:
                        row[index[mm]] += c
                rows.append(row)
    return rows


def cp_evaluation_kernel(n):
    """The kernel ideal of projective-space evaluations at lam = 1: all
    truncated polynomials annihilated by every monomial pairing."""
    cols = curved_relation_quotient(n).columns
    vecs = kernel_basis(_cp_gram(n, cols, cols), len(cols))
    return [{cols[j]: c for j, c in v.items()} for v in vecs]


def curved_ideal_exact_route(n):
    """(ok, dims) of the curved-ideal check with both sides row-reduced: the
    truncated multiples of the lam = 1 generators, and the exact kernel of
    projective-space evaluations.  dims counts the ideal's pivots by degree."""
    alg = curved_relation_quotient(n)
    cols = alg.columns
    index = {m: i for i, m in enumerate(cols)}
    red_b, piv_b = rref(sparse_rows(truncated_multiples(alg)), len(cols))
    kernel = [{index[m]: c for m, c in v.items()} for v in cp_evaluation_kernel(n)]
    red_c, piv_c = rref(kernel, len(cols))
    dims = {}
    for p in piv_b:
        d = alg.gens.degree(cols[p])
        dims[d] = dims.get(d, 0) + 1
    return red_b == red_c and piv_b == piv_c, dims


def un_evaluation_kernel_quotient(n):
    """The U(n) algebra presented as the quotient by the kernel, degree by
    degree, of the pairing against disk evaluations."""
    gens = GeneratorSet(("s", "t"), (2, 1))
    ideal = []
    for d in range(2 * n + 1):
        cols = monomials_of_degree(gens, d)
        block = [[Fraction(binomial(b + b2, n - a - a2)) for a, b in cols]
                 for a2, b2 in monomials_of_degree(gens, 2 * n - d)]
        for vec in kernel_basis(block, len(cols)):
            ideal.append({cols[j]: c for j, c in vec.items()})
    return RelationQuotient(("s", "t"), (2, 1), ideal, 2 * n)


# -- the U(n) iota, element by element ----------------------------------------------

def basis_elements(model, degrees):
    return [model.alg.basis_element(k, i)
            for k in degrees for i in range(model.alg.dimension(k))]


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
            tu[key] = tu.get(key, 0) + c * ci
    raw = {}
    for (tpow, upow), c in tu.items():
        for j in range(upow + 1):
            cj = Fraction(binomial(upow, j) * 4 ** j * (-1) ** (upow - j))
            mono = (j, 2 * tpow + 2 * (upow - j))
            raw[mono] = raw.get(mono, 0) + c * cj
    return raw


def iota(model, x):
    """The involution exchanging t^2 and 4s - t^2 on an even-degree element,
    through the formal swap and ``normal_form_raw``."""
    return model.alg.normal_form_raw(iota_raw(x.terms))


# -- the U(n) kinematic table, product by product -------------------------------

def kinematic_un_products(n, phi=None):
    """The kinematic table of phi built as ``hermitian.kinematic_un`` was
    before it read its blocks off the reduction map: for every basis element
    of every source degree k, the product with phi through
    ``QuotientAlgebra.multiply`` (``poly_mul`` and ``normal_form_raw`` over
    Scalars), its coordinates per target degree d, and the block
    (d, 2n - k) as those rows, transposed, times the chi block of degree k."""
    alg = un_model(n).alg
    if phi is None:
        phi = alg.one()
    blocks = {}
    for k in range(2 * n + 1):
        kr = 2 * n - k
        dim = alg.dimension(k)
        mult = {}
        for a in range(dim):
            prod = alg.multiply(phi, alg.basis_element(k, a))
            for d in prod.degrees():
                if d not in mult:
                    mult[d] = [[Fraction(0)] * alg.dimension(d) for _ in range(dim)]
                mult[d][a] = alg.coordinates(prod, d)
        for d, rows in mult.items():
            blocks[d, kr] = PiMatrix.read(rows).T @ _chi_block(n, k)
    return _UnTable(n, blocks)


# -- the U(n) display bases, through normal forms --------------------------------

def display_route(n):
    """({(k, tag): PiMatrix}, {k: PiMatrix}): the display rows and Fourier
    matrices of U(n) as ``hermitian`` built them before it read both off the
    Klain coordinates.  Up to the middle degree the Tasaki rows are the raw
    Tasaki expansions with each monomial reduced through ``normal_form_raw``,
    the hermitian rows are mu_{k,q} = sum_l (-1)^(l-q) C(l,q) tau_{k,l}, and
    the Fourier matrix is src . dst^-1 for the sigma-coordinates of the
    degree-k and degree-(2n-k) monomials.  Above the middle the Fourier matrix
    is the inverse of the complementary one, and a display row is the Fourier
    image of the complementary degree's row."""
    alg = un_model(n).alg
    fourier, display = {}, {}
    for k in range(n + 1):
        fourier[k] = _klain_columns(n, k) @ _klain_columns(n, 2 * n - k).inverse()
        monos = [(a, k - 2 * a) for a in range(k // 2 + 1)]
        raw = PiMatrix.read([[row.get(m, 0) for m in monos]
                             for row in tasaki_monomial_rows(k)])
        reduce = [alg.coordinates(alg.normal_form_raw({m: Fraction(1)}), k)
                  for m in monos]
        display[k, "tasaki"] = raw @ PiMatrix.read(reduce)
        change = [[Fraction((-1) ** (l - q) * binomial(l, q)) for l in range(len(monos))]
                  for q in range(len(monos))]
        display[k, "hermitian"] = PiMatrix.read(change) @ display[k, "tasaki"]
    for k in range(n + 1, 2 * n + 1):
        fourier[k] = fourier[2 * n - k].inverse()
        for tag in ("tasaki", "hermitian"):
            display[k, tag] = display[2 * n - k, tag] @ fourier[2 * n - k]
    for k in range(2 * n + 1):
        display[k, "monomial"] = PiMatrix(0, identity(alg.dimension(k)))
    return display, fourier


# -- the U(n) chi blocks, through the Tasaki pairing -------------------------------

def pairing_route(n):
    """({k: PiMatrix}, {k: PiMatrix}) for k <= n: the chi blocks (k, 2n - k)
    and the Tasaki matrices as ``hermitian`` built them before it inverted
    the integer disk Gram.  G[a][b] = ev(m_a m_b) over the basis monomials of
    degrees k and 2n - k, read off the reduction map and ``model.ev``; with L
    and R the Tasaki rows of both degrees, L G R^T must be symmetric, the
    Tasaki matrix is its inverse, and the chi block is L^T inv R."""
    model = un_model(n)
    alg = model.alg
    (top, value), = model.ev.values.items()
    chi, tasaki = {}, {}
    for k in range(n + 1):
        gram = PiMatrix.read([[value * alg.reduction[mono_mul(ma, mb)].get(top, 0)
                               for mb in alg.basis[2 * n - k]]
                              for ma in alg.basis[k]])
        left = model.display(k, "tasaki")
        right = model.display(2 * n - k, "tasaki")
        mat = left @ gram @ right.T
        assert mat.m == mat.T.m, f"pairing matrix not symmetric, n={n}, k={k}"
        tasaki[k] = mat.inverse()
        chi[k] = left.T @ tasaki[k] @ right
    return chi, tasaki


# -- the additive U(n) table, through two congruences ------------------------------

def _blocks(n, entries):
    """The bidegree blocks of a U(n) table's entries as {(dl, dr): PiMatrix}."""
    dim = un_model(n).alg.dimension
    rows = {}
    for ((dl, i), (dr, j)), c in entries.items():
        if (dl, dr) not in rows:
            rows[dl, dr] = [[0] * dim(dr) for _ in range(dim(dl))]
        rows[dl, dr][i][j] = c
    return {key: PiMatrix.read(block) for key, block in rows.items()}


def _congruence_entries(blocks, leg):
    """The Scalar entries of the blocks A^T C B, leg(d) = (d', A)."""
    out = {}
    for (dl, dr), c in blocks.items():
        (tl, a), (tr, b) = leg(dl), leg(dr)
        for i, row in enumerate((a.T @ c @ b).scalars()):
            out.update((((tl, i), (tr, j)), v) for j, v in enumerate(row) if v)
    return out


def display_congruence(n, entries, basis):
    """Canonical-coordinate entries of a U(n) table in a display basis, as
    ``convert_un_table`` wrote them when it read the blocks back off a
    table's Scalar entries: every block C becomes A^T C A' for the display
    inverses A, A' of its degrees."""
    if basis == "monomial":
        return entries
    model = un_model(n)
    return _congruence_entries(_blocks(n, entries),
                               lambda d: (d, model.display_inverse(d, basis)))


def additive_two_congruences(n, phi):
    """{basis: entries} of the additive table of phi in every display basis,
    as ``additive_un`` and ``convert_un_table`` wrote them before a table
    kept its blocks: the kinematic table of Fourier(phi), conjugated by the
    Fourier matrices onto degrees 2n - d and written as Scalars, then read
    back and conjugated by the display inverses."""
    model = un_model(n)
    kin = kinematic_un(n, model.fourier(phi)).entries
    add = _congruence_entries(_blocks(n, kin),
                              lambda d: (2 * n - d, model.fourier_matrix(d)))
    return {basis: display_congruence(n, add, basis)
            for basis in ("monomial", "tasaki", "hermitian")}


# -- SO(n) tables, native basis first ----------------------------------------------

def so_two_pass(table, n, phi=None, basis="t", normalization="standard"):
    """The entries of ``euclid.kinematic_so`` (table "kinematic") or
    ``euclid.additive_so`` ("additive") as ``euclid`` built them before it
    wrote each entry once in its basis: first the table in its native basis
    (t for the kinematic table, psi for the additive one), then a second
    table whose entry (a, b) is the native one times s_a s_b, with
    s_d = c(native, d) / c(basis, d) for basis_d = c(basis, d) t^d."""
    native = {}
    if table == "kinematic":
        src, phi = "t", phi or SOValuation.chi(n)
        factor = (alpha(n) * Fraction(1, 2 ** (n + 1)) if normalization == "standard"
                  else Scalar.one())
        for c, coeff in phi.t_coeffs().items():
            for a in range(c, n + 1):
                native[a, n + c - a] = factor * coeff
    else:
        src, phi = "psi", phi or SOValuation.volume(n)
        for k, coeff in phi.in_basis("psi").items():
            for i in range(k + 1):
                native[i, k - i] = coeff * binomial(k, i)
    if basis == src:
        return {((a, 0), (b, 0)): v for (a, b), v in native.items()}
    scale = [_so_basis_coeff(n, src, d) * _so_basis_coeff(n, basis, d).inverse()
             for d in range(n + 1)]
    return {((a, 0), (b, 0)): v * scale[a] * scale[b] for (a, b), v in native.items()}


# -- table bytes, through one dict per term ------------------------------------------

def scalar_text(s):
    """A rational, a Scalar or a curvature entry {lam_pow: Scalar} as CSV
    text, formatted from the Scalar itself."""
    if isinstance(s, (int, Fraction)):
        s = Scalar.from_rational(s)
    if isinstance(s, dict):
        return " + ".join(
            f"({scalar_text(c)})" + ("" if j == 0 else f"*lam^{j}")
            for j, c in sorted(s.items())) or "0"
    c, p = s.coeff, s.pi_pow
    frac = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return frac if p == 0 else f"{frac}*pi^{p}"


def _latex_frac(c):
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c.numerator < 0 else ""
    return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def scalar_to_latex(s):
    if isinstance(s, (int, Fraction)):
        s = Scalar.from_rational(s)
    if isinstance(s, dict):
        bits = []
        for j, c in sorted(s.items()):
            lam = "" if j == 0 else ("\\lambda" if j == 1 else f"\\lambda^{{{j}}}")
            bits.append(f"\\left({scalar_to_latex(c)}\\right){lam}")
        return " + ".join(bits) or "0"
    frac, p = _latex_frac(s.coeff), s.pi_pow
    if p == 0:
        return frac
    return f"{frac}\\,\\pi" if p == 1 else f"{frac}\\,\\pi^{{{p}}}"


def sorted_items(table):
    """A table's entries sorted by bidegree and index, left leg first."""
    return sorted(table.entries.items(), key=lambda kv: kv[0])


def table_rows(table):
    """The entries sorted by bidegree and index, each as (left degree, left
    index, left label, right degree, right index, right label, coefficient)."""
    labels = table.basis_labels
    for ((ld, li), (rd, ri)), c in sorted_items(table):
        yield ld, li, labels[ld][li], rd, ri, labels[rd][ri], c


def table_document(table):
    """FormulaTableDocument: a pure-data view of a coefficient table."""
    return {
        "group": table.group,
        "dimension": table.dim,
        "normalization": table.normalization,
        "basis": table.basis,
        "terms": [{"left_degree": ld, "left_index": li, "left_label": ll,
                   "right_degree": rd, "right_index": ri, "right_label": rl,
                   "coefficient": emitters.scalar_to_json(c)}
                  for ld, li, ll, rd, ri, rl, c in table_rows(table)],
    }


def table_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "dimension", "normalization", "basis",
                     "left_degree", "left_index", "left_label",
                     "right_degree", "right_index", "right_label", "coefficient"])
    tags = [table.group, table.dim, table.normalization, table.basis]
    for *legs, c in table_rows(table):
        writer.writerow(tags + legs + [scalar_text(c)])
    return buf.getvalue().encode()


def table_latex(table):
    lines = [
        f"% group {table.group}, dimension {table.dim}, "
        f"normalization {table.normalization}, basis {table.basis}",
        "\\begin{array}{lll}",
        "\\text{left} & \\text{right} & \\text{coefficient} \\\\",
    ]
    for _, _, left, _, _, right, c in table_rows(table):
        lines.append(f"{left} & {right} & {scalar_to_latex(c)} \\\\")
    lines.append("\\end{array}")
    return ("\n".join(lines) + "\n").encode()


def table_bytes(table, fmt):
    """What ``emitters.emit_table`` wrote before every format read the
    table's cells: the JSON document through ``emit_json``, and CSV and LaTeX
    formatted from the sorted Scalar entries."""
    if fmt == "json":
        return emitters.emit_json(table_document(table))
    return {"csv": table_csv, "latex": table_latex}[fmt](table)


def un_block_entries(table):
    """The Scalar entries of a U(n) table as ``_UnTable.entries`` wrote them
    before it read ``cells``: block by block, one Scalar(Fraction(v, d), e)
    per nonzero integer v of the block pi^e m / d."""
    out = {}
    for dl, dr in table.blocks:
        tl, tr = table._across(dl), table._across(dr)
        block = table.block(tl, tr)
        out.update((((tl, i), (tr, j)), Scalar(Fraction(v, block.d), block.e))
                   for i, row in enumerate(block.m) for j, v in enumerate(row) if v)
    return out
