"""Monte Carlo verification of the exact euclidean tables.

Every estimator takes ``ConvexBody`` arguments and integrates an indicator
(or a closed-form integrand) against a product measure that dominates the
support exactly, so the estimators are unbiased.  Each run carries its
prediction and a z-score: exact from the intrinsic volumes of balls, boxes
and single points (``ConvexBody.exact_intrinsic_volume``), a float from the
facet and edge data of any other polytope.

Randomness comes from the counter-based Philox generator.  A run is split
into fixed-size chunks, which every estimator runs through ``_map_chunks``:
chunk c draws from its own generator ``Philox(key=seed).jumped(c)``, the
chunks run concurrently on a thread pool with one worker per usable CPU, and
their partial sums are reduced in chunk order.  Inside a chunk the draws
keep their order, and the kernels then run over slices of ROTATION_BLOCK
samples, elementwise, while the float sums over a chunk stay on the whole
chunk vector: ``_chunk_sums`` takes the sum and the sum of squares as numpy
pairwise sums, with no BLAS call.  So a result depends only on
``(seed, samples)``, not on the thread count.
Rotations follow Shoemake ("Uniform random rotations", Graphics Gems III,
1992): a normalized Gaussian vector is uniform on its sphere, so SO(2) comes
from a point of the unit circle (two normals per rotation) and SO(3) from a
unit quaternion (four normals; S^3 covers SO(3) twice), each written in
closed form.  n >= 4 orthonormalizes an n x n Gaussian matrix by explicit
Gram-Schmidt and flips the determinant to +1.  Each rotation's normals are
consecutive in its chunk's stream.

The rotation sampler works entry-major: it writes a buffer of shape
(n, n, count) whose entry (i, j) is one contiguous vector over the samples
of a chunk, and hands out the sample-major view (count, n, n) of that
buffer without copying.  The kernels read rotations through those entry
vectors, ``rots[:, i, j]``, and write every short inner product out as a
left-to-right sum of elementwise products (``bodies._project``).  That is
the order numpy's reductions over the short matrix axes used, so the bits
match the older sample-minor code (pinned against it in ``tests/oracles.py``).
einsum and matmul pick their summation order from the strides of their
operands, so the two kept here read contiguous arrays: the weighted sum over
the edges in the planar kernel (einsum splits it into interleaved partial
sums, and a loop would round differently), and the matrix products of
``minkowski_volumes``, which copies its rotations sample-major first.  The
separating-axis kernels of ``bodies`` work the same way; their projections
round differently from the older matrix products, but every hit decision is
pinned against those in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import euclid
from .bodies import ConvexBody, _project, kinematic_indicator, sample_blocks
from .scalars import omega

CHUNK = 1 << 17
# Samples the rotation sampler writes at once, and the kernels of a chunk
# take at once, so that their blocks and temporaries stay in cache.
ROTATION_BLOCK = 1 << 14

# Fewest samples the estimators that take their stderr from the sample
# variance (cauchy, additive) serve.  With fewer, that variance can come out
# arbitrarily small and a |z| gate means nothing; at 100 samples the t tail at
# |t| = 4 (99 degrees of freedom) is 1.2e-4, within 2x of the normal tail.
MIN_VARIANCE_SAMPLES = 100

# Run i of ``default_suite`` draws from the Philox key seed + SUITE_SEED_STEP * i.
SUITE_SEED_STEP = 7919
SUITE_RUNS = 12


def scalar_float(s):
    """Cast an exact Scalar, or a {pi_pow: Fraction} sum of monomials, to a
    float; the one place pi becomes 3.14159..."""
    if isinstance(s, (int, float, Fraction)):
        return float(s)
    terms = s if isinstance(s, dict) else {s.pi_pow: s.coeff} if s else {}
    return float(sum(float(c) * math.pi ** p for p, c in terms.items()))


def rng_chunk(seed, chunk_index):
    """Generator for one chunk: the Philox stream jumped chunk_index times."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))


def _fill_so2(b, gen):
    """Write the entry-major block b (2, 2, m): (c, s) from one (m, 2)
    Gaussian draw, scaled to the unit circle, as [[c, -s], [s, c]]."""
    c, s = gen.standard_normal((b.shape[-1], 2)).T
    r = np.sqrt(c * c + s * s)
    np.divide(c, r, out=b[0, 0])
    np.divide(s, r, out=b[1, 0])
    np.negative(b[1, 0], out=b[0, 1])
    b[1, 1] = b[0, 0]


def _fill_so3(b, gen):
    """Write the entry-major block b (3, 3, m): the quaternion (w, x, y, z)
    of one (m, 4) Gaussian draw as Shoemake's rotation matrix, with
    t = 2 / |q|^2 (no square root) and xy = x (y t) and so on."""
    w, x, y, z = gen.standard_normal((b.shape[-1], 4)).T
    t = 2.0 / _project((w, x, y, z), (w, x, y, z))
    xs, ys, zs = x * t, y * t, z * t
    wx, wy, wz = w * xs, w * ys, w * zs
    xx, xy, xz = x * xs, x * ys, x * zs
    yy, yz, zz = y * ys, y * zs, z * zs
    b[0, 0] = 1.0 - (yy + zz)
    b[0, 1] = xy - wz
    b[0, 2] = xz + wy
    b[1, 0] = xy + wz
    b[1, 1] = 1.0 - (xx + zz)
    b[1, 2] = yz - wx
    b[2, 0] = xz - wy
    b[2, 1] = yz + wx
    b[2, 2] = 1.0 - (xx + yy)


def _fill_gram_schmidt(b, gen):
    """Write the entry-major block b (n, n, m): an (m, n, n) Gaussian draw,
    orthonormalized by classical Gram-Schmidt on the columns, each inner
    product a left-to-right sum (``_project``), and the last column negated
    where the determinant is negative."""
    n = b.shape[0]
    b[...] = np.moveaxis(gen.standard_normal((b.shape[-1], n, n)), 0, -1)
    for j in range(n):
        col = b[:, j]
        # every projection reads the drawn column j, before any is removed
        projs = [_project(b[:, i], col) for i in range(j)]
        for i, proj in enumerate(projs):
            col -= proj * b[:, i]
        col /= np.sqrt(_project(col, col))
    b[:, -1] *= np.where(np.linalg.det(np.moveaxis(b, -1, 0)) < 0, -1.0, 1.0)


def random_rotations(n, gen, count):
    """Haar-uniform elements of SO(n), batched (count, n, n).

    The work runs in an entry-major buffer e of shape (n, n, count): e[i, j]
    is entry (i, j) of every matrix, one contiguous vector.  The draw comes
    ROTATION_BLOCK samples at a time, in the generator's order, and each
    block of e is written from it: SO(2) from a point of the unit circle
    (``_fill_so2``), SO(3) from a unit quaternion (``_fill_so3``), and
    n >= 4 by Gram-Schmidt on an n x n Gaussian matrix
    (``_fill_gram_schmidt``).  The result is the sample-major view of e, so
    every ``rots[:, i, j]`` is contiguous; a caller that needs contiguous
    matrices copies them.
    """
    if n == 1:
        return np.ones((count, 1, 1))
    fill = {2: _fill_so2, 3: _fill_so3}.get(n, _fill_gram_schmidt)
    e = np.empty((n, n, count))
    for block in _blocks(count):
        fill(e[..., block], gen)
    return np.moveaxis(e, -1, 0)


EXACT_TOL = 1e-12  # an estimate this close to its prediction is exact


@dataclass
class MCEstimate:
    """Seeded estimate with its standard error and exact prediction."""
    name: str
    mean: float
    stderr: float
    samples: int
    seed: int
    prediction: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def z(self):
        if self.prediction is None:
            return 0.0
        err = self.mean - self.prediction
        if self.stderr == 0.0:
            return 0.0 if abs(err) < EXACT_TOL else math.inf
        return err / self.stderr

    def row(self):
        return {
            "test": self.name, "seed": self.seed, "samples": self.samples,
            "estimate": repr(self.mean), "stderr": repr(self.stderr),
            "prediction": "" if self.prediction is None else repr(self.prediction),
            "z": repr(self.z),
        }


def _estimate_from_values(name, total, total_sq, samples, seed, prediction, extra):
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    stderr = math.sqrt(var / samples)
    return MCEstimate(name, mean, stderr, samples, seed,
                      prediction=prediction, extra=extra)


def _chunk_sums(vals):
    """(sum, sum of squares) of one chunk's whole value vector, taken in the
    chunk's worker so that the vector dies there.  Both are numpy's pairwise
    sums, the second over vals squared in place: a BLAS dot product rounds
    differently with the number of BLAS threads."""
    total = float(vals.sum())
    return total, float(np.square(vals, out=vals).sum())


def _sum_values(chunk_sums):
    """(sum, sum of squares) of a run: the chunks' pairs added in chunk order."""
    total = 0.0
    total_sq = 0.0
    for chunk_total, chunk_sq in chunk_sums:
        total += chunk_total
        total_sq += chunk_sq
    return total, total_sq


def _hit_or_miss(name, scale, hits, count, seed, prediction, extra):
    """Estimate of scale times a hit rate, from the hit count.

    When every sample agrees (no hits, or all hits) the sample variance is 0.
    If the estimate then equals the prediction, the indicator was constant
    where it was sampled and the zero variance stands.  Otherwise the run was
    too short to see both outcomes, and a zero variance would make any error
    look infinitely significant; the variance is then taken from the Laplace
    rate (hits + 1) / (count + 2).
    """
    est = _estimate_from_values(name, scale * hits, scale ** 2 * hits, count,
                                seed, prediction, extra)
    if hits in (0, count) and abs(est.mean - prediction) >= EXACT_TOL:
        rate = (hits + 1) / (count + 2)
        est.stderr = scale * math.sqrt(rate * (1 - rate) / (count - 1))
    return est


def _require_variance_samples(samples):
    if samples < MIN_VARIANCE_SAMPLES:
        raise ValueError(f"an estimate with a sample-variance stderr needs at "
                         f"least {MIN_VARIANCE_SAMPLES} samples, got {samples}")


def _blocks(m):
    """Slices of ROTATION_BLOCK samples that cover m samples in order."""
    return [slice(lo, lo + ROTATION_BLOCK) for lo in range(0, m, ROTATION_BLOCK)]


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(work, samples, seed):
    """[work(gen, m) for each chunk of a run], in chunk order.

    Every chunk's generator is made here, in the calling thread and in chunk
    order.  The chunks then run on a pool of min(chunks, usable CPUs)
    threads, or inline when that is one; numpy releases the interpreter lock
    in the generator fills and the elementwise kernels.  Each chunk reads
    only its own generator, so the partials do not depend on the thread
    count.  An exception in a chunk reaches the caller once the pool has
    run the other chunks, and no pool thread outlives the call.
    """
    draws = [(rng_chunk(seed, index), min(CHUNK, samples - done))
             for index, done in enumerate(range(0, samples, CHUNK))]
    workers = min(len(draws), _usable_cpus())
    if workers <= 1:
        return [work(gen, m) for gen, m in draws]
    # imported here: exact commands and one-chunk runs never load it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda draw: work(*draw), draws))


def _require_within(hits, coords, radius, window):
    """Raise unless every hit lies within radius (+1e-9) of the origin, so
    that the sampled window dominates the integrand.  coords holds one vector
    over the samples per coordinate; sqrt is monotone, so the largest norm is
    the root of the largest left-to-right sum of squares."""
    worst = np.max(_project(coords, coords) * hits, initial=0.0)
    if math.sqrt(worst) > radius + 1e-9:
        raise AssertionError(f"{window} does not dominate the integrand")


# -- principal kinematic formula -------------------------------------------------

def _intrinsic_volumes(body):
    """V_0 .. V_n: exact Scalars for balls, boxes and single points, floats
    from the facet and edge data for a general polytope."""
    n = body.dimension
    try:
        return [body.exact_intrinsic_volume(i) for i in range(n + 1)]
    except ValueError:
        return list(body.geometry().volumes)


def _pairing(table, a, b):
    """Sum of table[i, j] V_i(A) V_j(B): exact, as {pi_pow: Fraction}, when
    both bodies have exact intrinsic volumes, a float otherwise.

    The pairings carry several powers of pi, so the exact sum keeps one
    rational per power.  Its keys stay in order of first appearance, and a
    power whose part cancels is dropped and rejoins at the end, which fixes
    the order of the float sum in ``scalar_float``.  Both predictions call
    this before any sampling, so bodies of two dimensions fail here."""
    if a.dimension != b.dimension:
        raise ValueError("bodies live in different dimensions")
    va, vb = _intrinsic_volumes(a), _intrinsic_volumes(b)
    if isinstance(va[0], float) or isinstance(vb[0], float):
        return math.fsum(scalar_float(c) * scalar_float(va[i]) * scalar_float(vb[j])
                         for ((i, _), (j, _)), c in table.entries.items())
    acc = {}
    for ((i, _), (j, _)), c in table.entries.items():
        term = c * va[i] * vb[j]
        if term:
            acc[term.pi_pow] = total = acc.get(term.pi_pow, 0) + term.coeff
            if not total:
                del acc[term.pi_pow]
    return acc


def principal_kinematic_prediction(a, b):
    """Motion-measure of intersections: sum of the chi-table pairings of the
    two bodies' intrinsic volumes."""
    return _pairing(euclid.kinematic_so(a.dimension, basis="mu"), a, b)


def estimate_principal_kinematic(a, b, samples, seed, name="kinematic"):
    """Window-uniform translations + Haar rotations against chi(A cap gB).

    The prediction and the batched indicator are both built before the first
    chunk, so an input without either fails before any sampling.
    """
    n = a.dimension
    pred = scalar_float(principal_kinematic_prediction(a, b))
    hits_of = kinematic_indicator(a, b)
    half = a.circumradius() + b.circumradius()
    if half <= 0:
        raise ValueError("window underflow: degenerate bodies")
    vol_w = (2 * half) ** n

    def chunk_hits(gen, m):
        rots = random_rotations(n, gen, m)
        xs = gen.uniform(-half, half, size=(m, n))
        hits = 0
        for block in _blocks(m):
            x = xs[block]
            hit = hits_of(x, rots[block])
            _require_within(hit, x.T, half, "window")
            hits += np.count_nonzero(hit)
        return hits

    total = float(sum(_map_chunks(chunk_hits, samples, seed)))
    # indicator values are vol_w * {0,1}
    return _hit_or_miss(name, vol_w, total, samples, seed, pred,
                        {"window_halfwidth": half, "hit_rate": total / samples})


# -- Crofton flats ---------------------------------------------------------------

def _flat_hits(a, dirs, normals, offsets):
    """Whether the affine flat {sum_f t_f d_f + sum_j u_j n_j} meets the body.

    dirs are the n - k spanning directions and normals the k fiber
    directions, each a list of its n coordinates; offsets are the k fiber
    coordinates u_j.  Every coordinate is a vector over the samples.
    """
    n = len(dirs[0])
    base = [_project(offsets, [u[i] for u in normals]) for i in range(n)]
    if a.kind == "ball":
        rel = [c - b for c, b in zip(a.center_f(), base)]
        tang = [_project(d, rel) for d in dirs]
        closest = [r - _project(tang, [d[i] for d in dirs]) for i, r in enumerate(rel)]
        return _project(closest, closest) <= float(a.radius) ** 2
    if a.kind == "box":
        if len(dirs) == n - 1:
            # hyperplane with normal normals[0]: box straddles the offset
            u = normals[0]
            c = (a.lo_f() + a.hi_f()) / 2
            h = (a.hi_f() - a.lo_f()) / 2
            centered = _project(u, c) - offsets[0]
            reach = _project([np.abs(ui) for ui in u], h)
            return np.abs(centered) <= reach
        if len(dirs) == 1:
            # line base + t d against an axis-aligned box: slab clipping
            m = len(base[0])
            lo = np.full(m, -np.inf)
            hi = np.full(m, np.inf)
            ok = np.ones(m, dtype=bool)
            for di, bi, low, high in zip(dirs[0], base, a.lo_f(), a.hi_f()):
                par = np.abs(di) < 1e-14
                ok &= ~(par & ((bi < low) | (bi > high)))
                with np.errstate(divide="ignore", invalid="ignore"):
                    t1 = (low - bi) / di
                    t2 = (high - bi) / di
                lo = np.maximum(lo, np.where(par, -np.inf, np.minimum(t1, t2)))
                hi = np.minimum(hi, np.where(par, np.inf, np.maximum(t1, t2)))
            return ok & (lo <= hi)
    raise ValueError(f"no flat test for body kind {a.kind!r} and "
                     f"flat dimension {len(dirs)}")


def estimate_crofton(a, k, samples, seed, name="crofton"):
    """Estimate mu_k as the weighted measure of affine (n-k)-flats meeting
    the body: rotate a fixed flat, then offset uniformly in the fiber ball."""
    n = a.dimension
    if not 1 <= k <= min(n - 1, 2):
        raise ValueError("crofton estimator needs 1 <= k <= n-1 and k <= 2")
    if a.kind != "ball" and not (a.kind == "box" and k in (1, n - 1)):
        raise ValueError(f"crofton estimator takes a ball, or a box against "
                         f"hyperplanes or lines, not a {a.kind} against {n - k}-flats")
    pred = scalar_float(a.exact_intrinsic_volume(k))
    rho = a.circumradius()
    fiber_vol = scalar_float(omega(k)) * rho ** k
    const = scalar_float(euclid.crofton_constant(n, k))

    def chunk_hits(gen, m):
        rots = random_rotations(n, gen, m)
        if k == 1:
            offsets = [gen.uniform(-rho, rho, size=m)]
        else:
            r = rho * np.sqrt(gen.uniform(0.0, 1.0, size=m))
            th = gen.uniform(0.0, 2 * math.pi, size=m)
            offsets = [r * np.cos(th), r * np.sin(th)]
        hits = 0
        for block in _blocks(m):
            # the columns of the rotations: n - k span the flat, k frame its fiber
            cols = [[rots[block, i, j] for i in range(n)] for j in range(n)]
            u = [o[block] for o in offsets]
            hit = _flat_hits(a, cols[: n - k], cols[n - k:], u)
            _require_within(hit, u, rho, "fiber ball")
            hits += np.count_nonzero(hit)
        return hits

    hits_total = float(sum(_map_chunks(chunk_hits, samples, seed)))
    return _hit_or_miss(name, fiber_vol * const, hits_total, samples, seed, pred,
                        {"fiber_radius": rho})


# -- Cauchy projection formula -----------------------------------------------------

def cauchy_projection_check(box, samples, seed, name="cauchy"):
    """Sphere-average of exact box shadow volumes against mu_{n-1}."""
    _require_variance_samples(samples)
    if box.kind != "box":
        raise ValueError(f"cauchy projection check takes a box, not a {box.kind}")
    sides_f = [float(s) for s in box.sides]
    n = box.dimension
    if n < 2:
        raise ValueError("projection check needs n >= 2")
    others = np.array([math.prod(sides_f[:i] + sides_f[i + 1:]) for i in range(n)])
    const = scalar_float(euclid.cauchy_constant(n))

    def chunk_vals(gen, m):
        v = gen.standard_normal((m, n))
        vals = np.empty(m)
        for block in _blocks(m):
            u = v[block]
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            vals[block] = const * (np.abs(u) @ others)
        return _chunk_sums(vals)

    total, total_sq = _sum_values(_map_chunks(chunk_vals, samples, seed))
    pred = scalar_float(box.exact_intrinsic_volume(n - 1))
    return _estimate_from_values(name, total, total_sq, samples, seed, pred, {})


# -- Steiner tube volumes ------------------------------------------------------------

def steiner_mc(box, r, samples, seed, name="steiner"):
    """Hit-or-miss volume of the r-neighborhood of a box vs. the exact
    tube-volume polynomial."""
    if box.kind != "box":
        raise ValueError(f"steiner estimator takes a box, not a {box.kind}")
    rf = float(r)
    lo = box.lo_f() - rf
    hi = box.hi_f() + rf
    n = box.dimension
    vol_w = float(np.prod(hi - lo))

    def chunk_hits(gen, m):
        unit = gen.uniform(0.0, 1.0, size=(m, n))
        hits = 0
        for block in _blocks(m):
            pts = unit[block] * (hi - lo) + lo
            gap = pts - np.clip(pts, box.lo_f(), box.hi_f())
            hits += np.count_nonzero(np.einsum("mi,mi->m", gap, gap) <= rf * rf)
        return hits

    hits_total = float(sum(_map_chunks(chunk_hits, samples, seed)))
    poly = euclid.steiner_polynomial(_intrinsic_volumes(box))
    pred = sum(scalar_float(c) * rf ** j for j, c in poly.items())
    return _hit_or_miss(name, vol_w, hits_total, samples, seed, pred,
                        {"tube_radius": rf})


# -- additive (Minkowski sum) formula -------------------------------------------------

def additive_volume_prediction(a, b):
    """Rotation-average of the volume of A + gB."""
    return _pairing(euclid.additive_so(a.dimension, basis="mu"), a, b)


def _support_sum(normals, areas, vertices):
    """sum_F |F| max_v <v, u_F> per sample, for normals u_F of shape (m, F, n)."""
    return np.max(normals @ vertices.T, axis=2) @ areas


def minkowski_volumes(ga, gb, rots):
    """vol(A + R B) for each rotation, exact for two polytopes in space.

    With F over the facets of A and G over the facets of B,
    vol(A + RB) = V(A) + V(B) + sum_F |F| h_RB(u_F) + sum_G |G| h_A(R u_G),
    the mixed-volume expansion written with support functions.
    """
    vals = np.empty(len(rots))
    base = ga.volumes[3] + gb.volumes[3]
    per_sample = (len(ga.facet_areas) * len(gb.vertices)
                  + len(gb.facet_areas) * len(ga.vertices))
    for lo, hi in sample_blocks(len(rots), per_sample):
        # a sample-major copy: matmul rounds by the layout of its operands
        r = np.ascontiguousarray(rots[lo:hi])
        # u_F^T R is (R^T u_F)^T, and u_G^T R^T is (R u_G)^T
        vals[lo:hi] = (base
                       + _support_sum(ga.facet_normals @ r, ga.facet_areas, gb.vertices)
                       + _support_sum(gb.facet_normals @ np.transpose(r, (0, 2, 1)),
                                      gb.facet_areas, ga.vertices))
    return vals


def planar_minkowski_areas(ga, gb, rots):
    """area(A + R B) for each rotation, exact for two polygons.

    With G over the edges of B, area(A + RB) = V(A) + V(B) + sum_G |G| h_A(R u_G).
    The rotations are taken ROTATION_BLOCK samples at a time.  Each rotated
    normal and support value is built from the four entry vectors of the
    block; the weighted sum over G stays one einsum per block.
    """
    vals = np.empty(len(rots))
    for block in _blocks(len(rots)):
        r = [[rots[block, i, j] for j in range(2)] for i in range(2)]
        h = np.empty((len(r[0][0]), len(gb.facet_areas)))
        for k, (u0, u1) in enumerate(gb.facet_normals):
            n0 = r[0][0] * u0 + r[0][1] * u1
            n1 = r[1][0] * u0 + r[1][1] * u1
            (v0, v1), *rest = ga.vertices
            best = v0 * n0 + v1 * n1
            for v0, v1 in rest:
                np.maximum(best, v0 * n0 + v1 * n1, out=best)
            h[:, k] = best
        vals[block] = (ga.volumes[2] + gb.volumes[2]
                       + np.einsum("mk,k->m", h, gb.facet_areas))
    return vals


def estimate_additive(a, b, samples, seed, name="additive"):
    """Mean volume of A + gB over Haar rotations.

    Ball pairs, and pairs with a single point, never vary (zero variance).
    Otherwise A and B are boxes or polytopes in the plane or in space, and
    each sample's volume is exact: the mixed-area support formula in the
    plane, ``minkowski_volumes`` in space.
    """
    _require_variance_samples(samples)
    n = a.dimension
    pred = scalar_float(additive_volume_prediction(a, b))
    if a.kind == "ball" and b.kind == "ball":
        rr = a.radius + b.radius
        val = scalar_float(omega(n)) * float(rr) ** n
        return MCEstimate(name, val, 0.0, samples, seed, prediction=pred,
                          extra={"zero_variance": True})
    if a.is_point or b.is_point:
        # a single point only translates the other body: the volume never varies
        other = b if a.is_point else a
        val = scalar_float(_intrinsic_volumes(other)[n])
        return MCEstimate(name, val, 0.0, samples, seed, prediction=pred,
                          extra={"zero_variance": True})
    if n not in (2, 3):
        raise ValueError("additive estimator supports dimensions 2 and 3")
    ga, gb = a.geometry(), b.geometry()
    volumes = planar_minkowski_areas if n == 2 else minkowski_volumes
    total, total_sq = _sum_values(_map_chunks(
        lambda gen, m: _chunk_sums(volumes(ga, gb, random_rotations(n, gen, m))),
        samples, seed))
    return _estimate_from_values(name, total, total_sq, samples, seed, pred, {})


# -- the default verification suite ----------------------------------------------------

def default_suite(samples=10 ** 6, seed=20260809):
    """The 12-run verification suite; every |z| must be <= 3 at a million
    samples.  Per-run seeds are seed + SUITE_SEED_STEP * index."""
    _require_variance_samples(samples)
    runs = []
    disk = ConvexBody.ball([0, 0], 1)
    square = ConvexBody.cube(2, 1)
    ball3 = ConvexBody.ball([0, 0, 0], 1)
    cube = ConvexBody.cube(3, 1)

    def sub(i):
        return seed + SUITE_SEED_STEP * i

    runs.append(estimate_principal_kinematic(disk, square, samples, sub(0),
                                             "kinematic-R2-disk-square"))
    runs.append(estimate_principal_kinematic(square, square, samples, sub(1),
                                             "kinematic-R2-square-square"))
    runs.append(estimate_principal_kinematic(ball3, cube, samples, sub(2),
                                             "kinematic-R3-ball-cube"))
    runs.append(estimate_principal_kinematic(ball3, ball3, samples, sub(3),
                                             "kinematic-R3-ball-ball"))
    runs.append(estimate_crofton(disk, 1, samples, sub(4), "crofton-R2-disk"))
    runs.append(estimate_crofton(square, 1, samples, sub(5), "crofton-R2-square"))
    runs.append(estimate_crofton(ball3, 1, samples, sub(6), "crofton-R3-ball-k1"))
    runs.append(estimate_crofton(cube, 2, samples, sub(7), "crofton-R3-cube-k2"))
    runs.append(cauchy_projection_check(square, samples, sub(8), "cauchy-R2-square"))
    runs.append(cauchy_projection_check(cube, samples, sub(9), "cauchy-R3-cube"))
    runs.append(steiner_mc(square, 1, samples, sub(10), "steiner-R2-square"))
    runs.append(estimate_additive(square, square, samples, sub(11),
                                  "additive-R2-squares"))
    return runs
