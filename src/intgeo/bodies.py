"""Concrete convex bodies and the batched intersection kernel the estimators need.

Bodies keep exact rational parameters, from which a ball, a box or a single
point gives its exact intrinsic volumes, next to float views for the numeric
kernels.  The float views, and the facet and edge data of boxes and
polytopes, are computed once per body and handed out as read-only arrays.

``kinematic_indicator(a, b)`` decides, for a whole batch of translations x and
rotations R at once, whether A meets x + R B.  Ball/ball and ball/box pairs
use exact closed forms.  Every other pair, two boxes included, is a
separating-axis test (Gottschalk, Lin and Manocha 1996): the facet normals of
both bodies and, in space, the cross products of their edge directions,
which is the complete axis set of two polytopes on the line, in the plane or
in space.  A ball against a polytope uses the closest-feature axes (facet
normals, vertex-to-center directions, edge perpendiculars through the
center), so that test is exact too.  Separation is strict: tangency counts
as intersection.  The kernels work entry-major, like the rotation sampler:
each coordinate, and each entry of the rotations, is one vector over the
samples, and every projection onto an axis is one left-to-right sum of
products (``_project``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
import math

import numpy as np

from .euclid import box_intrinsic_volume, mu_ball

# Largest float temporary a kernel builds at once, in array elements: about
# one chunk of 3 x 3 rotation matrices, so blocks cost no more memory than
# the chunk arrays the estimators already hold.
BLOCK_ELEMENTS = 1 << 20

# Unit vectors closer than this (componentwise) are treated as parallel.
PARALLEL_TOL = 1e-9


def _frac(x):
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 12)
    return Fraction(x)


def _readonly(values):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


class ConvexBody:
    """Ball, axis-aligned box, or polytope (vertex list) in R^n."""

    def __init__(self, kind, dimension, **params):
        self.kind = kind
        self.dimension = dimension
        self._vertices = None
        self._geometry = None
        if kind == "ball":
            self.center = tuple(_frac(c) for c in params["center"])
            self.radius = _frac(params["radius"])
            if self.radius <= 0:
                raise ValueError("ball radius must be positive")
            if len(self.center) != dimension:
                raise ValueError("center dimension mismatch")
            self._center = _readonly([float(c) for c in self.center])
        elif kind == "box":
            self.lo = tuple(_frac(c) for c in params["lo"])
            self.hi = tuple(_frac(c) for c in params["hi"])
            if len(self.lo) != dimension or len(self.hi) != dimension:
                raise ValueError("box corner dimension mismatch")
            self.sides = tuple(b - a for a, b in zip(self.lo, self.hi))
            if any(side <= 0 for side in self.sides):
                raise ValueError("box must be nondegenerate")
            self._lo = _readonly([float(c) for c in self.lo])
            self._hi = _readonly([float(c) for c in self.hi])
        elif kind == "polytope":
            self.vertices = tuple(tuple(_frac(c) for c in v)
                                  for v in params["vertices"])
            if not self.vertices:
                raise ValueError("polytope needs at least one vertex")
            if any(len(v) != dimension for v in self.vertices):
                raise ValueError("vertex dimension mismatch")
            self._vertices = _readonly([[float(c) for c in v]
                                        for v in self.vertices])
        else:
            raise ValueError(f"unknown body kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def ball(center, radius):
        return ConvexBody("ball", len(tuple(center)), center=center, radius=radius)

    @staticmethod
    def box(lo, hi):
        return ConvexBody("box", len(tuple(lo)), lo=lo, hi=hi)

    @staticmethod
    def cube(dimension, side=1):
        h = Fraction(side) / 2
        return ConvexBody.box([-h] * dimension, [h] * dimension)

    @staticmethod
    def polytope(vertices):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("polytope needs at least one vertex")
        return ConvexBody("polytope", len(tuple(vertices[0])), vertices=vertices)

    # -- float views (read-only, computed once) --------------------------------

    def center_f(self):
        return self._center

    def lo_f(self):
        return self._lo

    def hi_f(self):
        return self._hi

    def vertices_f(self):
        if self.kind == "ball":
            raise ValueError("a ball has no vertex list")
        if self._vertices is None:  # box corners, built on first use
            n = self.dimension
            self._vertices = _readonly(
                [[float(self.hi[i] if mask >> i & 1 else self.lo[i])
                  for i in range(n)] for mask in range(2 ** n)])
        return self._vertices

    @property
    def is_point(self):
        return self.kind == "polytope" and len(set(self.vertices)) == 1

    def circumradius(self):
        """Exact-ish bound max |x| over the body, measured from the origin."""
        if self.kind == "ball":
            return float(np.linalg.norm(self.center_f())) + float(self.radius)
        return float(np.max(np.linalg.norm(self.vertices_f(), axis=1)))

    def geometry(self):
        """Facet and edge data of a box or polytope in R^1, R^2 or R^3."""
        if self._geometry is None:
            self._geometry = _build_geometry(self)
        return self._geometry

    def exact_intrinsic_volume(self, i):
        """Exact mu_i of a ball, a box or a single point; ValueError for any
        other polytope."""
        if self.kind == "ball":
            return mu_ball(self.dimension, i, self.radius)
        if self.kind == "box":
            return box_intrinsic_volume(self.sides, i)
        if self.is_point:
            return box_intrinsic_volume((), i)
        raise ValueError("no exact intrinsic volumes for a general polytope")


# the fields a body spec of each kind carries besides its kind, and no others
_SPEC_FIELDS = {"ball": ("center", "radius"), "box": ("min", "max"),
                "polytope": ("vertices",)}


def _listed(value, field):
    if not isinstance(value, list):
        raise ValueError(f"body spec field {field!r} must be a list, not {value!r}")
    return value


def _rationals(values, field):
    return [Fraction(str(c)) for c in _listed(values, field)]


def body_from_spec(doc):
    """The body of a JSON spec such as {"kind": "ball", "center": [0, 0],
    "radius": 1}.  Raises ValueError on an entry that is not a JSON object,
    on an unknown kind, on a missing field or one its kind does not read, and
    on a coordinate field that is not a list."""
    if not isinstance(doc, dict):
        raise ValueError(f"a body spec must be a JSON object, not {doc!r}")
    fields = ("kind",) + _SPEC_FIELDS.get(str(doc.get("kind")), ())
    for field in fields:
        if field not in doc:
            raise ValueError(f"body spec {doc!r} lacks the field {field!r}")
    kind = doc["kind"]
    if str(kind) not in _SPEC_FIELDS:
        raise ValueError(f"unknown body kind {kind!r}")
    unread = sorted(set(doc) - set(fields))
    if unread:
        raise ValueError(f"body spec {doc!r} has the field {unread[0]!r}, "
                         f"which a {kind} does not read")
    if kind == "ball":
        return ConvexBody.ball(_rationals(doc["center"], "center"),
                               Fraction(str(doc["radius"])))
    if kind == "box":
        return ConvexBody.box(_rationals(doc["min"], "min"),
                              _rationals(doc["max"], "max"))
    return ConvexBody.polytope([_rationals(v, "vertices")
                                for v in _listed(doc["vertices"], "vertices")])


# -- facet and edge data ------------------------------------------------------------

@dataclass(frozen=True)
class Geometry:
    """Float facet and edge data of a box or polytope; arrays are read-only.

    In the plane the facets are the edges, and the edge fields are empty.
    """
    vertices: np.ndarray       # (k, n) extreme points; counterclockwise in the plane
    facet_normals: np.ndarray  # (f, n) outward unit normals
    facet_areas: np.ndarray    # (f,) facet (n-1)-volumes
    axes: np.ndarray           # facet normals, parallel duplicates dropped
    edge_dirs: np.ndarray      # unit edge directions, parallel duplicates dropped
    edge_points: np.ndarray    # (e, n) one endpoint of every edge
    edge_units: np.ndarray     # (e, n) unit direction of every edge
    volumes: tuple             # float intrinsic volumes V_0 .. V_n


def _distinct(units, signed):
    """Representatives of the unit vectors up to PARALLEL_TOL (and up to sign
    unless signed), and the index of each vector's representative."""
    diff = np.abs(units[:, None, :] - units[None, :, :]).max(axis=2) < PARALLEL_TOL
    if not signed:
        diff |= np.abs(units[:, None, :] + units[None, :, :]).max(axis=2) < PARALLEL_TOL
    first = diff.argmax(axis=1) if len(units) else np.zeros(0, dtype=int)
    keep = np.unique(first)
    return units[keep], np.searchsorted(keep, first)


def _geometry(vertices, normals, areas, edge_points, edge_units, volumes):
    n = vertices.shape[1]
    normals = np.asarray(normals, dtype=float).reshape(-1, n)
    edge_units = np.asarray(edge_units, dtype=float).reshape(-1, n)
    return Geometry(_readonly(vertices), _readonly(normals), _readonly(areas),
                    _readonly(_distinct(normals, signed=False)[0]),
                    _readonly(_distinct(edge_units, signed=False)[0]),
                    _readonly(np.reshape(edge_points, (-1, n))),
                    _readonly(edge_units), tuple(float(v) for v in volumes))


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(points):
    """Extreme points of a finite planar set, exactly (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _polygon_geometry(points):
    v = ccw_order(np.array([[float(c) for c in p] for p in _hull_2d(points)]))
    if len(v) == 1:
        return _geometry(v, [], [], [], [], (1, 0, 0))
    _, normals, lengths = polygon_edges(v)
    return _geometry(v, normals, lengths, [], [],
                     (1, lengths.sum() / 2, polygon_area(v)))


def _box_geometry(box):
    """A box in space: faces and edges along the coordinate axes, no hull."""
    corners = box.vertices_f()  # corner `mask` takes hi[i] where bit i is set
    sides = box.hi_f() - box.lo_f()
    eye = np.eye(3)
    normals = [s * eye[i] for i in range(3) for s in (-1.0, 1.0)]
    areas = [sides[(i + 1) % 3] * sides[(i + 2) % 3] for i in range(3) for _ in (0, 1)]
    starts = [(corners[mask], eye[i]) for i in range(3)
              for mask in range(8) if not mask >> i & 1]
    volumes = (1, sides.sum(), sides[0] * sides[1] + sides[0] * sides[2]
               + sides[1] * sides[2], sides.prod())
    return _geometry(corners, normals, areas, [p for p, _ in starts],
                     [u for _, u in starts], volumes)


def _hull_geometry(points):
    """A full-dimensional polytope in space, from one convex hull."""
    from scipy.spatial import ConvexHull
    hull = ConvexHull(points)
    normals = hull.equations[:, :3]
    tri = hull.points[hull.simplices]
    areas = np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]),
                           axis=1) / 2
    facet_normals, labels = _distinct(normals, signed=True)
    facet_areas = np.bincount(labels, weights=areas, minlength=len(facet_normals))
    # a hull edge is a polytope edge when its two triangles lie in different
    # facets; its external angle is the angle between the facet normals
    starts, units, mean_width = [], [], 0.0
    for t, across in enumerate(hull.neighbors):
        for i, u in enumerate(across):
            if u < t or labels[u] == labels[t]:
                continue
            p, q = hull.points[np.delete(hull.simplices[t], i)]
            length = float(np.linalg.norm(q - p))
            cos = float(np.dot(facet_normals[labels[t]], facet_normals[labels[u]]))
            mean_width += length * math.acos(min(1.0, max(-1.0, cos)))
            starts.append(p)
            units.append((q - p) / length)
    volumes = (1, mean_width / (2 * math.pi), hull.area / 2, hull.volume)
    return _geometry(hull.points[hull.vertices], facet_normals, facet_areas,
                     starts, units, volumes)


def _build_geometry(body):
    n = body.dimension
    if body.kind == "ball":
        raise ValueError("a ball has no facets or edges")
    if n not in (1, 2, 3):
        raise ValueError(f"facet and edge data exist only on the line, in the "
                         f"plane and in space; a {body.kind} in R^{n} has none here")
    if n == 1:  # a segment, with its two ends as facets, or a point
        lo, hi = body.vertices_f().min(), body.vertices_f().max()
        if lo == hi:
            return _geometry(np.array([[lo]]), [], [], [], [], (1, 0))
        return _geometry(np.array([[lo], [hi]]), [[-1.0], [1.0]], [1.0, 1.0],
                         [], [], (1, hi - lo))
    if n == 2:
        return _polygon_geometry(product(*zip(body.lo, body.hi)) if body.kind == "box"
                                 else body.vertices)
    if body.kind == "box":
        return _box_geometry(body)
    v = body.vertices_f()
    rank = np.linalg.matrix_rank(v - v[0]) if len(v) > 1 else 0
    if rank == 0:
        return _geometry(v[:1], [], [], [], [], (1, 0, 0, 0))
    if rank < 3:
        raise ValueError("a polytope in R^3 must be full-dimensional or a single point")
    return _hull_geometry(v)


# -- the batched intersection kernel ---------------------------------------------

def kinematic_indicator(a, b):
    """The batched test of whether A meets x + R B.

    Returns ``hits(xs, rots)``, a boolean array over translations xs (m, n)
    and rotations rots (m, n, n).  Raises ValueError at once, before any
    sampling, for a pair it has no complete test for: a box or polytope
    beyond R^3 (facet axes alone miss the edge-edge directions there), a
    flat polytope in space, and two single points (they meet on a null set
    of motions).
    """
    if a.dimension != b.dimension:
        raise ValueError("bodies live in different dimensions")
    if a.kind == b.kind == "ball":
        return lambda xs, rots: _hits_ball_ball(a, b, xs, rots)
    if "ball" in (a.kind, b.kind):
        ball, other = (a, b) if a.kind == "ball" else (b, a)
        c, r = ball.center_f(), float(ball.radius)
        if other.kind == "box":
            lo, hi = other.lo_f(), other.hi_f()
            test = lambda centers: _hits_box_balls(centers, lo, hi, r)
        else:
            g = other.geometry()
            test = lambda centers: _hits_ball_polytope(g, centers, r)
        if a.kind == "ball":
            # the ball center in the moved body's frame, R^T (c - x)
            return lambda xs, rots: test(
                _turn(rots, [ci - x for ci, x in zip(c, xs.T)], inverse=True))
        return lambda xs, rots: test([x + t for x, t in zip(xs.T, _turn(rots, c))])
    ga, gb = a.geometry(), b.geometry()
    if not (len(ga.axes) or len(gb.axes)):
        raise ValueError("two single points meet only on a null set of motions")
    return lambda xs, rots: _hits_polytopes(ga, gb, xs, rots)


def _turn(rots, v, inverse=False):
    """R v, or R^T v when inverse, per coordinate, summed over the entry
    vectors of the rotations; v is one vector, or one vector over the
    samples per coordinate."""
    n = len(v)
    return [_project([rots[:, j, i] if inverse else rots[:, i, j] for j in range(n)], v)
            for i in range(n)]


def _hits_ball_ball(a, b, xs, rots):
    centers = [x + t for x, t in zip(xs.T, _turn(rots, b.center_f()))]
    gap = [ci - c for ci, c in zip(centers, a.center_f())]
    rr = float(a.radius) + float(b.radius)
    return _project(gap, gap) <= rr * rr


def _hits_box_balls(centers, lo, hi, radius):
    """The axis-aligned box [lo, hi] against the balls B(c_m, radius)."""
    gap = [c - np.clip(c, low, high) for c, low, high in zip(centers, lo, hi)]
    return _project(gap, gap) <= radius ** 2


def sample_blocks(m, per_sample):
    """Sample ranges whose temporaries stay within BLOCK_ELEMENTS."""
    step = max(1, BLOCK_ELEMENTS // max(1, per_sample))
    for lo in range(0, m, step):
        yield lo, min(m, lo + step)


def _project(point, axis):
    """<point, axis>, summed left to right over the coordinates; each
    coordinate of either is a float or a vector over the samples."""
    total = point[0] * axis[0]
    for p, u in zip(point[1:], axis[1:]):
        total += p * u
    return total


def _span(projections):
    """Running (min, max) over a sequence of projections."""
    projections = iter(projections)
    low = high = next(projections)
    for p in projections:
        low, high = np.minimum(low, p), np.maximum(high, p)
    return low, high


def _apart(points, axis, span):
    """Where the projections of points onto axis lie strictly on one side of
    span; a zero axis projects everything to 0 and never separates."""
    low, high = _span(_project(p, axis) for p in points)
    return (high < span[0]) | (span[1] < low)


def _moved(gb, xs, rots, idx):
    """The rows of the rotations and the vertices of x + R B, per coordinate,
    for the samples idx (a slice or an index array)."""
    n = xs.shape[1]
    r = [[rots[idx, i, j] for j in range(n)] for i in range(n)]
    return r, [[xs[idx, i] + _project(v, r[i]) for i in range(n)] for v in gb.vertices]


def _hits_polytopes(ga, gb, xs, rots):
    """Separating axes of a fixed polytope A against the moved x + R B.

    The facet normals of A and the rotated facet normals of B go first; in
    space, the samples they leave unseparated are then tested on the cross
    products of A's edge directions with B's rotated edge directions, and
    dropped after each edge direction of A that separates them.
    """
    m, n = xs.shape
    separated = np.zeros(m, dtype=bool)
    # a block holds B's vertices and turned edges, twice while it compacts them
    per_sample = n * (n + 1 + 2 * (len(gb.vertices) + len(gb.edge_dirs)))
    for lo, hi in sample_blocks(m, per_sample):
        r, moved = _moved(gb, xs, rots, slice(lo, hi))
        for axis in chain(ga.axes, ([_project(u, row) for row in r] for u in gb.axes)):
            separated[lo:hi] |= _apart(ga.vertices, axis,
                                       _span(_project(p, axis) for p in moved))
    if not (len(ga.edge_dirs) and len(gb.edge_dirs)):
        return ~separated
    live = np.flatnonzero(~separated)
    for lo, hi in sample_blocks(len(live), per_sample):
        idx = live[lo:hi]
        r, moved = _moved(gb, xs, rots, idx)
        turned = [[_project(f, row) for row in r] for f in gb.edge_dirs]
        for e0, e1, e2 in ga.edge_dirs:
            cut = np.zeros(len(idx), dtype=bool)
            for g0, g1, g2 in turned:
                axis = (e1 * g2 - e2 * g1, e2 * g0 - e0 * g2, e0 * g1 - e1 * g0)
                cut |= _apart(ga.vertices, axis, _span(_project(p, axis) for p in moved))
            separated[idx[cut]] = True
            keep = ~cut
            idx = idx[keep]
            moved, turned = ([[c[keep] for c in p] for p in ps] for ps in (moved, turned))
    return ~separated

def _hits_ball_polytope(g, centers, radius):
    """A fixed polytope against the balls B(c_m, radius), one vector over the
    samples per coordinate of the centers, on the axes through
    every possible closest feature: facet normals, vertex-to-center
    directions and, in space, edge perpendiculars through the center."""
    m, n = len(centers[0]), len(centers)
    separated = np.zeros(m, dtype=bool)
    for lo, hi in sample_blocks(m, n * (len(g.vertices) + len(g.edge_points) + 2)):
        c = [ci[lo:hi] for ci in centers]
        axes = [*g.axes, *([ci - vi for ci, vi in zip(c, v)] for v in g.vertices)]
        for p, e in zip(g.edge_points, g.edge_units):
            w = [ci - pi for ci, pi in zip(c, p)]
            t = _project(w, e)
            axes.append([wi - t * ei for wi, ei in zip(w, e)])
        for axis in axes:
            mid = _project(c, axis)
            reach = radius * np.sqrt(_project(axis, axis))
            separated[lo:hi] |= _apart(g.vertices, axis, (mid - reach, mid + reach))
    return ~separated


# -- polygons ------------------------------------------------------------------------

def polygon_area(vertices):
    """Shoelace area of a convex polygon given in counterclockwise order."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def polygon_edges(vertices):
    """Edge vectors, outward normals and lengths of a ccw convex polygon."""
    v = np.asarray(vertices, dtype=float)
    edges = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(edges, axis=1)
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    normals /= lengths[:, None]
    return edges, normals, lengths


def ccw_order(vertices):
    v = np.asarray(vertices, dtype=float)
    c = v.mean(axis=0)
    ang = np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0])
    return v[np.argsort(ang)]
