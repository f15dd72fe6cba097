"""The rotation sampler, the planar additive kernel, the Crofton flat kernel
and the kinematic indicator against their sample-minor oracles, bit for bit.

The fast code sums every short inner product left to right over per-entry
sample vectors; the oracles reduce over the short matrix axes with numpy.
``np.array_equal`` pins that the two orders agree on seeded chunks, rather
than assuming how numpy orders a short reduction.  The separating-axis
kernels round their projections differently from their oracles, so what must
agree there, as for the Crofton kernel, is every hit decision.  No estimate
may depend on the number of chunk threads or of BLAS threads.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from intgeo import montecarlo as MC
from intgeo.bodies import ConvexBody, kinematic_indicator
import oracles

SEEDS = (1, 20260809, 987654321)
# (seed, chunk index, count): full chunks at two chunk indices, a ragged one
# within the sampler's first block, and one that ends in a ragged block
DRAWS = ((SEEDS[0], 0, MC.CHUNK), (SEEDS[1], 5, MC.CHUNK), (SEEDS[2], 0, MC.CHUNK),
         (SEEDS[0], 1, 1000), (SEEDS[1], 2, 2 * MC.ROTATION_BLOCK + 7))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rotations_match_oracle_bitwise(n):
    for seed, index, count in DRAWS:
        fast = MC.random_rotations(n, MC.rng_chunk(seed, index), count)
        slow = oracles.random_rotations(n, MC.rng_chunk(seed, index), count)
        assert fast.shape == (count, n, n)
        assert np.array_equal(fast, slow), (n, seed, index, count)


# Rational points on the unit circle; any subset is in convex position.
_CIRCLE = sorted({(sx * Fraction(a, c), sy * Fraction(b, c))
                  for a, b, c in ((3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13),
                                  (8, 15, 17), (15, 8, 17), (0, 1, 1), (1, 0, 1))
                  for sx in (1, -1) for sy in (1, -1)})


def _polygon(rng, k):
    r = Fraction(rng.randint(4, 12), 8)
    return ConvexBody.polytope([[r * x, r * y] for x, y in rng.sample(_CIRCLE, k)])


BOX_PAIRS = (
    (ConvexBody.box([Fraction(-1, 2)] * 2, [Fraction(1, 2)] * 2),
     ConvexBody.box([0, -1], [Fraction(3, 2), Fraction(1, 4)])),
    (ConvexBody.box([-1, 0], [Fraction(1, 4), Fraction(3, 8)]),
     ConvexBody.box([Fraction(-1, 2)] * 2, [Fraction(1, 2)] * 2)),
    (ConvexBody.box([0, 0], [2, Fraction(1, 8)]),
     ConvexBody.box([Fraction(-3, 4), -1], [Fraction(1, 4), Fraction(5, 4)])),
)


def _assert_planar_equal(a, b, rots):
    ga, gb = a.geometry(), b.geometry()
    assert np.array_equal(MC.planar_minkowski_areas(ga, gb, rots),
                          oracles.planar_minkowski_areas(ga, gb, rots)), \
        (len(ga.vertices), len(gb.vertices))


def test_planar_kernel_matches_oracle_bitwise():
    rots = [MC.random_rotations(2, MC.rng_chunk(seed, 2), MC.CHUNK) for seed in SEEDS]
    for (a, b), r in zip(BOX_PAIRS, rots):
        _assert_planar_equal(a, b, r)
    # every polygon pair of 3 to 6 vertices, each on a slice of one chunk
    rng = random.Random(3)
    for ka in range(3, 7):
        for kb in range(3, 7):
            r = rots[(ka + kb) % len(rots)][ka * 10_000:(ka + 1) * 10_000]
            _assert_planar_equal(_polygon(rng, ka), _polygon(rng, kb), r)


# -- the separating-axis kernels -------------------------------------------------

def _hull(rng, k):
    """k rational points of the sphere of radius 1/2 to 3/2 in R^3."""
    scale = Fraction(rng.randint(4, 12), 8)
    points = set()
    while len(points) < k:
        a, b = rng.sample(range(-9, 10), 2)
        # the inverse stereographic image of (a/4, b/4) is rational
        d = a * a + b * b + 16
        points.add((Fraction(8 * a, d), Fraction(8 * b, d), Fraction(d - 32, d)))
    return ConvexBody.polytope([[scale * c for c in p] for p in points])


_RNG = random.Random(16)
_HEXAGON, _HEXAGON2 = _polygon(_RNG, 6), _polygon(_RNG, 6)
_HULL, _HULL2 = _hull(_RNG, 8), _hull(_RNG, 8)
THIRDS = (ConvexBody.box(["-1/3", "-2/7"], ["1/2", "5/7"]),
          ConvexBody.box(["-1/3", "-2/7", "-3/5"], ["1/2", "5/7", "1/3"]))
# every kind of pair the kinematic indicator serves: the polytope pairs, a
# ball against a polygon and a hull in either order, and the closed forms of
# a ball against a box or a ball
KERNEL_PAIRS = {
    "square/box": BOX_PAIRS[0],
    "non-dyadic boxes 2-D": (THIRDS[0], ConvexBody.cube(2, Fraction(2, 3))),
    "non-dyadic boxes 3-D": (THIRDS[1], ConvexBody.box([0, "-1/5", 0], ["3/7", 1, "2/3"])),
    "cube/box": (ConvexBody.cube(3, 1), ConvexBody.box([0, 0, 0], [1, 2, "1/2"])),
    "box/point": (ConvexBody.cube(3, 1), ConvexBody.polytope([["1/3", 0, 1]])),
    "point/box": (ConvexBody.polytope([[0, "1/5", 0]]), THIRDS[1]),
    "hexagons": (_HEXAGON, _HEXAGON2),
    "8-vertex hulls": (_HULL, _HULL2),
    "ball/hexagon": (ConvexBody.ball(["1/3", 0], "3/5"), _HEXAGON),
    "hexagon/ball": (_HEXAGON, ConvexBody.ball([0, "1/7"], "2/3")),
    "ball/hull": (ConvexBody.ball([0, "1/7", 0], "2/3"), _HULL),
    "hull/ball": (_HULL, ConvexBody.ball(["1/3", 0, 0], "3/5")),
    "segments 1-D": (ConvexBody.box([0], [1]), ConvexBody.box(["-1/3"], ["2/7"])),
    "segment/unit 1-D": (ConvexBody.box(["1/5"], ["7/3"]), ConvexBody.cube(1, 1)),
    "ball/box 2-D": (ConvexBody.ball(["1/3", 0], "3/5"), THIRDS[0]),
    "box/ball 2-D": (THIRDS[0], ConvexBody.ball([0, "1/7"], "2/3")),
    "balls 2-D": (ConvexBody.ball(["-1/5", "1/3"], "3/7"), ConvexBody.ball(["2/5", 0], "5/8")),
    "ball/box 3-D": (ConvexBody.ball([0, "1/7", 0], "2/3"), THIRDS[1]),
    "box/ball 3-D": (THIRDS[1], ConvexBody.ball(["1/3", 0, "-1/4"], "3/5")),
    "balls 3-D": (ConvexBody.ball(["1/3", 0, 0], "3/5"),
                  ConvexBody.ball([0, "-2/7", "1/5"], "1/2")),
}
KERNEL_SAMPLES = 1 << 14


@pytest.mark.parametrize("pair", KERNEL_PAIRS.values(), ids=list(KERNEL_PAIRS))
def test_kinematic_kernels_match_oracle_bitwise(pair):
    a, b = pair
    n = a.dimension
    gen = MC.rng_chunk(SEEDS[1], 3)
    rots = MC.random_rotations(n, gen, KERNEL_SAMPLES)
    half = a.circumradius() + b.circumradius()
    xs = gen.uniform(-half, half, size=(KERNEL_SAMPLES, n))
    hits = kinematic_indicator(a, b)(xs, rots)
    assert np.array_equal(hits, oracles.kinematic_hits(a, b, xs, rots))
    assert 0 < np.count_nonzero(hits) < KERNEL_SAMPLES


# -- the Crofton flat kernel -------------------------------------------------------

# a ball and a box in the plane and in space, against every flat dimension
# the Crofton estimator serves them with
CROFTON_CASES = {
    f"{body.kind} {body.dimension}-D k={k}": (body, k)
    for body in (ConvexBody.ball(["1/3", "-1/5"], "3/5"), THIRDS[0],
                 ConvexBody.ball([0, "1/7", "-1/4"], "2/3"), THIRDS[1])
    for k in (1, 2) if k < body.dimension
}


@pytest.mark.parametrize("case", CROFTON_CASES.values(), ids=list(CROFTON_CASES))
def test_crofton_kernel_matches_oracle_bitwise(case):
    body, k = case
    n = body.dimension
    gen = MC.rng_chunk(SEEDS[2], 4)
    rots = MC.random_rotations(n, gen, KERNEL_SAMPLES)
    rho = body.circumradius()
    offsets = gen.uniform(-rho, rho, size=(KERNEL_SAMPLES, k))
    cols = [[rots[:, i, j] for i in range(n)] for j in range(n)]
    hits = MC._flat_hits(body, cols[: n - k], cols[n - k:], list(offsets.T))
    assert np.array_equal(hits, oracles.crofton_hits(body, k, rots, offsets))
    assert 0 < np.count_nonzero(hits) < KERNEL_SAMPLES


# -- chunks on threads, kernels over blocks ------------------------------------

THREAD_SAMPLES = 2 * MC.CHUNK + 1000  # three chunks, the last ragged


def _thread_runs():
    disk, square = ConvexBody.ball([0, 0], 1), ConvexBody.cube(2, 1)
    ball3, cube = ConvexBody.ball([0, 0, 0], 1), ConvexBody.cube(3, 1)
    s = THREAD_SAMPLES
    return {
        "kinematic ball/box 2-D": lambda: [MC.estimate_principal_kinematic(disk, square, s, 11)],
        "kinematic ball/box 3-D": lambda: [MC.estimate_principal_kinematic(ball3, cube, s, 12)],
        "kinematic polygons": lambda: [MC.estimate_principal_kinematic(_HEXAGON, _HEXAGON2, s, 13)],
        "crofton k=1": lambda: [MC.estimate_crofton(THIRDS[0], 1, s, 14)],
        "crofton k=2": lambda: [MC.estimate_crofton(cube, 2, s, 15)],
        "cauchy": lambda: [MC.cauchy_projection_check(cube, s, 16)],
        "steiner": lambda: [MC.steiner_mc(square, Fraction(1, 2), s, 17)],
        "additive 2-D": lambda: [MC.estimate_additive(_HEXAGON, square, s, 18)],
        # two chunks per run: the suite's estimators are all covered above
        "suite": lambda: MC.default_suite(MC.CHUNK + MC.MIN_VARIANCE_SAMPLES, 19),
    }


@pytest.mark.parametrize("case", list(_thread_runs()))
def test_estimates_do_not_depend_on_thread_count(case, monkeypatch):
    seen = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(MC, "_usable_cpus", lambda: workers)
        seen.append([(r.row(), r.mean.hex(), r.stderr.hex()) for r in _thread_runs()[case]()])
    assert seen[0] == seen[1] == seen[2]


def test_blocked_planar_kernel_matches_whole_chunk(monkeypatch):
    count = 2 * MC.ROTATION_BLOCK + 7  # the last block is ragged
    rots = MC.random_rotations(2, MC.rng_chunk(SEEDS[0], 6), count)
    ga, gb = _HEXAGON.geometry(), THIRDS[0].geometry()
    blocked = MC.planar_minkowski_areas(ga, gb, rots)
    monkeypatch.setattr(MC, "ROTATION_BLOCK", count)
    assert np.array_equal(blocked, MC.planar_minkowski_areas(ga, gb, rots))


def test_chunk_sums_match_oracle_bitwise():
    for seed, index, count in DRAWS:
        vals = MC.rng_chunk(seed, index).standard_normal(count)
        assert MC._chunk_sums(vals.copy()) == oracles.chunk_sums(vals), (seed, index)


BLAS_PROBE = """
import json
from intgeo import montecarlo as MC
from intgeo.bodies import ConvexBody
r = MC.cauchy_projection_check(ConvexBody.cube(3, 1), 2 * MC.CHUNK, 5)
print(json.dumps([r.mean.hex(), r.stderr.hex()]))
"""


def test_estimates_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    seen = []
    for threads in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path,
                                       OPENBLAS_NUM_THREADS=threads,
                                       OMP_NUM_THREADS=threads))
        assert done.returncode == 0, done.stderr
        seen.append(json.loads(done.stdout))
    assert seen[0] == seen[1]
