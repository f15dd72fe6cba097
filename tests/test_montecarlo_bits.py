"""The rotation sampler and the planar additive kernel against their
sample-minor oracles, bit for bit.

The fast code sums every short inner product left to right over per-entry
sample vectors; the oracles reduce over the short matrix axes with numpy.
``np.array_equal`` pins that the two orders agree on seeded chunks, rather
than assuming how numpy orders a short reduction.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from intgeo import montecarlo as MC
from intgeo.bodies import ConvexBody
import oracles

SEEDS = (1, 20260809, 987654321)
# (seed, chunk index, count): full chunks at two chunk indices, and a ragged one
DRAWS = ((SEEDS[0], 0, MC.CHUNK), (SEEDS[1], 5, MC.CHUNK), (SEEDS[2], 0, MC.CHUNK),
         (SEEDS[0], 1, 1000))


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
