import math
from fractions import Fraction

import numpy as np
import pytest

from intgeo import montecarlo as MC
from intgeo.bodies import (ConvexBody, body_from_spec, ccw_order,
                           kinematic_indicator, polygon_area, polygon_edges)
from intgeo.scalars import Scalar
from oracles import gjk_intersects, minkowski_sum_volume, moved


def intersects(a, b):
    """Whether two convex bodies meet (closed-set convention): the batched
    kernel at the identity motion."""
    n = a.dimension
    return bool(kinematic_indicator(a, b)(np.zeros((1, n)), np.eye(n)[None])[0])


def test_ball_ball():
    assert not intersects(ConvexBody.ball([0, 0], 1), ConvexBody.ball([3, 0], 1))
    assert intersects(ConvexBody.ball([0, 0], 1), ConvexBody.ball([1, 0], 1))
    # tangency counts (closed convention)
    assert intersects(ConvexBody.ball([0, 0], 1), ConvexBody.ball([2, 0], 1))


def test_ball_box():
    ball = ConvexBody.ball([0, 0], 1)
    assert intersects(ball, ConvexBody.box([-0.5, -0.5], [0.5, 0.5]))
    assert not intersects(ball, ConvexBody.box([2, 2], [3, 3]))
    assert intersects(ball, ConvexBody.box([1, 0], [2, 1]))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        intersects(ConvexBody.ball([0, 0], 1), ConvexBody.ball([0, 0, 0], 1))


def test_polytope_pairs():
    sq = ConvexBody.polytope([[0, 0], [1, 0], [1, 1], [0, 1]])
    far = ConvexBody.polytope([[2, 0], [3, 0], [2.5, 1]])
    near = ConvexBody.polytope([[0.5, 0.5], [3, 0], [2.5, 1]])
    assert not intersects(sq, far)
    assert intersects(sq, near)
    # tangency counts (closed convention)
    assert intersects(sq, ConvexBody.polytope([[1, 0], [2, 0], [2, 1], [1, 1]]))
    assert intersects(ConvexBody.cube(3, 2),
                      ConvexBody.polytope([[1, 0, 0], [2, 0, 0], [2, 1, 0], [2, 0, 1]]))
    assert intersects(ConvexBody.ball([0, 0], 1), ConvexBody.polytope([[1, 0], [2, 0], [2, 1]]))
    # on the line, boxes and vertex lists are segments
    assert intersects(ConvexBody.box([0], [1]), ConvexBody.polytope([[2], [1], ["3/2"]]))
    assert not intersects(ConvexBody.box([0], [1]), ConvexBody.polytope([[2], [3]]))
    assert intersects(ConvexBody.ball([0], 1), ConvexBody.polytope([[1], [3]]))
    assert not intersects(ConvexBody.polytope([[-3]]), ConvexBody.ball([0], 1))


def test_gjk_against_exact_balls():
    gen = np.random.Generator(np.random.Philox(key=17))
    for _ in range(400):
        c1 = gen.uniform(-2, 2, 3)
        c2 = gen.uniform(-2, 2, 3)
        r1, r2 = gen.uniform(0.2, 1.5, 2)
        a = ConvexBody.ball(c1.tolist(), Fraction(str(round(r1, 6))))
        b = ConvexBody.ball(c2.tolist(), Fraction(str(round(r2, 6))))
        margin = np.linalg.norm(c1 - c2) - (float(a.radius) + float(b.radius))
        if abs(margin) > 1e-6:
            assert gjk_intersects(a, b) == intersects(a, b)


def test_circumradius():
    assert ConvexBody.ball([3, 4], 2).circumradius() == pytest.approx(7.0)
    assert ConvexBody.cube(2, 1).circumradius() == pytest.approx(math.sqrt(0.5))


def test_exact_intrinsic_volumes():
    cube = ConvexBody.cube(3, 1)
    assert cube.exact_intrinsic_volume(2) == Scalar.from_rational(3)
    ball = ConvexBody.ball([0, 0, 0], 1)
    assert ball.exact_intrinsic_volume(1) == Scalar.from_rational(4)
    point = ConvexBody.polytope([[0, 0]])
    assert point.exact_intrinsic_volume(0) == Scalar.one()
    assert point.exact_intrinsic_volume(2).is_zero()


def test_polygon_helpers():
    square = ccw_order([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert polygon_area(square) == pytest.approx(1.0)
    _, normals, lengths = polygon_edges(square)
    assert lengths == pytest.approx(np.ones(4))
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    # outward: each normal points away from the centroid
    centroid = square.mean(axis=0)
    mids = (square + np.roll(square, -1, axis=0)) / 2
    assert np.all(np.einsum("ij,ij->i", normals, mids - centroid) > 0)


def test_minkowski_sum_volume_squares():
    sq = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]
    assert minkowski_sum_volume(sq, sq) == pytest.approx(4.0)
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = [[c * x - s * y, s * x + c * y] for x, y in sq]
    assert minkowski_sum_volume(sq, rot) == pytest.approx(2 + 2 * math.sqrt(2))


def test_minkowski_sum_volume_cubes():
    cube = ConvexBody.cube(3, 1).vertices_f()
    assert minkowski_sum_volume(cube, cube) == pytest.approx(8.0)


def test_body_spec_round_trip():
    cases = [({"kind": "ball", "center": ["0", "1/2"], "radius": "3/2"},
              ConvexBody.ball([0, Fraction(1, 2)], Fraction(3, 2)), ("center", "radius")),
             ({"kind": "box", "min": ["-1", "-2"], "max": ["1", "2"]},
              ConvexBody.box([-1, -2], [1, 2]), ("lo", "hi")),
             ({"kind": "polytope", "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
              ConvexBody.polytope([[0, 0], [1, 0], [0, 1]]), ("vertices",))]
    for doc, body, fields in cases:
        back = body_from_spec(doc)
        assert back.kind == body.kind
        for field in fields:
            assert getattr(back, field) == getattr(body, field), field


def test_validation_errors():
    with pytest.raises(ValueError):
        ConvexBody.ball([0, 0], 0)
    with pytest.raises(ValueError):
        ConvexBody.box([0, 0], [0, 1])
    with pytest.raises(ValueError):
        ConvexBody.polytope([])


# -- the batched kernel against the GJK oracle ---------------------------------------

PENTAGON = [[1, 0], [Fraction(3, 10), Fraction(19, 20)], [Fraction(-4, 5), Fraction(3, 5)],
            [Fraction(-4, 5), Fraction(-3, 5)], [Fraction(3, 10), Fraction(-19, 20)]]
QUAD = [[0, 0], [1, 0], [Fraction(3, 2), 1], [0, Fraction(7, 10)]]
TETRA = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
OCTA = [[1, 0, 0], [-1, 0, 0], [0, Fraction(1, 2), 0], [0, Fraction(-1, 2), 0],
        [0, 0, Fraction(3, 4)], [0, 0, Fraction(-3, 4)]]


def _random_polytope(gen, count):
    return ConvexBody.polytope(np.round(gen.normal(size=(count, 3)), 3).tolist())


def _check_against_gjk(a, b, count=150, seed=1):
    """The kernel's verdicts on seeded draws equal GJK's, except on draws
    within ~1e-9 of tangency, where GJK on B scaled by 1 -+ 1e-9 disagrees."""
    n = a.dimension
    gen = MC.rng_chunk(seed, 0)
    rots = MC.random_rotations(n, gen, count)
    half = a.circumradius() + b.circumradius()
    xs = gen.uniform(-half, half, size=(count, n))
    hits = kinematic_indicator(a, b)(xs, rots)
    compared = 0
    for x, r, hit in zip(xs, rots, hits):
        near = {gjk_intersects(a, moved(b, x, r, scale))
                for scale in (1 - 1e-9, 1 + 1e-9)}
        if len(near) == 1:
            assert hit == near.pop()
            compared += 1
    assert compared >= count - 2
    assert 0 < np.count_nonzero(hits) < count
    return hits


def test_sat_polygon_pairs():
    pentagon, quad = ConvexBody.polytope(PENTAGON), ConvexBody.polytope(QUAD)
    _check_against_gjk(pentagon, quad, 300)
    point = ConvexBody.polytope([[Fraction(1, 5), Fraction(1, 10)]])
    _check_against_gjk(pentagon, point, 300)
    _check_against_gjk(point, quad, 300)
    # interior, repeated and collinear vertices change nothing
    cloud = ConvexBody.polytope(QUAD + [[Fraction(1, 2), Fraction(1, 2)], [0, 0],
                                        [Fraction(1, 2), 0]])
    assert np.array_equal(cloud.geometry().vertices, quad.geometry().vertices)


def test_sat_box_point():
    for box in (ConvexBody.box([-1, 0], [1, Fraction(1, 2)]),
                ConvexBody.box([-1, 0, Fraction(-1, 4)], [1, Fraction(1, 2), 2])):
        point = ConvexBody.polytope([[Fraction(1, 3)] * box.dimension])
        _check_against_gjk(box, point, 300)


def test_sat_ball_polytope():
    disk = ConvexBody.ball([Fraction(1, 10), Fraction(1, 5)], Fraction(7, 10))
    pentagon = ConvexBody.polytope(PENTAGON)
    _check_against_gjk(disk, pentagon)
    _check_against_gjk(pentagon, disk)
    _check_against_gjk(disk, ConvexBody.polytope([[Fraction(1, 2), 0]]))
    ball = ConvexBody.ball([Fraction(1, 10), 0, Fraction(1, 5)], Fraction(7, 10))
    octa = ConvexBody.polytope(OCTA)
    _check_against_gjk(ball, octa)
    _check_against_gjk(octa, ball)


def test_sat_polytopes_in_space():
    gen = np.random.default_rng(3)
    for seed in range(3):
        _check_against_gjk(_random_polytope(gen, 10), _random_polytope(gen, 7),
                           seed=seed)
    _check_against_gjk(ConvexBody.polytope(TETRA), ConvexBody.polytope(OCTA))
    _check_against_gjk(ConvexBody.box([-1, 0, 0], [1, Fraction(1, 2), 2]),
                       ConvexBody.polytope(OCTA))


def test_kernel_rejects_incomplete_pairs():
    with pytest.raises(ValueError):
        kinematic_indicator(ConvexBody.cube(4), ConvexBody.cube(4))
    with pytest.raises(ValueError):
        kinematic_indicator(ConvexBody.polytope([[0, 0]]), ConvexBody.polytope([[1, 0]]))
    with pytest.raises(ValueError):
        kinematic_indicator(ConvexBody.cube(4), ConvexBody.polytope([[0] * 4]))
    flat = ConvexBody.polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        kinematic_indicator(ConvexBody.cube(3), flat)
    # a ball meets a box in any dimension by its closed form
    kinematic_indicator(ConvexBody.ball([0] * 5, 1), ConvexBody.cube(5))


# -- polytope intrinsic volumes ----------------------------------------------------------

def test_polytope_volumes_of_boxes():
    cube = ConvexBody.polytope(ConvexBody.cube(3, 1).vertices_f().tolist())
    assert cube.geometry().volumes == pytest.approx((1, 3, 3, 1), rel=1e-12)
    for box in (ConvexBody.box([Fraction(-1, 3)], [Fraction(2, 7)]),
                ConvexBody.box([0, -1], [Fraction(3, 2), Fraction(1, 4)]),
                ConvexBody.box([0, -1, 2], [Fraction(3, 2), Fraction(1, 4), 5])):
        n = box.dimension
        as_polytope = ConvexBody.polytope(box.vertices_f().tolist())
        exact = [MC.scalar_float(box.exact_intrinsic_volume(i)) for i in range(n + 1)]
        assert as_polytope.geometry().volumes == pytest.approx(exact, rel=1e-12)
        assert box.geometry().volumes == pytest.approx(exact, rel=1e-12)


def test_polytope_volumes_closed_forms():
    for k in (3, 5, 8):
        poly = ConvexBody.polytope([[math.cos(2 * math.pi * j / k),
                                     math.sin(2 * math.pi * j / k)] for j in range(k)])
        v = poly.geometry().volumes
        assert v[1] == pytest.approx(k * math.sin(math.pi / k), rel=1e-9)
        assert v[2] == pytest.approx(k / 2 * math.sin(2 * math.pi / k), rel=1e-9)
    # regular tetrahedron of edge 2 sqrt 2: external angle pi - arccos(1/3)
    v = ConvexBody.polytope(TETRA).geometry().volumes
    edge = 2 * math.sqrt(2)
    assert v[1] == pytest.approx(6 * edge * (math.pi - math.acos(1 / 3))
                                 / (2 * math.pi), rel=1e-12)
    assert v[2] == pytest.approx(math.sqrt(3) * edge ** 2 / 2, rel=1e-12)
    assert v[3] == pytest.approx(edge ** 3 / (6 * math.sqrt(2)), rel=1e-12)
    segment = ConvexBody.polytope([[0, 0], [3, 4], [Fraction(3, 2), 2]])
    assert segment.geometry().volumes == pytest.approx((1, 5, 0))


def test_float_views_cached_read_only():
    box = ConvexBody.box([0, 0, 0], [1, 2, 3])
    assert box.vertices_f() is box.vertices_f() and box.lo_f() is box.lo_f()
    assert box.geometry() is box.geometry()
    with pytest.raises(ValueError):
        box.vertices_f()[0, 0] = 5.0
    with pytest.raises(ValueError):
        box.geometry().facet_normals[0, 0] = 5.0
