import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from intgeo import montecarlo as MC
from intgeo.bodies import ConvexBody, kinematic_indicator
from intgeo.scalars import Scalar
from oracles import gjk_intersects, minkowski_sum_volume, moved

SAMPLES = 100_000


def unit_square():
    h = Fraction(1, 2)
    return ConvexBody.box([-h, -h], [h, h])


def test_scalar_float():
    assert MC.scalar_float(Scalar.pi_power(1, 2)) == pytest.approx(2 * math.pi)
    assert MC.scalar_float(Fraction(1, 4)) == 0.25
    assert MC.scalar_float(Scalar.zero()) == 0.0
    assert MC.scalar_float({0: Fraction(5), 1: Fraction(1)}) == 5 + math.pi


def test_rotations_orthogonal_det_one():
    gen = MC.rng_chunk(1, 0)
    for n in (1, 2, 3):
        rots = MC.random_rotations(n, gen, 400)
        gram = np.einsum("mij,mkj->mik", rots, rots)
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
        assert np.max(np.abs(np.linalg.det(rots) - 1.0)) <= 1e-12


def test_rotation_projection_law():
    # <Ru, v> for Haar R: arcsine law in the plane, uniform in 3-space
    gen = MC.rng_chunk(2024, 0)
    m = 100_000
    r2 = MC.random_rotations(2, gen, m)
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    x2 = np.einsum("mij,j->mi", r2, u) @ v
    stat2 = stats.kstest(x2, lambda t: 0.5 + np.arcsin(np.clip(t, -1, 1)) / np.pi).statistic
    assert stat2 <= 1e-2
    r3 = MC.random_rotations(3, gen, m)
    u3 = np.array([1.0, 0.0, 0.0])
    v3 = np.array([0.0, 0.0, 1.0])
    x3 = np.einsum("mij,j->mi", r3, u3) @ v3
    stat3 = stats.kstest(x3, stats.uniform(loc=-1, scale=2).cdf).statistic
    assert stat3 <= 1e-2


HAAR_SAMPLES = 1 << 17


def _haar_moment_misses(rots):
    """The Haar moments of SO(n) that a sample of rotations misses by more
    than 5 standard errors: E[R_ij] = 0, E[R_ij^2] = 1/n, E[tr R] = 0."""
    m, n, _ = rots.shape
    moments = {"tr": (np.trace(rots, axis1=1, axis2=2), 0.0)}
    for i in range(n):
        for j in range(n):
            moments[f"R{i}{j}"] = (rots[:, i, j], 0.0)
            moments[f"R{i}{j}^2"] = (rots[:, i, j] ** 2, 1.0 / n)
    return [name for name, (x, mean) in moments.items()
            if abs(x.mean() - mean) > 5 * x.std(ddof=1) / math.sqrt(m)]


def _euler_angle_rotations(gen, m):
    """Rz(a) Ry(b) Rz(c) with each angle uniform: not Haar, since
    E[R_22^2] = E[cos^2 b] = 1/2 where Haar gives 1/3."""
    def axis_rotation(t, p, q):
        r = np.zeros((m, 3, 3))
        r[:, 3 - p - q, 3 - p - q] = 1.0
        r[:, p, p] = r[:, q, q] = np.cos(t)
        r[:, p, q], r[:, q, p] = -np.sin(t), np.sin(t)
        return r
    a, c = gen.uniform(0.0, 2 * math.pi, (2, m))
    b = gen.uniform(0.0, math.pi, m)
    return axis_rotation(a, 0, 1) @ axis_rotation(b, 2, 0) @ axis_rotation(c, 0, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rotations_have_haar_moments(n):
    rots = MC.random_rotations(n, MC.rng_chunk(31, 0), HAAR_SAMPLES)
    assert _haar_moment_misses(rots) == []


def test_haar_moment_test_rejects_uniform_euler_angles():
    rots = _euler_angle_rotations(MC.rng_chunk(31, 0), HAAR_SAMPLES)
    assert np.allclose(np.linalg.det(rots), 1.0)
    assert "R22^2" in _haar_moment_misses(rots)


def test_bit_reproducibility():
    disk = ConvexBody.ball([0, 0], 1)
    a = MC.estimate_principal_kinematic(disk, unit_square(), 50_000, 99)
    b = MC.estimate_principal_kinematic(disk, unit_square(), 50_000, 99)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    c = MC.estimate_crofton(disk, 1, 50_000, 99)
    d = MC.estimate_crofton(disk, 1, 50_000, 99)
    assert (c.mean, c.stderr) == (d.mean, d.stderr)


def test_kinematic_disk_square():
    est = MC.estimate_principal_kinematic(
        ConvexBody.ball([0, 0], 1), unit_square(), SAMPLES, 11)
    assert est.prediction == pytest.approx(math.pi + 5)
    assert abs(est.z) <= 4


def test_kinematic_point_prediction():
    est = MC.estimate_principal_kinematic(
        ConvexBody.ball([0, 0], 1), ConvexBody.polytope([[0, 0]]), 20_000, 3)
    assert est.prediction == pytest.approx(math.pi)
    assert abs(est.z) <= 4


def test_kinematic_ball_ball_any_dimension():
    est = MC.estimate_principal_kinematic(
        ConvexBody.ball([0, 0, 0], Fraction(1, 2)),
        ConvexBody.ball([0, 0, 0], Fraction(1, 2)), SAMPLES, 12)
    assert est.prediction == pytest.approx(4 * math.pi / 3)
    assert abs(est.z) <= 4


def test_crofton_examples():
    est = MC.estimate_crofton(ConvexBody.ball([0, 0], 1), 1, SAMPLES, 21)
    assert est.prediction == pytest.approx(math.pi)
    # every sampled line meets the disk: only float cancellation noise remains
    assert est.stderr <= 1e-9 and est.mean == pytest.approx(math.pi)
    est2 = MC.estimate_crofton(unit_square(), 1, SAMPLES, 22)
    assert est2.prediction == pytest.approx(2.0)
    assert abs(est2.z) <= 4
    est3 = MC.estimate_crofton(ConvexBody.cube(3, 1), 2, SAMPLES, 23)
    assert est3.prediction == pytest.approx(3.0)
    assert abs(est3.z) <= 4


def test_cauchy_examples():
    est = MC.cauchy_projection_check(unit_square(), SAMPLES, 31)
    assert est.prediction == pytest.approx(2.0)
    assert abs(est.z) <= 4
    est3 = MC.cauchy_projection_check(ConvexBody.cube(3, 1), SAMPLES, 32)
    assert est3.prediction == pytest.approx(3.0)
    assert abs(est3.z) <= 4


def test_steiner_example():
    est = MC.steiner_mc(unit_square(), 1, SAMPLES, 41)
    assert est.prediction == pytest.approx(5 + math.pi)
    assert abs(est.z) <= 4


def test_additive_examples():
    pred = MC.additive_volume_prediction(unit_square(), unit_square())
    assert pred == {0: 2, -1: 8}
    est = MC.estimate_additive(unit_square(), unit_square(), SAMPLES, 51)
    assert est.prediction == pytest.approx(2 + 8 / math.pi)
    assert abs(est.z) <= 4
    balls = MC.estimate_additive(ConvexBody.ball([0, 0], 1),
                                 ConvexBody.ball([0, 0], 1), 100, 52)
    assert balls.stderr == 0.0
    assert balls.mean == pytest.approx(4 * math.pi)
    point = MC.estimate_additive(unit_square(), ConvexBody.polytope([[0, 0]]),
                                 100, 53)
    assert point.stderr == 0.0 and point.mean == 1.0 and point.z == 0.0


def test_additive_3d_cubes():
    est = MC.estimate_additive(ConvexBody.cube(3, 1), ConvexBody.cube(3, 1),
                               400, 54)
    assert abs(est.z) <= 4


def test_box_box_sat_against_gjk():
    # the vectorized separating-axis kernel agrees with the generic search
    sq = unit_square()
    gen = MC.rng_chunk(77, 0)
    rots = MC.random_rotations(2, gen, 300)
    xs = gen.uniform(-1.5, 1.5, size=(300, 2))
    hits = kinematic_indicator(sq, sq)(xs, rots)
    for i in range(300):
        assert hits[i] == gjk_intersects(sq, moved(sq, xs[i], rots[i])), i
    cube = ConvexBody.cube(3, 1)
    rots3 = MC.random_rotations(3, gen, 200)
    xs3 = gen.uniform(-1.5, 1.5, size=(200, 3))
    hits3 = kinematic_indicator(cube, cube)(xs3, rots3)
    for i in range(200):
        assert hits3[i] == gjk_intersects(cube, moved(cube, xs3[i], rots3[i])), i


def _raise_dominance_guards(samples, monkeypatch):
    """A hit outside the sampled window, or outside the fiber ball, is an
    error; from a pool thread it reaches the caller, and the pool ends with
    the run."""
    monkeypatch.setattr(MC, "_usable_cpus", lambda: 2)
    ran_in = set()

    def hits(xs, rots):
        ran_in.add(threading.get_ident())
        return np.ones(len(xs), dtype=bool)

    monkeypatch.setattr(MC, "kinematic_indicator", lambda a, b: hits)
    before = threading.active_count()
    with pytest.raises(AssertionError, match="window does not dominate"):
        MC.estimate_principal_kinematic(unit_square(), unit_square(), samples, 1)
    # one chunk runs inline, more run on the pool
    assert (threading.get_ident() in ran_in) == (samples <= MC.CHUNK)
    assert threading.active_count() == before

    class Stretched(np.random.Generator):
        def uniform(self, *args, **kwargs):  # offsets up to twice the fiber radius
            return 2 * super().uniform(*args, **kwargs)

    monkeypatch.setattr(MC, "rng_chunk", lambda seed, index: Stretched(
        np.random.Philox(key=seed).jumped(index)))
    monkeypatch.setattr(MC, "_flat_hits", lambda a, dirs, normals, offsets:
                        np.ones(len(offsets[0]), dtype=bool))
    for k in (1, 2):
        with pytest.raises(AssertionError, match="fiber ball does not dominate"):
            MC.estimate_crofton(ConvexBody.ball([0, 0, 0], 1), k, samples, 1)
        assert threading.active_count() == before


def test_dominance_guards_raise(monkeypatch):
    _raise_dominance_guards(200, monkeypatch)


def test_dominance_guards_raise_from_pool_threads(monkeypatch):
    _raise_dominance_guards(MC.CHUNK + 1, monkeypatch)  # two chunks


def test_dominance_guard_bound():
    # a hit may lie 1e-9 beyond the radius, and not one ulp further
    radius = 1.5
    edge = radius + 1e-9
    for x in (edge, -edge):
        MC._require_within(np.array([True, False]), [np.array([x, 9.0])], radius, "w")
    with pytest.raises(AssertionError):
        MC._require_within(np.array([True]), [np.array([np.nextafter(edge, 2)])],
                           radius, "w")


def test_minkowski_volumes_against_hull():
    gen = np.random.default_rng(5)
    pairs = [(ConvexBody.cube(3, 1), ConvexBody.box([0, 0, 0], [1, 2, Fraction(1, 2)]))]
    for _ in range(3):
        pairs.append(tuple(ConvexBody.polytope(np.round(gen.normal(size=(k, 3)), 3).tolist())
                           for k in (9, 6)))
    rots = MC.random_rotations(3, MC.rng_chunk(8, 0), 60)
    for a, b in pairs:
        vals = MC.minkowski_volumes(a.geometry(), b.geometry(), rots)
        hull = [minkowski_sum_volume(a.vertices_f(), b.vertices_f() @ r.T)
                for r in rots]
        assert vals == pytest.approx(hull, rel=1e-9)


def test_polytope_float_predictions():
    pentagon = ConvexBody.polytope([[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1]])
    tetra = ConvexBody.polytope([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    for a, b in ((pentagon, unit_square()), (tetra, ConvexBody.cube(3, 1))):
        est = MC.estimate_principal_kinematic(a, b, 20_000, 61)
        assert est.prediction is not None and abs(est.z) <= 4
        est = MC.estimate_additive(a, b, 20_000, 62)
        assert est.prediction is not None and abs(est.z) <= 4
    # balls and boxes keep their exact prediction
    pred = MC.principal_kinematic_prediction(ConvexBody.ball([0, 0], 1), unit_square())
    assert pred == {0: 5, 1: 1}


def test_default_suite_small():
    runs = MC.default_suite(samples=60_000)
    assert len(runs) == MC.SUITE_RUNS == 12
    names = [r.name for r in runs]
    assert len(set(names)) == 12
    for r in runs:
        assert abs(r.z) <= 4, (r.name, r.z)


def test_zscore_conventions():
    est = MC.MCEstimate("x", 1.0, 0.0, 10, 0, prediction=1.0)
    assert est.z == 0.0
    est2 = MC.MCEstimate("x", 2.0, 0.0, 10, 0, prediction=1.0)
    assert est2.z == math.inf
    est3 = MC.MCEstimate("x", 2.0, 0.5, 10, 0, prediction=None)
    assert est3.z == 0.0


def test_hit_or_miss_variance_when_all_samples_agree():
    # strictly between, the helper is the sample variance of scale * {0, 1}
    est = MC._hit_or_miss("x", 2.5, 300.0, 1000, 0, 1.0, {})
    ref = MC._estimate_from_values("x", 2.5 * 300.0, 2.5 ** 2 * 300.0, 1000, 0, 1.0, {})
    assert (est.mean, est.stderr) == (ref.mean, ref.stderr)
    # no hits against a true rate of 0.4: the Laplace rate keeps z finite and huge
    none = MC._hit_or_miss("x", 1.0, 0.0, 1000, 0, 0.4, {})
    assert none.mean == 0.0 and math.isfinite(none.z) and none.z < -100
    every = MC._hit_or_miss("x", 1.0, 1000.0, 1000, 0, 0.6, {})
    assert math.isfinite(every.z) and every.z > 100


def test_sample_variance_estimators_refuse_tiny_runs():
    few = MC.MIN_VARIANCE_SAMPLES - 1
    with pytest.raises(ValueError):
        MC.cauchy_projection_check(unit_square(), few, 1)
    with pytest.raises(ValueError):
        MC.estimate_additive(unit_square(), unit_square(), few, 1)
    with pytest.raises(ValueError):
        MC.default_suite(samples=few, seed=1)
    est = MC.cauchy_projection_check(unit_square(), MC.MIN_VARIANCE_SAMPLES, 1)
    assert est.samples == MC.MIN_VARIANCE_SAMPLES


def test_cli_two_sample_kinematic_has_finite_z(capsys):
    # two samples either split (sample variance) or agree (Laplace rate, see
    # test_hit_or_miss_variance_when_all_samples_agree); either way the
    # stderr is positive and z finite
    from intgeo import cli
    assert cli.main(["mc", "kinematic", "--samples", "2", "--seed", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()[:2]
    row = dict(zip(header.split(","), row.split(",")))
    assert float(row["stderr"]) > 0
    assert math.isfinite(float(row["z"]))



# -- which inputs each estimator serves ----------------------------------------------

def _bodies(n):
    """One body of each kind in R^n: the polytope is a simplex, a segment on
    the line."""
    return {"ball": ConvexBody.ball([0] * n, 1),
            "box": ConvexBody.box([0] * n, [1, 2, Fraction(1, 2), Fraction(3, 2)][:n]),
            "polytope": ConvexBody.polytope([[0] * n] + np.eye(n, dtype=int).tolist()),
            "point": ConvexBody.polytope([[Fraction(1, 3)] * n])}


def _calls(estimator, bodies):
    """(label, call) of every input the matrix gives an estimator."""
    pairs = [(x, y) for x in bodies for y in bodies]
    if estimator == "kinematic":
        return [(p, lambda p=p: MC.estimate_principal_kinematic(
            bodies[p[0]], bodies[p[1]], 200, 5)) for p in pairs]
    if estimator == "additive":
        return [(p, lambda p=p: MC.estimate_additive(
            bodies[p[0]], bodies[p[1]], 200, 5)) for p in pairs]
    if estimator == "crofton":
        return [((x, k), lambda x=x, k=k: MC.estimate_crofton(bodies[x], k, 200, 5))
                for x in bodies for k in (1, 2)]
    if estimator == "steiner":
        return [(x, lambda x=x: MC.steiner_mc(bodies[x], Fraction(1, 2), 200, 5))
                for x in bodies]
    return [(x, lambda x=x: MC.cauchy_projection_check(bodies[x], 200, 5))
            for x in bodies]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("estimator",
                         ["kinematic", "additive", "crofton", "steiner", "cauchy"])
def test_estimators_serve_or_refuse_before_sampling(estimator, n, monkeypatch):
    # each input either gets an estimate or raises ValueError with no chunk drawn
    drawn, draw = [], MC.rng_chunk

    def spy(seed, index):
        drawn.append(index)
        return draw(seed, index)

    monkeypatch.setattr(MC, "rng_chunk", spy)
    served = set()
    for label, call in _calls(estimator, _bodies(n)):
        del drawn[:]
        try:
            est = call()
        except ValueError:
            assert drawn == [], label
        else:
            assert isinstance(est, MC.MCEstimate) and est.samples == 200, label
            served.add(label)
    if estimator == "kinematic" and n == 1:
        # boxes and vertex lists on the line are segments, served by one kernel
        kinds = ("ball", "box", "polytope", "point")
        assert served == {(x, y) for x in kinds for y in kinds} - {("point", "point")}
