import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudoheat.geometry import (
    Dilation,
    HoricyclicPoint,
    HyperboloidPoint,
    Inversion,
    Translation,
    from_hyperboloid,
    geodesic_distance,
    laplace_beltrami_apply,
    log_height,
    minkowski_dot,
    normalize_pair,
    sphere_surface_area,
    to_hyperboloid,
)


def random_point(rng, dim):
    y = float(rng.uniform(0.25, 4.0))
    x = rng.uniform(-2.0, 2.0, size=dim - 2)
    return HoricyclicPoint(y, tuple(x))


def test_point_validation():
    with pytest.raises(ValueError):
        HoricyclicPoint(0.0, (0.0,))
    with pytest.raises(ValueError):
        HoricyclicPoint(-1.0, (0.0,))
    with pytest.raises(ValueError):
        HoricyclicPoint(1.0, ())
    q = HoricyclicPoint(2, [1, 2])
    assert q.dim == 4 and isinstance(q.x, tuple)


def test_to_hyperboloid_axis_point():
    # y=1, x=0 forces Z0+Z1=1 and Z2=0; the sheet constraint then pins Z=(1,0,0)
    z = to_hyperboloid(HoricyclicPoint(1.0, (0.0,)))
    assert z.z == (1.0, 0.0, 0.0)


def test_to_hyperboloid_solved_example():
    # solve Z0+Z1 = 1/2, Z0^2 - Z1^2 = 1 by hand: Z0 = 5/4, Z1 = -3/4
    z = to_hyperboloid(HoricyclicPoint(2.0, (0.0, 0.0)))
    assert z.z == pytest.approx((1.25, -0.75, 0.0, 0.0), abs=1e-15)
    back = from_hyperboloid(z)
    assert back.y == pytest.approx(2.0, rel=1e-15)
    assert back.x == (0.0, 0.0)


def test_roundtrip_random():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        dim = int(rng.integers(3, 7))
        q = random_point(rng, dim)
        back = from_hyperboloid(to_hyperboloid(q))
        assert back.y == pytest.approx(q.y, rel=1e-12)
        for u, v in zip(back.x, q.x):
            assert u == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_embedding_constraint_tight():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        q = random_point(rng, int(rng.integers(3, 7)))
        z = to_hyperboloid(q).z
        defect = z[0] ** 2 - sum(v * v for v in z[1:]) - 1.0
        assert abs(defect) <= 1e-12


def test_from_hyperboloid_boundary_behavior():
    # Z0 + Z1 -> 0+ corresponds to y -> infinity; stays valid while positive
    q = HoricyclicPoint(1e6, (0.0,))
    z = to_hyperboloid(q)
    assert z.z[0] + z.z[1] > 0.0
    # cancellation in Z0 + Z1 costs ~ y^2 eps of relative accuracy out here
    assert from_hyperboloid(z).y == pytest.approx(1e6, rel=1e-3)
    # hand-built point hugging the light cone: Z0+Z1 = 1e-4, Z0-Z1 = 2e4
    near = HyperboloidPoint((10000.00005, -9999.99995, 1.0))
    assert from_hyperboloid(near).y == pytest.approx(1e4, rel=1e-7)


def test_from_hyperboloid_rejects_wrong_side():
    bad = object.__new__(HyperboloidPoint)
    object.__setattr__(bad, "z", (1.0, -1.5, 0.0))
    with pytest.raises(ValueError):
        from_hyperboloid(bad)


def test_hyperboloid_constructor_rejects_off_sheet():
    with pytest.raises(ValueError):
        HyperboloidPoint((1.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        HyperboloidPoint((-1.0, 0.0, 0.0))


def test_distance_identity_and_vertical_pair():
    q = HoricyclicPoint(1.0, (0.0,))
    assert geodesic_distance(q, q) == 0.0
    qe = HoricyclicPoint(math.e, (0.0,))
    d = geodesic_distance(q, qe)
    assert d == pytest.approx(1.0, rel=1e-14)
    assert math.cosh(d) == pytest.approx(math.cosh(1.0), rel=1e-14)


def test_distance_offset_example():
    # k = 1 + |x2-x1|^2 / (2 y1 y2) = 2 for the unit-height pair offset by (1,1)
    q1 = HoricyclicPoint(1.0, (0.0, 0.0))
    q2 = HoricyclicPoint(1.0, (1.0, 1.0))
    assert geodesic_distance(q1, q2) == pytest.approx(math.acosh(2.0), rel=1e-14)


def test_distance_matches_minkowski_form():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(3, 7))
        q1, q2 = random_point(rng, dim), random_point(rng, dim)
        d = geodesic_distance(q1, q2)
        dot = minkowski_dot(to_hyperboloid(q1), to_hyperboloid(q2))
        assert math.cosh(d) == pytest.approx(dot, rel=1e-10)


def test_distance_nearby_points_keep_relative_accuracy():
    q1 = HoricyclicPoint(1.0, (0.0,))
    q2 = HoricyclicPoint(1.0 + 1e-9, (0.0,))
    d = geodesic_distance(q1, q2)
    assert d == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize("exponent", [100, 160, 300])
def test_distance_far_apart_is_finite(exponent):
    # a vertical pair 10^k apart is k ln 10 apart; cosh d - 1 = 10^k / 2, and
    # its square overflowed binary64 past d ~ 355
    q1, q2 = HoricyclicPoint(1.0, (0.0,)), HoricyclicPoint(10.0 ** -exponent, (0.0,))
    d = geodesic_distance(q1, q2)
    assert type(d) is float and d == pytest.approx(exponent * math.log(10.0), rel=1e-15)
    far = HoricyclicPoint(1.0, (1e150,))  # flat offset: cosh d - 1 = 5e299
    assert geodesic_distance(q1, far) == pytest.approx(math.log(1e300), rel=1e-15)


@given(
    y1=st.floats(0.3, 3.0),
    y2=st.floats(0.3, 3.0),
    x1=st.floats(-2.0, 2.0),
    x2=st.floats(-2.0, 2.0),
)
def test_distance_symmetry_property(y1, y2, x1, x2):
    q1 = HoricyclicPoint(y1, (x1,))
    q2 = HoricyclicPoint(y2, (x2,))
    assert geodesic_distance(q1, q2) == geodesic_distance(q2, q1)
    assert geodesic_distance(q1, q2) >= 0.0


def test_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        dim = int(rng.integers(3, 7))
        a, b, c = (random_point(rng, dim) for _ in range(3))
        assert geodesic_distance(a, c) <= geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-10


def test_isometry_generators_preserve_distance():
    rng = np.random.default_rng(9)
    for _ in range(200):
        dim = int(rng.integers(3, 6))
        q1, q2 = random_point(rng, dim), random_point(rng, dim)
        d = geodesic_distance(q1, q2)
        for op in (
            Translation(tuple(rng.uniform(-3, 3, size=dim - 2))),
            Dilation(float(rng.uniform(0.2, 5.0))),
            Inversion(),
        ):
            d2 = geodesic_distance(op.apply(q1), op.apply(q2))
            assert d2 == pytest.approx(d, rel=1e-12, abs=1e-13)


def test_normalize_pair_identity():
    q = HoricyclicPoint(1.0, (0.0,))
    p1, p2, rec = normalize_pair(q, q)
    assert rec.ops == ()
    assert p1 == q and p2 == q


def test_normalize_pair_example():
    q1 = HoricyclicPoint(1.0, (0.0,))
    q2 = HoricyclicPoint(1.0, (2.0,))
    d = geodesic_distance(q1, q2)
    assert d == pytest.approx(math.acosh(3.0), rel=1e-14)
    p1, p2, rec = normalize_pair(q1, q2)
    assert abs(p1.x[0]) <= 1e-12 and abs(p2.x[0]) <= 1e-12
    assert geodesic_distance(p1, p2) == pytest.approx(d, rel=1e-12)
    # the record replays to the same images
    r1, r2 = rec.apply(q1), rec.apply(q2)
    assert r1 == p1 and r2 == p2


def test_normalize_pair_random():
    rng = np.random.default_rng(13)
    for _ in range(500):
        dim = int(rng.integers(3, 7))
        q1, q2 = random_point(rng, dim), random_point(rng, dim)
        d = geodesic_distance(q1, q2)
        p1, p2, _ = normalize_pair(q1, q2)
        assert max(abs(v) for v in p1.x + p2.x) <= 1e-12
        assert geodesic_distance(p1, p2) == pytest.approx(d, rel=1e-12, abs=1e-13)


def test_log_height():
    assert log_height(HoricyclicPoint(1.0, (0.0,))) == 0.0
    assert log_height(HoricyclicPoint(math.e, (0.0,))) == pytest.approx(1.0, rel=1e-15)
    assert log_height(HoricyclicPoint(math.e**2, (0.0,))) == pytest.approx(2.0, rel=1e-15)


def test_laplace_beltrami_constant_annihilated():
    q = HoricyclicPoint(1.3, (0.4,))
    assert laplace_beltrami_apply(lambda _: 1.0, q, 1e-4) == pytest.approx(0.0, abs=1e-8)


def test_laplace_beltrami_log_height():
    # y^2 (-1/y^2) - (D-3) y (1/y) = -1 - (D-3)
    for dim, expected in ((3, -1.0), (5, -3.0)):
        q = HoricyclicPoint(1.7, (0.2,) * (dim - 2))
        got = laplace_beltrami_apply(lambda p: math.log(p.y), q, 1e-4)
        assert got == pytest.approx(expected, abs=1e-6)


@given(c=st.floats(-2.0, 2.0), y=st.floats(0.5, 3.0), dim=st.integers(3, 6))
def test_laplace_beltrami_exponential_eigenfield(c, y, dim):
    # on f = y^c the operator acts as multiplication by c^2 - (D-2) c
    q = HoricyclicPoint(y, (0.1,) * (dim - 2))
    f = lambda p: p.y**c
    got = laplace_beltrami_apply(f, q, 1e-4 * max(1.0, y))
    want = (c * c - (dim - 2) * c) * y**c
    assert got == pytest.approx(want, rel=1e-5, abs=1e-7)


def test_laplace_beltrami_rejects_bad_steps():
    q = HoricyclicPoint(0.5, (0.0,))
    with pytest.raises(ValueError):
        laplace_beltrami_apply(lambda _: 0.0, q, 0.0)
    with pytest.raises(ValueError):
        laplace_beltrami_apply(lambda _: 0.0, q, 0.6)


def test_sphere_surface_area():
    assert sphere_surface_area(0) == pytest.approx(2.0)
    assert sphere_surface_area(1) == pytest.approx(2.0 * math.pi)
    assert sphere_surface_area(2) == pytest.approx(4.0 * math.pi)
    assert sphere_surface_area(3) == pytest.approx(2.0 * math.pi**2)


def test_normalize_pair_vertical_nonzero_offset():
    # equal flat coordinates: a single translation suffices
    q1 = HoricyclicPoint(0.5, (1.5, -2.0))
    q2 = HoricyclicPoint(3.0, (1.5, -2.0))
    p1, p2, rec = normalize_pair(q1, q2)
    assert len(rec.ops) == 1
    assert p1.x == (0.0, 0.0) and p2.x == (0.0, 0.0)
    assert geodesic_distance(p1, p2) == pytest.approx(geodesic_distance(q1, q2), rel=1e-15)
