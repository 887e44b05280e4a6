import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from domekit.errors import CrossingLeaves
from domekit.hyperbolic import (
    GeodesicH2,
    PointH2,
    PointH3,
    ball_to_halfspace,
    boundary_to_sphere,
    busemann,
    dist_h2,
    dist_h2_array,
    dist_h3,
    dist_h3_array,
    dist_point_geodesic_h2,
    disk_to_halfspace,
    geodesic_distance,
    geodesic_ray_point,
    halfspace_to_ball,
    poincare_extension,
    point_vec,
    sphere_to_boundary,
)
from domekit.mobius import CAYLEY, INF, MobiusMap, random_disk_mobius, random_mobius

from _oracles import min_distance_between_geodesics


def leaf_from_uhp(a: float, b: float) -> GeodesicH2:
    """Disk geodesic with prescribed real endpoints in the half-plane model."""
    inv = CAYLEY.inverse()
    za, zb = inv(a), inv(b)
    return GeodesicH2.from_angles(cmath.phase(za), cmath.phase(zb))


class TestDistH2:
    def test_zero(self):
        assert dist_h2(PointH2(0j), PointH2(0j)) == 0.0

    def test_radial_matches_quadrature(self):
        # independent oracle: integrate the density 2/(1 - t^2) along the radius
        for r in (0.1, 0.5, 0.9):
            val, _ = quad(lambda t: 2.0 / (1.0 - t * t), 0.0, r)
            assert dist_h2(PointH2(0j), PointH2(r)) == pytest.approx(val, abs=1e-10)
            assert val == pytest.approx(math.log((1 + r) / (1 - r)), abs=1e-12)

    def test_mobius_invariance(self, rng):
        for _ in range(1000):
            m = random_disk_mobius(rng)
            z = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
            w = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
            assert abs(dist_h2(m(z), m(w)) - dist_h2(z, w)) < 1e-12

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            a, b, c = (0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
                       for _ in range(3))
            assert dist_h2(a, c) <= dist_h2(a, b) + dist_h2(b, c) + 1e-12

    def test_boundary_points_rejected(self):
        with pytest.raises(ValueError):
            PointH2(1.0 - 1e-10)


class TestCloseDistances:
    """Pairs 1e-8 apart (relative to their distance from the boundary),
    against acosh(1 + u) at 50 digits; acosh(1 + u) in floats keeps only
    half the digits there."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(r=st.floats(0.0, 0.99), phi=st.floats(0.0, 2 * math.pi),
           theta=st.floats(0.0, 2 * math.pi))
    def test_disk_against_mpmath(self, r, phi, theta):
        mpmath = pytest.importorskip("mpmath")
        z1 = r * cmath.exp(1j * phi)
        z2 = z1 + 1e-8 * (1.0 - r) * cmath.exp(1j * theta)
        with mpmath.workdps(50):
            a, b = mpmath.mpc(z1), mpmath.mpc(z2)
            want = mpmath.acosh(1 + 2 * abs(a - b) ** 2 / ((1 - abs(a) ** 2) * (1 - abs(b) ** 2)))
        assert abs(dist_h2(z1, z2) - want) <= 1e-13 * want
        got = dist_h2_array(np.array([z1]), np.array([z2]))[0]
        assert abs(got - want) <= 1e-13 * want

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(-10.0, 10.0), y=st.floats(-10.0, 10.0), t=st.floats(1e-3, 10.0),
           theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi))
    def test_halfspace_against_mpmath(self, x, y, t, theta, phi):
        mpmath = pytest.importorskip("mpmath")
        step = 1e-8 * t
        p = PointH3(x, y, t)
        q = PointH3(x + step * math.sin(theta) * math.cos(phi),
                    y + step * math.sin(theta) * math.sin(phi), t + step * math.cos(theta))
        with mpmath.workdps(50):
            num = sum((mpmath.mpf(u) - v) ** 2 for u, v in ((p.x, q.x), (p.y, q.y), (p.t, q.t)))
            want = mpmath.acosh(1 + num / (2 * mpmath.mpf(p.t) * q.t))
        assert abs(dist_h3(p, q) - want) <= 1e-13 * want
        got = dist_h3_array(np.array([p.z]), np.array([p.t]), np.array([q.z]), np.array([q.t]))[0]
        assert abs(got - want) <= 1e-13 * want


class TestGeodesicDistance:
    def test_equal_leaves(self):
        g = GeodesicH2.from_angles(0.2, 1.4)
        d, *_ = geodesic_distance(g, g)
        assert d == 0.0

    def test_asymptotic_leaves(self):
        g1 = GeodesicH2.from_angles(0.0, 2.0)
        g2 = GeodesicH2.from_angles(0.0, 4.0)
        d, f1, f2 = geodesic_distance(g1, g2)
        assert d == 0.0 and f1 is None and f2 is None

    def test_known_distance(self):
        d = 0.8
        g1 = leaf_from_uhp(-1.0, 1.0)
        g2 = leaf_from_uhp(-math.exp(d), math.exp(d))
        dd, f1, f2 = geodesic_distance(g1, g2)
        assert dd == pytest.approx(d, abs=1e-12)
        assert dist_h2(f1, f2) == pytest.approx(d, abs=1e-12)

    def test_crossing_raises(self):
        g1 = GeodesicH2.from_angles(0.0, 2.0)
        g2 = GeodesicH2.from_angles(1.0, 3.0)
        with pytest.raises(CrossingLeaves):
            geodesic_distance(g1, g2)

    def test_matches_sampling_oracle(self, rng):
        for _ in range(12):
            # disjoint pair: both leaves inside complementary arcs
            t = np.sort(rng.uniform(0, 2 * math.pi, 4))
            g1 = GeodesicH2.from_angles(t[0], t[1])
            g2 = GeodesicH2.from_angles(t[2], t[3])
            d, *_ = geodesic_distance(g1, g2)
            brute = min_distance_between_geodesics(g1, g2)
            assert brute == pytest.approx(d, abs=1e-6)

    def test_feet_lie_on_leaves(self, rng):
        g1 = leaf_from_uhp(-2.0, -0.5)
        g2 = leaf_from_uhp(0.5, 2.0)
        d, f1, f2 = geodesic_distance(g1, g2)
        assert dist_point_geodesic_h2(f1.z, g1) < 1e-9
        assert dist_point_geodesic_h2(f2.z, g2) < 1e-9


class TestPoincareExtension:
    def test_identity(self):
        p = PointH3(0.4, -0.3, 2.0)
        q = poincare_extension(MobiusMap.identity(), p)
        assert dist_h3(p, q) < 1e-14

    def test_dilation_scales_height(self):
        m = MobiusMap(math.sqrt(2), 0, 0, 1 / math.sqrt(2))  # z -> 2z
        q = poincare_extension(m, PointH3(0, 0, 1))
        assert (q.x, q.y) == (0, 0)
        assert q.t == pytest.approx(2.0, abs=1e-14)

    def test_preserves_h3_distance(self, rng):
        for _ in range(1000):
            m = random_mobius(rng)
            p = PointH3(rng.normal(), rng.normal(), rng.uniform(0.1, 3))
            q = PointH3(rng.normal(), rng.normal(), rng.uniform(0.1, 3))
            d0 = dist_h3(p, q)
            d1 = dist_h3(poincare_extension(m, p), poincare_extension(m, q))
            assert abs(d1 - d0) < 1e-12 * max(1.0, d0)

    def test_boundary_action_matches(self, rng):
        # extension converges to the plane action near the boundary
        m = random_mobius(rng)
        z = 0.3 + 0.2j
        p = poincare_extension(m, PointH3(z.real, z.imag, 1e-8))
        assert abs(complex(p.x, p.y) - m(z)) < 1e-6


class TestModelConversions:
    def test_ball_roundtrip(self, rng):
        for _ in range(50):
            p = PointH3(rng.normal(), rng.normal(), rng.uniform(0.05, 5.0))
            q = ball_to_halfspace(halfspace_to_ball(p))
            assert dist_h3(p, q) < 1e-10

    def test_sphere_roundtrip(self):
        for z in (0.0, 2 + 1j, INF, -3j):
            v = boundary_to_sphere(z)
            assert abs(np.linalg.norm(v) - 1) < 1e-12
            w = sphere_to_boundary(v)
            if z == INF:
                assert w == INF
            else:
                assert abs(w - z) < 1e-12

    @pytest.mark.parametrize("z", [1e160 + 0j, -3e159 + 4e159j, 1e300 - 1e300j])
    def test_sphere_beyond_float_squares(self, z):
        # |z|^2 overflows a float beyond ~1.3e154: the point is 2/conj(z) from the pole
        v = boundary_to_sphere(z)
        assert v[2] == 1.0
        assert abs(complex(v[0], v[1]) - 2 / z.conjugate()) <= 1e-15 * abs(2 / z)

    def test_sphere_below_the_scaled_branch(self):
        z = 1e150 * cmath.exp(0.3j)
        n = abs(z) ** 2
        want = np.array([2 * z.real, 2 * z.imag, n - 1.0]) / (n + 1.0)
        assert boundary_to_sphere(z).tolist() == want.tolist()

    def test_point_vec_same_bits_for_scalars_and_arrays(self, rng):
        # a numpy scalar's ** 2 goes through pow and an array's through x * x;
        # at the first point the two put a side value on either side of
        # -ON_LEAF_TOL
        r = np.sqrt(rng.uniform(0.0, 0.999**2, 20000))
        zs = np.concatenate(([-0.24573449136332562 + 0.940889132896685j],
                             r * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 20000))))
        batched = point_vec(zs)
        for z, row in zip(zs.tolist(), batched):
            assert [x.hex() for x in point_vec(z).tolist()] == [
                x.hex() for x in row.tolist()]

    def test_disk_embedding(self):
        p = disk_to_halfspace(0j)
        assert (p.x, p.y) == (0.0, 0.0) and p.t == pytest.approx(1.0)


class TestBusemann:
    def test_zero_at_basepoint(self):
        b = PointH3(0.5, 0.5, 2.0)
        assert busemann(1 + 1j, b, b) == 0.0

    def test_height_formula_at_infinity(self):
        base = PointH3(0, 0, 1)
        for t in (0.5, 1.0, 3.0):
            assert busemann(INF, PointH3(0.7, -0.2, t), base) == pytest.approx(
                -math.log(t), abs=1e-12
            )

    def test_decreases_along_ray(self, rng):
        xi = 0.3 - 0.7j
        start = PointH3(-1.0, 0.5, 2.0)
        base = PointH3(0, 0, 1)
        vals = [
            busemann(xi, geodesic_ray_point(xi, start, s), base)
            for s in np.linspace(0, 5, 100)
        ]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
        # unit-speed ray: values decrease linearly
        assert vals[0] - vals[-1] == pytest.approx(5.0, abs=1e-9)

    def test_level_set_horosphere(self, rng):
        # points of equal height map to one horosphere at the image of infinity
        m = random_mobius(rng)
        xi = m(INF)
        base = PointH3(0, 0, 1)
        pts = [
            poincare_extension(m, PointH3(rng.normal(), rng.normal(), 1.7))
            for _ in range(10)
        ]
        vals = [busemann(xi, p, base) for p in pts]
        assert max(vals) - min(vals) < 1e-10
