import cmath
import math

import numpy as np
import pytest

from domekit.errors import DegenerateMobius
from domekit.mobius import (
    INF,
    CircleOrLine,
    MobiusMap,
    chordal_distance,
    random_disk_mobius,
    random_mobius,
)


def test_identity_fixes_point():
    m = MobiusMap.identity()
    assert m(3 + 4j) == 3 + 4j


def test_inversion():
    m = MobiusMap(0, 1, 1, 0)
    assert abs(m(2) - 0.5) < 1e-15
    assert m(0) == INF
    assert m(INF) == 0


def test_composition_matches_pointwise(rng):
    for _ in range(200):
        m1, m2 = random_mobius(rng), random_mobius(rng)
        z = complex(rng.normal(), rng.normal())
        direct = m1.compose(m2)(z)
        stepwise = m1(m2(z))
        assert abs(direct - stepwise) <= 1e-12 * max(1.0, abs(stepwise))


def test_inverse_composes_to_identity(rng):
    for _ in range(100):
        m = random_mobius(rng)
        assert m.compose(m.inverse()).is_identity(tol=1e-12)


def test_determinant_normalized(rng):
    m = random_mobius(rng)
    assert abs(m.a * m.d - m.b * m.c - 1.0) < 1e-12


def test_degenerate_rejected():
    with pytest.raises(DegenerateMobius):
        MobiusMap(1, 2, 2, 4)


def test_three_point_map():
    m = MobiusMap.to_zero_one_inf(2.0, 3.0, 5.0)
    assert abs(m(2.0)) < 1e-14
    assert abs(m(3.0) - 1.0) < 1e-14
    assert m(5.0) == INF


def test_three_point_map_with_infinity():
    m = MobiusMap.to_zero_one_inf(INF, 1j, 0.0)
    assert abs(m(INF)) < 1e-14
    assert abs(m(1j) - 1.0) < 1e-14
    assert m(0.0) == INF


def test_from_three_points_roundtrip(rng):
    src = (0.3 + 0.1j, -2.0, 5j)
    dst = (1.0, INF, -1j)
    m = MobiusMap.from_three_points(src, dst)
    for s, d in zip(src, dst):
        if d == INF:
            assert abs(m.c * s + m.d) < 1e-12
        else:
            assert abs(m(s) - d) < 1e-12


def test_disk_mobius_preserves_unit_circle(rng):
    for _ in range(1000):
        m = random_disk_mobius(rng)
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(abs(m(z)) - 1.0) < 1e-12


def test_translation_along_translates_by_dist():
    t = MobiusMap.translation_along(-1.0, 1.0, 0.7)
    # fixed points preserved
    assert abs(t(-1.0) + 1.0) < 1e-12
    assert abs(t(1.0) - 1.0) < 1e-12
    # trace encodes the translation length
    assert abs(abs(t.trace()) - 2 * math.cosh(0.35)) < 1e-12


def test_rotation_about_trace():
    r = MobiusMap.rotation_about(0.0, INF, 1.3)
    assert abs(abs(r.trace()) - 2 * math.cos(0.65)) < 1e-12


def test_chordal_distance():
    assert chordal_distance(0, 0) == 0
    assert abs(chordal_distance(0, INF) - 2.0) < 1e-15
    assert abs(chordal_distance(1.0, -1.0) - 2.0) < 1e-15


@pytest.mark.parametrize("z, w", [
    (1e160 + 0j, 0j), (1e160 + 0j, INF), (INF, -3e200 + 1j),
    (1e160 + 0j, 1e160 * (1 + 1e-10) + 0j), (-1e155 + 2e155j, 3.0 + 0j),
    (1e160 + 0j, -1e160 + 0j),
])
def test_chordal_distance_beyond_float_squares(z, w):
    # |z|^2 overflows a float beyond ~1.3e154; mpmath evaluates the formula
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def sq(x):
        return 1 + mpmath.mpf(abs(x)) ** 2

    if z == INF or w == INF:
        want = 2 / mpmath.sqrt(sq(w if z == INF else z))
    else:
        want = 2 * mpmath.mpf(abs(z - w)) / mpmath.sqrt(sq(z) * sq(w))
    assert chordal_distance(z, w) == pytest.approx(float(want), rel=1e-14)


def test_coefficients_beyond_float_squares():
    assert MobiusMap(1e160, 0, 0, 1e160).is_identity(tol=1e-15)
    assert MobiusMap(1e160, 2e160, 0, 1e160)(1.0) == 3.0
    with pytest.raises(DegenerateMobius):
        MobiusMap(0, 1, 1, -1e160)


class TestCircleOrLine:
    def test_through_three_points_unit_circle(self):
        c = CircleOrLine.through_points(1.0, 1j, -1.0)
        assert c.close_to(CircleOrLine.unit_circle())

    def test_line_detection(self):
        c = CircleOrLine.through_points(0.0, 1.0, INF)
        assert c.is_line
        assert c.close_to(CircleOrLine.real_line())

    def test_center_radius(self):
        c = CircleOrLine.circle(2 + 1j, 3.0)
        ctr, r = c.center_radius()
        assert abs(ctr - (2 + 1j)) < 1e-12 and abs(r - 3.0) < 1e-12

    def test_mobius_image(self, rng):
        c = CircleOrLine.circle(1 + 1j, 2.0)
        m = random_mobius(rng)
        img = c.mobius_image(m)
        for ang in np.linspace(0, 2 * math.pi, 17):
            z = (1 + 1j) + 2.0 * cmath.exp(1j * ang)
            assert img.contains(m(z), tol=1e-8)

    def test_intersection_circle_circle(self):
        c1 = CircleOrLine.unit_circle()
        c2 = CircleOrLine.circle(1.0, 1.0)
        pts = c1.intersect(c2)
        assert len(pts) == 2
        for p in pts:
            assert abs(abs(p) - 1) < 1e-12 and abs(abs(p - 1) - 1) < 1e-12

    def test_intersection_line_circle(self):
        pts = CircleOrLine.real_line().intersect(CircleOrLine.unit_circle())
        assert sorted(p.real for p in pts) == pytest.approx([-1.0, 1.0])

    def test_tangent_circles_no_transversal_points(self):
        c1 = CircleOrLine.unit_circle()
        c2 = CircleOrLine.circle(2.0, 1.0)
        pts = c1.intersect(c2)
        assert len(pts) <= 2  # tangency collapses to a double point
        if len(pts) == 2:
            assert abs(pts[0] - pts[1]) < 1e-6
