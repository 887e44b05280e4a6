import cmath
import math

import pytest

from domekit.crescents import (
    AngleScaling,
    Crescent,
    angle_scale,
    crescent_parameter,
    quasiregular_bound,
    scaling_beltrami,
    scaling_dilatation,
)
from domekit.errors import DegenerateCrescent, NotInjective, OutsideWedge
from domekit.mobius import INF, CircleOrLine

from _oracles import circles_close, numeric_wirtinger


class TestCrescent:
    def test_standard_wedge_normalizes_to_identity_up_to_scale(self):
        c = Crescent.standard_wedge(1.1)
        b = c.beta
        assert abs(b(0)) < 1e-12 and b(INF) == INF
        # positive reals stay on the positive real axis
        for x in (0.5, 2.0, 7.0):
            w = b(x)
            assert abs(w.imag) < 1e-12 and w.real > 0

    def test_upper_lens_angle(self):
        c = Crescent(CircleOrLine.unit_circle(), CircleOrLine.real_line(),
                     0.5 + 0.3j)
        assert c.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert sorted((abs(v) if v != INF else math.inf) for v in c.vertices) == [1.0, 1.0]

    def test_derived_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            Crescent(CircleOrLine.unit_circle(), CircleOrLine.real_line(),
                     0.5 + 0.3j, theta=1.0)

    def test_normalize_sends_vertices_to_zero_inf(self):
        c = Crescent(CircleOrLine.unit_circle(), CircleOrLine.real_line(),
                     0.5 + 0.3j)
        b = c.beta
        imgs = sorted([abs(b(c.vertices[0])), abs(b(c.vertices[1]))
                       if b(c.vertices[1]) != INF else math.inf])
        assert imgs[0] < 1e-10 and imgs[1] == math.inf

    def test_roundtrip_boundary_circles(self):
        c = Crescent(CircleOrLine.unit_circle(), CircleOrLine.real_line(),
                     0.5 + 0.3j)
        b = c.beta
        binv = b.inverse()
        w1 = CircleOrLine.real_line().mobius_image(binv)
        w2 = CircleOrLine.line_through(0j, cmath.exp(1j * c.theta)).mobius_image(binv)
        for w in (w1, w2):
            assert any(circles_close(w, k, tol=1e-10) for k in (c.circle1, c.circle2))

    def test_explicit_crescent_between_circles_through_pm1(self):
        circle = CircleOrLine.through_points(1.0, -1.0, 0.6j)
        cr = Crescent(CircleOrLine.real_line(), circle, 0.2j)
        assert {round(abs(v), 10) for v in cr.vertices} == {1.0}
        b = cr.beta
        # explicit three-point construction sending -1 -> 0, 1 -> inf agrees
        # on the vertex images
        assert abs(b(cr.vertices[0])) < 1e-10
        img = b(cr.vertices[1])
        assert img == INF or abs(img) > 1e9

    def test_tangent_circles_rejected(self):
        with pytest.raises(DegenerateCrescent):
            Crescent(CircleOrLine.unit_circle(), CircleOrLine.circle(3.0, 1.0),
                     2.0 + 0j)


class TestAngleScale:
    def test_identity_at_zero_parameter(self):
        a = AngleScaling(0, 1.0)
        for z in (0.3 + 0.2j, 1.0, 0.5 * cmath.exp(0.9j)):
            assert angle_scale(a, z) == z

    def test_real_axis_fixed(self):
        a = AngleScaling(1.7 - 0.3j, 1.2)
        for x in (0.1, 1.0, 5.0):
            assert angle_scale(a, x) == x

    def test_image_angle(self):
        a = AngleScaling(1j, math.pi / 2)
        assert a.image_angle() == pytest.approx(math.pi)
        w = angle_scale(a, cmath.exp(1j * math.pi / 2))
        assert cmath.phase(w) == pytest.approx(math.pi, abs=1e-12)

    def test_outside_wedge_rejected(self):
        a = AngleScaling(1j, 0.5)
        with pytest.raises(OutsideWedge):
            angle_scale(a, cmath.exp(1.2j))

    def test_group_property(self):
        # composing scalings re-parameterizes the argument coefficient:
        # the exponents add after rescaling, w12 = w1 + w2 (1 + Im w1)
        th = 0.8
        w1, w2 = 0.3 + 0.4j, -0.1 + 0.7j
        a1 = AngleScaling(w1, th)
        a2 = AngleScaling(w2, th * (1 + w1.imag))
        a12 = AngleScaling(w1 + w2 * (1 + w1.imag), th)
        for r in (0.3, 1.0):
            for phi in (0.2, 0.5, 0.79):
                z = r * cmath.exp(1j * phi)
                step = angle_scale(a2, angle_scale(a1, z))
                once = angle_scale(a12, z)
                assert abs(step - once) < 1e-12


class TestScalingDilatation:
    def test_conformal_at_zero(self):
        assert scaling_dilatation(AngleScaling(0, 1.0)) == 1.0

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5, -0.5, -0.9])
    def test_imaginary_parameter_closed_form(self, s):
        K = scaling_dilatation(AngleScaling(1j * s, 0.4))
        assert K == pytest.approx(max(1 + s, 1 / (1 + s)), rel=1e-12)

    def test_beltrami_matches_finite_differences(self, rng):
        for _ in range(20):
            w = complex(rng.normal(), rng.uniform(-0.5, 1.5))
            th = rng.uniform(0.3, math.pi)
            a = AngleScaling(w, th)
            z = rng.uniform(0.2, 1.0) * cmath.exp(1j * rng.uniform(0.05, th - 0.05))
            fz, fzb = numeric_wirtinger(lambda u: angle_scale(a, u), z)
            mu_num = fzb / fz
            assert abs(mu_num - scaling_beltrami(a, z)) < 1e-7

    def test_not_injective_when_wedge_closes(self):
        with pytest.raises(NotInjective):
            scaling_dilatation(AngleScaling(2j, math.pi))  # image angle 3 pi

    @pytest.mark.parametrize("theta", [0.0, -1.0])
    def test_not_injective_when_wedge_empty(self, theta):
        with pytest.raises(NotInjective):
            scaling_dilatation(AngleScaling(1j, theta))

    def test_not_injective_when_degenerate(self):
        with pytest.raises(NotInjective):
            scaling_dilatation(AngleScaling(-1.5j, 0.5))

    def test_anchor_values(self):
        # kappa = 1/3 -> bound 2; the crescent factor never exceeds it
        t0, t = 1j / 3, 2j / 3
        w = crescent_parameter(t, t0)
        K = scaling_dilatation(AngleScaling(w, 0.7))
        L = quasiregular_bound(t, t0)
        assert L == pytest.approx(2.0, rel=1e-12)
        assert K <= L + 1e-12

    def test_anchor_kappa_half(self):
        t0, t = 1j / 3, 1j
        assert quasiregular_bound(t, t0) == pytest.approx(3.0, rel=1e-12)
        w = crescent_parameter(t, t0)
        assert w == pytest.approx(2j, abs=1e-15)
        assert scaling_dilatation(AngleScaling(w, 0.5)) == pytest.approx(3.0, rel=1e-12)

    def test_imaginary_parameter_matches_quasiregular_bound(self, rng):
        # purely imaginary time pairs make the crescent factor exactly L_t
        for _ in range(30):
            y0 = rng.uniform(0.1, 1.0)
            y = rng.uniform(y0, 3.0)
            w = crescent_parameter(1j * y, 1j * y0)
            K = scaling_dilatation(AngleScaling(w, 0.3))
            assert K == pytest.approx(quasiregular_bound(1j * y, 1j * y0), rel=1e-12)
