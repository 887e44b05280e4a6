import math

import numpy as np
import pytest

from domekit.bounds import (
    ARC_GAUGE_LIMIT,
    ARCCOSH_E_SQUARED,
    LIPSCHITZ_OFFSET,
    BoundReport,
    annulus_modulus_bounds,
    arc_for_radius,
    canary_length_bound,
    convex_core_length_bound,
    dilatation_lower_bound,
    dome_dilatation_bound,
    dome_injectivity_lower,
    domain_dilatation_bound,
    domain_dilatation_bound_relaxed,
    lower_bound_chain,
    radius_for_arc,
    retracted_geodesic_length_bound,
    retraction_lipschitz_bound,
    roundness_bound_dome,
    roundness_bound_domain,
)
from domekit.errors import NonpositiveInput, OutOfDomain


class TestArcGauge:
    def test_zero(self):
        assert radius_for_arc(0.0) == 0.0

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, ARC_GAUGE_LIMIT - 1e-9, 1000)
        vals = [radius_for_arc(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_value_at_17(self):
        # frozen from direct evaluation of the closed form
        assert radius_for_arc(1.7) == pytest.approx(2.748582716188736, abs=1e-12)

    def test_blow_up_at_right_end(self):
        assert radius_for_arc(ARC_GAUGE_LIMIT - 1e-9) > 10.0

    def test_domain_errors(self):
        with pytest.raises(OutOfDomain):
            radius_for_arc(-0.1)
        with pytest.raises(OutOfDomain):
            radius_for_arc(ARC_GAUGE_LIMIT)

    def test_inverse_roundtrip(self):
        for x in np.linspace(0.01, 1.7, 40):
            assert arc_for_radius(radius_for_arc(float(x))) == pytest.approx(
                float(x), abs=1e-10
            )

    def test_inverse_increasing(self):
        # strictly increasing while resolvable; saturates at the asymptote
        xs = np.geomspace(1e-3, 10, 500)
        vals = [arc_for_radius(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        tail = [arc_for_radius(float(x)) for x in (15.0, 30.0, 50.0)]
        assert all(b >= a for a, b in zip(tail, tail[1:]))
        assert all(v < ARC_GAUGE_LIMIT for v in tail)

    def test_half_input_lower_bound_where_small(self):
        # whenever the certified arc is below 1, it is at least half the radius
        for x in np.geomspace(1e-3, 2.0, 60):
            g = arc_for_radius(float(x))
            if g < 1.0:
                assert g >= x / 2.0 - 1e-12

    def test_inverse_rejects_nonpositive(self):
        with pytest.raises(NonpositiveInput):
            arc_for_radius(0.0)

    def test_inverse_is_the_certified_float(self):
        # the largest float a with radius_for_arc(a) <= x, from 1e-300 to
        # past the last finite gauge value (about 19.05)
        for x in np.geomspace(1e-300, 40.0, 600):
            x = float(x)
            a = arc_for_radius(x)
            assert 0.0 < a < ARC_GAUGE_LIMIT
            assert radius_for_arc(a) <= x < radius_for_arc(math.nextafter(a, math.inf))

    def test_inverse_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")

        def radius(a):
            s = mpmath.sinh(a / 2)
            return a / 2 + mpmath.asinh(s / mpmath.sqrt(1 - s * s))

        def slope(a):
            return (1 + mpmath.cosh(a / 2) / (1 - mpmath.sinh(a / 2) ** 2)) / 2

        with mpmath.workdps(50):
            for x in np.geomspace(1e-300, 19.0, 300):
                a = arc_for_radius(float(x))
                want = mpmath.mpf(a)
                for _ in range(8):  # Newton from the float answer
                    want -= (radius(want) - float(x)) / slope(want)
                assert abs(a - want) <= 1e-15 * want


class TestInjectivityTransfer:
    def test_limit_value(self):
        # exp(-m)/2 with exp(m) = e^2 + sqrt(e^4 - 1)
        want = 0.5 / (math.e**2 + math.sqrt(math.e**4 - 1.0))
        assert dome_injectivity_lower(1e9) == pytest.approx(want, rel=1e-6)
        assert want == pytest.approx(0.034, abs=5e-4)

    def test_unit_exponent_point(self):
        nu = math.pi**2 / 2.0
        want = math.exp(-ARCCOSH_E_SQUARED) * math.exp(-1.0) / 2.0
        assert dome_injectivity_lower(nu) == pytest.approx(want, rel=1e-15)

    def test_increasing(self):
        xs = np.geomspace(1e-2, 1e3, 10**4)
        vals = [dome_injectivity_lower(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < 0.5 for v in vals)


class TestRoundnessBounds:
    def test_dome_exact_floor(self):
        # once the certified arc length reaches 1, the bound collapses to 2 pi
        big = radius_for_arc(1.2)
        exact, relaxed = roundness_bound_dome(big + 0.1)
        assert exact == pytest.approx(2 * math.pi, rel=1e-15)

    def test_exact_le_relaxed_on_grid(self):
        for nu_hat in np.geomspace(1e-4, 10.0, 300):
            exact, relaxed = roundness_bound_dome(float(nu_hat))
            assert exact <= relaxed + 1e-12

    def test_round_annulus_below_both(self):
        # the round annulus of modulus s has dome injectivity radius
        # pi / sinh(s/2) and dome roundness cosh(s/2)
        for s in np.linspace(0.1, 1400.0, 600):
            s = float(s)
            exact, relaxed = roundness_bound_dome(math.pi / math.sinh(s / 2.0))
            assert math.cosh(s / 2.0) <= exact <= relaxed

    def test_overflowing_reciprocal_is_inf(self):
        assert roundness_bound_dome(1e-310) == (math.inf, math.inf)

    def test_small_radius_asymptotics(self):
        nu_hat = 1e-6
        _, relaxed = roundness_bound_dome(nu_hat)
        assert relaxed == pytest.approx(4 * math.pi / nu_hat, rel=1e-5)

    def test_domain_constant_inequality(self):
        # 8 pi e^m just below 370
        assert 8 * math.pi * math.exp(ARCCOSH_E_SQUARED) == pytest.approx(
            369.7059, abs=1e-3
        )
        for nu in np.geomspace(0.01, 100, 200):
            tight, relaxed = roundness_bound_domain(float(nu))
            assert tight <= relaxed


class TestDilatationBounds:
    def test_relaxed_coefficients(self):
        assert 2218.0 < 48 * math.pi * math.exp(ARCCOSH_E_SQUARED) < 2220.0
        assert 12 * math.pi < 38.0

    def test_six_times_roundness_identity(self):
        for nu in np.geomspace(1e-2, 1e3, 10**4):
            nu = float(nu)
            tight, _ = roundness_bound_domain(nu)
            m = domain_dilatation_bound(nu)
            assert abs(m - 6.0 * tight) <= 1e-12 * m

    def test_dome_six_times_relaxed_identity(self):
        for nu_hat in np.geomspace(1e-3, 1e3, 10**4):
            nu_hat = float(nu_hat)
            _, relaxed = roundness_bound_dome(nu_hat)
            n = dome_dilatation_bound(nu_hat)
            assert abs(n - 6.0 * relaxed) <= 1e-12 * n

    def test_unit_exponent(self):
        nu = math.pi**2 / 2.0
        want = 48 * math.pi * math.exp(ARCCOSH_E_SQUARED + 1.0) + 12 * math.pi
        assert domain_dilatation_bound(nu) == pytest.approx(want, rel=1e-15)

    def test_tight_below_relaxed_form(self):
        for nu in np.geomspace(0.05, 50, 100):
            assert domain_dilatation_bound(float(nu)) <= \
                domain_dilatation_bound_relaxed(float(nu))

    def test_dome_bound_values(self):
        assert dome_dilatation_bound(2.0) == pytest.approx(24 * math.pi, rel=1e-15)
        xs = np.geomspace(1e-3, 1e3, 10**4)
        vals = [dome_dilatation_bound(float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestLipschitz:
    def test_limit(self):
        assert retraction_lipschitz_bound(1e12) == pytest.approx(
            2 * math.sqrt(2) * LIPSCHITZ_OFFSET, rel=1e-9
        )
        assert 2 * math.sqrt(2) * LIPSCHITZ_OFFSET == pytest.approx(16.30, abs=5e-3)

    def test_special_value(self):
        assert retraction_lipschitz_bound(math.pi**2) == pytest.approx(
            2 * math.sqrt(2) * (LIPSCHITZ_OFFSET + 0.5), rel=1e-15
        )

    def test_decreasing(self):
        xs = np.geomspace(0.01, 100, 10**4)
        vals = [retraction_lipschitz_bound(float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestLowerBound:
    def test_decreasing_on_domain(self):
        xs = np.linspace(0.01, 0.499, 10**4)
        vals = [dilatation_lower_bound(float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_dual_expression_trees_agree(self):
        for nu in np.linspace(0.02, 0.49, 50):
            nu = float(nu)
            v1 = dilatation_lower_bound(nu)
            v2 = math.exp(
                math.log(nu)
                + math.pi**2 / (2 * math.sqrt(math.e) * nu)
                - 2 * math.log(math.pi)
                - math.pi / 2
            )
            assert abs(v1 - v2) <= 1e-12 * v1

    def test_below_upper_bound(self):
        for nu in np.linspace(0.01, 0.499, 500):
            assert dilatation_lower_bound(float(nu)) <= \
                domain_dilatation_bound(float(nu))

    def test_domain_enforced(self):
        for bad in (0.0, 0.5, 0.7, -1.0):
            with pytest.raises(OutOfDomain):
                dilatation_lower_bound(bad)


class TestModulusBounds:
    def test_ratio(self):
        up, lo = annulus_modulus_bounds(1.3)
        assert up / lo == pytest.approx(math.exp(1.3 / 2), rel=1e-15)
        assert up >= lo

    def test_short_curve_agreement(self):
        up, lo = annulus_modulus_bounds(1e-8)
        assert up == pytest.approx(lo, rel=1e-7)

    def test_round_annulus_attains_upper(self):
        from domekit.annulus import annulus_geometry

        for s in (0.5, 3.0, 12.0):
            g = annulus_geometry(s)
            up, _ = annulus_modulus_bounds(g.core_length)
            assert g.modulus == pytest.approx(up, rel=1e-14)


class TestGeodesicImageLength:
    def test_value_at_one(self):
        v = retracted_geodesic_length_bound(1.0)
        assert v < 0.153
        assert v == pytest.approx(0.15287817609531015, rel=1e-12)

    def test_increasing(self):
        xs = np.geomspace(0.01, 10, 500)
        vals = [retracted_geodesic_length_bound(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_chain_replay_dominates_lower_bound(self):
        # geodesics strictly shorter than the 2 nu cap keep the chain above
        # the packaged lower bound
        for nu in np.linspace(0.02, 0.49, 40):
            nu = float(nu)
            for frac in (1.0, 1.5, 1.9):
                chain = lower_bound_chain(nu, frac * nu)
                assert chain >= dilatation_lower_bound(nu)

    def test_chain_slack_identity_at_cap(self):
        # at the cap the chain sits exactly exp((0.5 - 0.502) pi) below
        for nu in (0.1, 0.3, 0.45):
            chain = lower_bound_chain(nu, 2 * nu)
            want = dilatation_lower_bound(nu) * math.exp((0.5 - 0.502) * math.pi)
            assert chain == pytest.approx(want, rel=1e-12)


class TestHistoricalEntries:
    def test_canary_bound_positive(self):
        assert canary_length_bound(0.5) > canary_length_bound(5.0) > 0

    def test_convex_core_length(self):
        assert convex_core_length_bound(1.0) == pytest.approx(
            45 * math.exp(0.5), rel=1e-15
        )


class TestBoundReport:
    def test_all_fields(self):
        rep = BoundReport.evaluate(nu=0.3, nu_hat=0.8)
        assert rep.values["lower_bound"] is not None
        assert rep.values["M"] > 0 and rep.values["N"] > 0
        assert all(rep.verdicts.values())

    def test_no_verdict_between_overflowed_values(self):
        # inf = 6 inf and inf <= inf say nothing about the bounds
        rep = BoundReport.evaluate(nu=1e-300, nu_hat=1e-310)
        assert math.isinf(rep.values["M"]) and math.isinf(rep.values["N"])
        assert set(rep.verdicts.values()) == {None}

    def test_verdicts_between_finite_values_stand(self):
        # M and both domain roundness bounds overflow at nu = 0.0069, the
        # dome's do not at nu_hat = 0.5
        rep = BoundReport.evaluate(nu=0.0069, nu_hat=0.5)
        assert rep.values["M"] == rep.values["roundness_tight"] == math.inf
        assert rep.verdicts == {"M_is_6x_tight_roundness": None,
                                "tight_le_relaxed": None,
                                "N_is_6x_relaxed_roundness": True,
                                "exact_le_relaxed": True}

    def test_lower_bound_excluded_at_half(self):
        rep = BoundReport.evaluate(nu=0.5)
        assert rep.values["lower_bound"] is None
        assert "0.5" in rep.values["lower_bound_reason"]


@pytest.mark.parametrize("fn", [domain_dilatation_bound, dome_dilatation_bound,
                                roundness_bound_domain, roundness_bound_dome,
                                retraction_lipschitz_bound, dome_injectivity_lower,
                                arc_for_radius, annulus_modulus_bounds,
                                convex_core_length_bound])
def test_positive_inputs_are_finite(fn):
    # the bounds have limits as the input goes to inf, not values there
    with pytest.raises(OutOfDomain, match="outside"):
        fn(math.inf)
    for x in (math.nan, 0.0, -1.0, -math.inf):
        with pytest.raises(NonpositiveInput):
            fn(x)
