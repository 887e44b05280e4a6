import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from domekit.annulus import annulus_geometry, asymptotic_ratios, verify_bounds
from domekit.errors import NonpositiveModulusParameter, OutOfDomain


def _smallest_finite_core_length() -> float:
    """The smallest s at which 2 pi^2 / s, evaluated as the library does,
    is finite: the lower end of `annulus_geometry`'s domain."""
    c = 2.0 * math.pi**2
    s = c / sys.float_info.max
    while math.isinf(c / s):
        s = math.nextafter(s, math.inf)
    while not math.isinf(c / math.nextafter(s, 0.0)):
        s = math.nextafter(s, 0.0)
    return s


S_MIN = _smallest_finite_core_length()
# the top of the log grid: pi sinh(s/2) overflows just above s = 1418.66
S_MAX = 1418.6


class TestClosedForms:
    def test_defining_relations_on_grid(self):
        for s in np.linspace(0.1, 60.0, 200):
            g = annulus_geometry(float(s))
            assert g.modulus == pytest.approx(s / (2 * math.pi), rel=1e-14)
            # core length = pi / modulus, on both sides
            assert g.core_length == pytest.approx(math.pi / g.modulus, rel=1e-14)
            assert g.dome_core_length == pytest.approx(
                math.pi / g.dome_modulus, rel=1e-14
            )
            # injectivity radii are half the core lengths
            assert g.nu == pytest.approx(g.core_length / 2, rel=1e-14)
            assert g.nu_hat == pytest.approx(g.dome_core_length / 2, rel=1e-14)
            # extremal dilatation is the moduli ratio
            assert g.K == pytest.approx(g.dome_modulus / g.modulus, rel=1e-14)

    def test_unit_dome_radius(self):
        s = 2 * math.asinh(math.pi)
        assert annulus_geometry(s).nu_hat == pytest.approx(1.0, abs=1e-14)

    def test_lower_bound_domain_edge(self):
        g = annulus_geometry(2 * math.pi**2)
        assert g.nu == pytest.approx(0.5, rel=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveModulusParameter):
            annulus_geometry(0.0)

    def test_overflow_is_out_of_domain(self):
        assert math.isfinite(annulus_geometry(1418.0).K)
        for s in (1421.0, 1422.0, 1e5, math.inf):
            with pytest.raises(OutOfDomain, match=re.escape(f"s = {s}: sinh(s/2) overflows")):
                annulus_geometry(s)

    def test_k_finite_while_sinh_is(self):
        # K is finite wherever sinh(s/2) is, up to about s = 1420.95, and
        # keeps the bits of pi sinh(s/2) / s wherever that is finite
        top = 1420.9517201478877
        for s in (1418.0, 1418.66, 1418.7, 1420.0, top):
            sh = math.sinh(s / 2.0)
            want = math.pi * sh / s
            if math.isinf(want):
                want = math.pi * (sh / s)
            assert annulus_geometry(s).K == want and math.isfinite(want)
        with pytest.raises(OutOfDomain):
            annulus_geometry(math.nextafter(top, math.inf))

    def test_small_s_overflow_is_out_of_domain(self):
        t = S_MIN
        assert 1.0980e-307 < t < 1.0981e-307
        assert all(math.isfinite(v) for v in dataclasses.astuple(annulus_geometry(t)))
        for s in (math.nextafter(t, 0.0), 5.5e-308, 1e-310, 5e-324):
            with pytest.raises(OutOfDomain, match=re.escape(f"s = {s}: core length")):
                annulus_geometry(s)

    def test_small_s_limit(self):
        g = annulus_geometry(1e-8)
        assert g.K == pytest.approx(math.pi / 2, rel=1e-8)


class TestMatchesMpmath:
    # no field is off by more than 1.28 ulp on this grid
    ULPS = 2.0

    def check_fields(self, mpmath, s):
        with mpmath.workdps(50):
            pi = mpmath.mp.pi
            x = mpmath.mpf(s)
            sh = mpmath.sinh(x / 2)
            exact = {"s": x, "modulus": x / (2 * pi), "core_length": 2 * pi**2 / x,
                     "nu": pi**2 / x, "dome_modulus": sh / 2,
                     "dome_core_length": 2 * pi / sh, "nu_hat": pi / sh,
                     "K": pi * sh / x}
            g = annulus_geometry(s)
            assert set(exact) == {f.name for f in dataclasses.fields(g)}
            for name, want in exact.items():
                ulps = abs(getattr(g, name) - want) / math.ulp(float(want))
                assert ulps <= self.ULPS, (s, name, float(ulps))
        return g

    def test_every_field_on_a_log_grid(self):
        mpmath = pytest.importorskip("mpmath")
        grid = np.geomspace(S_MIN, S_MAX, 100).tolist()
        grid[0], grid[-1] = S_MIN, S_MAX
        for s in grid:
            self.check_fields(mpmath, s)

    @pytest.mark.parametrize("s", [1419.0, 1420.0])
    def test_every_field_where_pi_sinh_overflows(self, s):
        # pi sinh(s/2) overflows here, while every field is a normal float
        mpmath = pytest.importorskip("mpmath")
        assert math.isinf(math.pi * math.sinh(s / 2.0))
        g = self.check_fields(mpmath, s)
        assert all(sys.float_info.min <= v < math.inf for v in dataclasses.astuple(g))


class TestVerifyBounds:
    def test_grid_all_hold(self):
        for s in np.linspace(0.1, 60.0, 500):
            rep = verify_bounds(float(s))
            assert rep.K_le_M and rep.K_le_N
            if float(s) > 2 * math.pi**2:
                assert rep.lower_le_K

    def test_lower_bound_active_at_25(self):
        rep = verify_bounds(25.0)
        assert rep.lower is not None and rep.lower <= rep.K
        assert annulus_geometry(25.0).nu == pytest.approx(0.3947, abs=1e-4)

    def test_lower_bound_inactive_below_threshold(self):
        assert verify_bounds(10.0).lower is None


class TestAsymptotics:
    def test_r1_closed_form(self):
        # r1 is identically 1 - exp(-s)
        for s in (2.0, 10.0, 40.0):
            r1, _ = asymptotic_ratios(s)
            assert r1 == pytest.approx(1 - math.exp(-s), rel=1e-12)

    def test_r1_at_40(self):
        r1, _ = asymptotic_ratios(40.0)
        assert abs(r1 - 1) < 0.01

    def test_r2_frozen_value_at_40(self):
        # r2(s) = (2/s) log(sinh(s/2)/pi), so exactly
        # 1 - r2(s) = (2/s)(log(2 pi) - log1p(-e^-s)): 0.0919 at s = 40
        _, r2 = asymptotic_ratios(40.0)
        assert r2 == pytest.approx(0.9081061466795329, abs=1e-12)
        dev = (2 / 40.0) * (math.log(2 * math.pi) - math.log1p(-math.exp(-40.0)))
        assert 1 - r2 == pytest.approx(dev, abs=1e-12)

    def test_r2_undefined_for_large_dome_radius(self):
        _, r2 = asymptotic_ratios(1.0)  # nu_hat > 1 here
        assert r2 is None

    def test_both_monotone_to_one(self):
        ss = np.linspace(20.0, 60.0, 81)
        r1s, r2s = zip(*(asymptotic_ratios(float(s)) for s in ss))
        # r1 = 1 - exp(-s) saturates to 1 ulp around s ~ 36; strictly
        # increasing while resolvable, pinned at 1 afterwards
        resolvable = [r for s, r in zip(ss, r1s) if s <= 33.0]
        assert all(b > a for a, b in zip(resolvable, resolvable[1:]))
        assert all(abs(r - 1) < 5e-15 for s, r in zip(ss, r1s) if s > 33.0)
        assert all(b > a for a, b in zip(r2s, r2s[1:]))
        assert all(r < 1 for r in r2s)
