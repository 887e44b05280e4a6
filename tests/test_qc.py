import math

import numpy as np
import pytest

from domekit.errors import EmptyField, NotInjective, TooFewPoints
from domekit.qc import (
    GridSample,
    affine_sample,
    annulus_extremal_check,
    beltrami_estimate,
    conjugation_sample,
    dilatation_stats,
    extremal_alpha,
    far_pole_mobius,
    identity_sample,
    mobius_sample,
    near_pole_mobius,
    power_map_sample,
    verify_scaling_dilatation,
)


class TestBeltramiEstimate:
    def test_identity_conformal(self):
        field = beltrami_estimate(identity_sample(64))
        stats = dilatation_stats(field)
        assert stats.sup == pytest.approx(1.0, abs=1e-12)
        assert np.nanmax(np.abs(field.mu[field.valid])) < 1e-12

    def test_affine_closed_form(self):
        field = beltrami_estimate(affine_sample(128))
        stats = dilatation_stats(field)
        assert stats.sup == pytest.approx(2.0, abs=1e-10)
        assert stats.n_cells == field.usable.sum() == 126 * 126
        mus = field.mu[field.valid & ~field.degenerate]
        assert np.abs(mus - 1.0 / 3.0).max() < 1e-10

    def test_conjugation_flags_orientation(self):
        field = beltrami_estimate(conjugation_sample(64))
        assert field.orientation_reversing[field.valid].all()
        with pytest.raises(EmptyField):
            dilatation_stats(field)

    def test_boundary_cells_masked(self):
        field = beltrami_estimate(identity_sample(32))
        assert not field.valid[0].any() and not field.valid[-1].any()
        assert not field.valid[:, 0].any() and not field.valid[:, -1].any()

    def test_masked_region_respected(self):
        g = power_map_sample(2.0, 128)
        field = beltrami_estimate(g)
        ys = np.arange(g.values.shape[0])
        xs = np.arange(g.values.shape[1])
        X, Y = np.meshgrid(xs, ys)
        Z = (g.x0 + X * g.h) + 1j * (g.y0 + Y * g.h)
        assert not field.valid[np.abs(Z) < 0.99].any()


class TestPowerMap:
    def test_alpha_2_at_512(self):
        stats = dilatation_stats(beltrami_estimate(power_map_sample(2.0, 512)))
        assert abs(stats.sup - 2.0) < 1e-4

    def test_alpha_3(self):
        stats = dilatation_stats(beltrami_estimate(power_map_sample(3.0, 512)))
        assert abs(stats.sup - 3.0) < 1e-4

    def test_contraction_inverts(self):
        stats = dilatation_stats(beltrami_estimate(power_map_sample(0.5, 512)))
        assert abs(stats.sup - 2.0) < 1e-4

    def test_second_order_convergence(self):
        errs = [
            abs(dilatation_stats(beltrami_estimate(power_map_sample(2.0, n))).sup - 2.0)
            for n in (256, 512)
        ]
        assert errs[0] / errs[1] >= 3.5

    def test_orientation_preserved(self):
        field = beltrami_estimate(power_map_sample(2.0, 256))
        assert not field.orientation_reversing[field.valid].any()


class TestMobiusConformality:
    def test_far_pole_within_1e8(self):
        stats = dilatation_stats(beltrami_estimate(mobius_sample(far_pole_mobius(), 512)))
        assert abs(stats.sup - 1.0) < 1e-8

    def test_near_pole_second_order(self):
        errs = [
            abs(dilatation_stats(beltrami_estimate(mobius_sample(near_pole_mobius(), n))).sup - 1)
            for n in (256, 512)
        ]
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] < 1e-5


class TestScalingVerification:
    def test_conformal_parameter(self):
        chk = verify_scaling_dilatation(0j, 1.0, 256)
        assert abs(chk.grid_sup_K - 1.0) < 1e-10

    def test_anchor_kappa_half(self):
        chk = verify_scaling_dilatation(2j, math.pi / 2, 512, t=1j, t0=1j / 3)
        assert chk.analytic_K == pytest.approx(3.0, rel=1e-12)
        assert chk.quasiregular_bound == pytest.approx(3.0, rel=1e-12)
        assert chk.max_abs_deviation < 1e-3
        assert chk.grid_sup_K <= chk.quasiregular_bound + 1e-3

    def test_convergence_512_to_1024(self):
        d512 = verify_scaling_dilatation(1.5j, 0.8, 512).max_abs_deviation
        d1024 = verify_scaling_dilatation(1.5j, 0.8, 1024).max_abs_deviation
        assert d512 < 1e-3 and d1024 < 3e-4
        assert d1024 < d512

    def test_single_leaf_crescent_scaling(self):
        # unit-roundness single leaf bent to height y: the crescent factor
        # of the flow from height y0 = 1/3 has dilatation y/y0 = 3 ||mu||
        y0 = 1.0 / 3.0
        for norm in (0.5, 1.0):
            y = norm
            w = 1j * (y - y0) / y0
            chk = verify_scaling_dilatation(w, 1.0, 512)
            assert chk.analytic_K == pytest.approx(max(y / y0, y0 / y), rel=1e-12)
            assert chk.max_abs_deviation < 1e-3

    def test_not_injective_propagates(self):
        with pytest.raises(NotInjective):
            verify_scaling_dilatation(3j, math.pi, 64)


class TestAnnulusExtremal:
    def test_identity_alpha(self):
        chk = annulus_extremal_check(2.0, 1.0, 128)
        assert chk.grid_sup_K == pytest.approx(1.0, abs=1e-3)

    def test_alpha_3(self):
        chk = annulus_extremal_check(1.0, 3.0, 512)
        assert abs(chk.grid_sup_K - 3.0) < 1e-4

    def test_extremal_alpha_reaches_dome_modulus(self):
        s = 3.0
        a = extremal_alpha(s)
        chk = annulus_extremal_check(s, a, 512)
        from domekit.annulus import annulus_geometry

        g = annulus_geometry(s)
        assert chk.target_modulus == pytest.approx(g.dome_modulus, rel=1e-12)
        assert a == pytest.approx(g.K, rel=1e-12)
        assert abs(chk.grid_sup_K - g.K) < 1e-3


class TestGridSample:
    def test_cell_location(self):
        g = GridSample.from_function(lambda z: z, 0.0, 1.0, 2.0, 3.0, 11)
        assert g.cell_location(0, 0) == complex(0.0, 2.0)
        assert g.cell_location(10, 10) == pytest.approx(complex(1.0, 3.0))

    @pytest.mark.parametrize("sample", [
        lambda n: GridSample.from_function(lambda z: z, 0.0, 1.0, 0.0, 1.0, n),
        lambda n: verify_scaling_dilatation(2j, 1.0, n=n),
        lambda n: annulus_extremal_check(2.0, 1.5, n=n),
    ])
    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_needs_two_columns(self, sample, n):
        with pytest.raises(TooFewPoints):
            sample(n)

    def test_square_cells(self):
        g = GridSample.from_function(lambda z: z, 0.0, 2.0, 0.0, 1.0, 21)
        assert g.h == pytest.approx(0.1)
        assert g.values.shape == (11, 21)
