import dataclasses
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import beltrami_estimate_oracle, dilatation_stats_oracle, grid_sample_oracle
from domekit import qc
from domekit.cli import main
from domekit.errors import EmptyField, NotInjective, TooFewPoints
from domekit.mobius import MobiusMap
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


# ---------------------------------------------------------------------------
# bands of rows against the whole-grid references
# ---------------------------------------------------------------------------

FIELD_ARRAYS = ("mu", "K", "valid", "degenerate", "orientation_reversing")

#: every analytic fixture of the qc module, as a function of the grid size
FIXTURES = {
    "identity": identity_sample,
    "affine": affine_sample,
    "conjugation": conjugation_sample,
    "power-0.5": lambda n: power_map_sample(0.5, n),
    "power-2": lambda n: power_map_sample(2.0, n),
    "power-3": lambda n: power_map_sample(3.0, n),
    "mobius-far": lambda n: mobius_sample(far_pole_mobius(), n),
    "mobius-near": lambda n: mobius_sample(near_pole_mobius(), n),
}

#: the checks against closed forms, each of which samples its own grid
CHECKS = {
    "scaling-anchor": lambda n: verify_scaling_dilatation(2j, math.pi / 2, n,
                                                          t=1j, t0=1j / 3),
    "scaling-oblique": lambda n: verify_scaling_dilatation(1.5 + 0.5j, 0.8, n),
    "annulus-extremal": lambda n: annulus_extremal_check(3.0, extremal_alpha(3.0), n),
}

#: one band (24, 127, 128, 129), and several with a longer last band (512, 1000)
BAND_GRIDS = (24, 127, 128, 129, 512, 1000)


def _bits(x):
    """``x`` with every float as its bytes, so -0.0 counts, and NaN as "nan"
    (see `_same_bits`)."""
    if isinstance(x, complex):
        return [_bits(x.real), _bits(x.imag)]
    if isinstance(x, float):
        return "nan" if math.isnan(x) else struct.pack("<d", x)
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    if dataclasses.is_dataclass(x):
        return _bits(dataclasses.asdict(x))
    return x


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bits, the sign bit included, except that a NaN
    equals any NaN: numpy's complex add and multiply give a NaN of either
    sign, depending on whether a cell falls in their vector loop or its tail."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == bool:
        return bool((a == b).all())
    a, b = a.view(float), b.view(float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes())


def _stats_of(grid):
    """The bits of the grid's statistics, or the EmptyField they raise."""
    try:
        return _bits(qc.dilatation_stats(qc.beltrami_estimate(grid)))
    except EmptyField as exc:
        return repr(exc)


def _recorded(make, whole: bool):
    """``make()`` and every field it estimated: by bands of rows, or with the
    whole-grid sampler, estimator and statistics in their place."""
    fields = []
    estimate = beltrami_estimate_oracle if whole else qc.beltrami_estimate

    def recording(grid):
        fields.append(estimate(grid))
        return fields[-1]

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(qc, "beltrami_estimate", recording)
        if whole:
            # numpy.nanmax warns on an all-NaN set; the bands may not warn,
            # as pytest turns a RuntimeWarning into an error
            warnings.simplefilter("ignore", RuntimeWarning)
            mp.setattr(GridSample, "from_function", staticmethod(grid_sample_oracle))
            mp.setattr(qc, "dilatation_stats", dilatation_stats_oracle)
        return make(), fields


def _assert_same(make):
    result, fields = _recorded(make, whole=False)
    ref_result, ref_fields = _recorded(make, whole=True)
    assert _bits(result) == _bits(ref_result)
    assert len(fields) == len(ref_fields) > 0
    for field, ref in zip(fields, ref_fields):
        for name in ("values", "mask"):
            assert _same_bits(getattr(field.grid, name), getattr(ref.grid, name)), name
        for name in FIELD_ARRAYS:
            assert _same_bits(getattr(field, name), getattr(ref, name)), name
        # the counts summed over the bands, against the whole-grid arrays
        assert (field.n_masked, field.n_degenerate, field.n_orientation_reversing) == (
            np.count_nonzero(~ref.grid.mask), np.count_nonzero(ref.degenerate),
            np.count_nonzero(ref.orientation_reversing))


class TestBandsMatchWholeGrid:
    """Sampling and estimating by bands of rows keeps every bit of the
    whole-grid computation: grid, mu, K, masks and statistics."""

    @pytest.mark.parametrize("n", BAND_GRIDS)
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_fixture(self, fixture, n):
        _assert_same(lambda: _stats_of(FIXTURES[fixture](n)))

    @pytest.mark.parametrize("n", BAND_GRIDS)
    @pytest.mark.parametrize("check", CHECKS)
    def test_check(self, check, n):
        _assert_same(lambda: CHECKS[check](n))

    def test_bands_cover_the_rows(self):
        rows = -(-qc.BAND_CELLS // 1000)
        bands = qc._bands(1000, 1000)
        assert [b.start for b in bands] == list(range(0, 1000 - rows, rows))
        assert bands[-1].stop == 1000 and rows <= len(range(1000)[bands[-1]]) < 2 * rows
        assert qc._bands(5, 7) == [slice(0, 5)]

    def test_mobius_pole_on_a_grid_node(self):
        # -1 / (z - (1 + 1j)/2), determinant 1 as given: the pole is node
        # (256, 256), on the first row of a band
        m = MobiusMap(0.0, -1.0, 1.0, -0.5 - 0.5j)
        n = 513
        assert 256 in [b.start for b in qc._bands(n, n)]
        grid = mobius_sample(m, n)
        assert not np.isfinite(grid.values[256, 256])
        _assert_same(lambda: _stats_of(mobius_sample(m, n)))

    @pytest.mark.parametrize("value, rows", [
        (value, rows) for value in (np.nan, np.inf, -np.inf)
        for rows in (slice(None), slice(None, 150), slice(149, 151))],
        ids=[f"{name}_rows{k}" for name in ("nan", "inf", "-inf") for k in range(3)])
    def test_nan_values_do_not_warn(self, value, rows):
        # an all-NaN (or infinite) valid set, such a band and such values
        # across a band boundary; pytest turns a RuntimeWarning into an error
        g = identity_sample(300)
        values = g.values.copy()
        values[rows] = value
        grid = GridSample(g.x0, g.y0, g.h, values, g.mask)
        assert len(qc._bands(300, 300)) == 2
        _assert_same(lambda: _stats_of(grid))
        assert qc.beltrami_estimate(grid).valid.any() and isinstance(_stats_of(grid), dict)

    def test_degeneracy_scale_spans_the_bands(self):
        # |f_z| is 1e-11 in the first band and 1 in the second: the first
        # band's cells are degenerate against the whole grid's largest |f_z|
        g = identity_sample(300)
        values = g.values.copy()
        values[:110] *= 1e-11
        grid = GridSample(g.x0, g.y0, g.h, values, g.mask)
        assert qc._bands(300, 300)[0] == slice(0, 110)
        _assert_same(lambda: _stats_of(grid))
        field = qc.beltrami_estimate(grid)
        assert field.degenerate[1:108, 1:-1].all() and not field.degenerate[112:].any()

    def test_map_sampled_once_per_band(self):
        # one pass samples each band once.  With |f_z| growing as e^(40 y), the
        # first band's cells pass the threshold of its own largest |f_z| but
        # not the whole grid's, and the estimate takes a second pass
        for growth, passes in ((0.0, 1), (40.0, 2)):
            calls = []

            def f(z, growth=growth):
                calls.append(len(z))
                return z * np.exp(growth * z.imag)

            grid = GridSample.from_function(f, 0.0, 1.0, 0.0, 1.0, 300, mask_fn=f)
            field = qc.beltrami_estimate(grid)
            assert calls == [110, 110, 190, 190] * passes
            assert field.n_degenerate == np.count_nonzero(beltrami_estimate_oracle(grid).degenerate)

    def test_no_valid_cell(self):
        grid = GridSample(0.0, 0.0, 0.5, np.zeros((300, 300), complex),
                          np.zeros((300, 300), bool))
        _assert_same(lambda: _stats_of(grid))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), ny=st.integers(1, 60), nx=st.integers(1, 60),
           band_cells=st.sampled_from([1, 5, 64, 700, qc.BAND_CELLS]),
           h=st.sampled_from([1.0, 0.1, 1e-200, 1e200]),
           special=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           masked=st.sampled_from([0.0, 0.1, 0.9]))
    def test_random_grid(self, seed, ny, nx, band_cells, h, special, masked):
        # the grid is below 2^14 cells, so neither side computes a temporary in
        # place, and any band size keeps the bits
        rng = np.random.default_rng(seed)
        parts = rng.normal(size=(2, ny, nx)) * 10.0 ** rng.integers(-3, 4, (2, ny, nx))
        odd = rng.random(parts.shape) < special
        parts[odd] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300], odd.sum())
        values = np.empty((ny, nx), complex)
        values.real, values.imag = parts
        # ties in K: many cells share a value
        values[rng.random((ny, nx)) < 0.3] = 2 + 1j
        grid = GridSample(0.0, 0.0, h, values, rng.random((ny, nx)) >= masked)
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(qc, "BAND_CELLS", band_cells)
            _assert_same(lambda: _stats_of(grid))


def _traced_peak(argv):
    """The traced peak of ``main(argv)``, and the usable cells of the one
    field it estimated."""
    fields, estimate = [], qc.beltrami_estimate

    def recording(grid):
        fields.append(estimate(grid))
        return fields[-1]

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qc, "beltrami_estimate", recording)
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [field] = fields
    return peak, field.usable_K.size


def _assert_keeps_usable_K(argv):
    """Run ``argv``: the traced peak lies within 16 MiB above the 8 bytes per
    usable cell that the field keeps (the estimator that kept the grid's
    values and mask and the field's mu, K and three masks peaked 44 bytes
    per cell above that).  Returns the number of usable cells."""
    peak, n_cells = _traced_peak(argv)
    assert 8 * n_cells <= peak <= 8 * n_cells + 16 * 2**20
    return n_cells


def test_estimate_memory_is_its_arrays(capsys):
    _assert_keeps_usable_K(["qc", "estimate", "--fixture", "mobius-near", "--grid", "1024"])
    assert '"n_cells": 1044484' in capsys.readouterr().out


def test_dump_field_memory_is_one_band(tmp_path, capsys):
    # the annulus fixture leaves 4 in 10 cells out, which keeps the dump short
    path = tmp_path / "K.csv"
    n_cells = _assert_keeps_usable_K(["qc", "estimate", "--fixture", "power", "--grid", "1024",
                                      "--dump-field", str(path)])
    assert len(path.read_text().splitlines()) == 1 + n_cells
    capsys.readouterr()


def test_crescent_memory_is_its_arrays(capsys):
    _assert_keeps_usable_K(["crescent", "dilatation", "--w", "0,2", "--theta", "1",
                            "--grid", "1024"])
    capsys.readouterr()


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: prints its own peak RSS in KiB (Linux), after the CLI command it is given
_RSS_CHILD = """
import resource, sys
from domekit import qc
if sys.argv[1:]:
    from domekit.cli import main
    assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def test_estimate_rss_above_import():
    # the estimator that kept 44 bytes per cell peaked about 56 MiB above
    # the import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def maxrss(*argv):
        proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, *argv], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        return int(proc.stderr.split()[-1])

    base = maxrss()
    run = maxrss("qc", "estimate", "--fixture", "mobius-near", "--grid", "1024")
    assert run - base <= 24 * 1024
