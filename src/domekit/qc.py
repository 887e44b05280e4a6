"""Grid estimation of the complex dilatation of a sampled map.

Central-difference Wirtinger derivatives give the Beltrami coefficient
mu = f_zbar / f_z per cell and the dilatation K = (1 + |mu|) / (1 - |mu|).
This is the verification instrument for the analytic dilatation of crescent
scalings and radial power maps between annuli.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .crescents import (
    AngleScaling,
    angle_scale_array,
    quasiregular_bound,
    scaling_dilatation,
)
from .errors import EmptyField, NonpositiveInput, TooFewPoints
from .mobius import MobiusMap

DEGENERATE_REL_TOL = 1e-10

#: Least number of cells in a band of grid rows (see `_bands`).  numpy
#: computes a temporary in place only from 256 KiB on, and then swaps the
#: operands of a commutative op; its complex multiply rounds differently
#: with them swapped (`angle_scale_array`'s ``z * np.exp(...)``).  At 2^15
#: cells every float64 and complex128 band temporary reaches 256 KiB, so a
#: band computes in place wherever the whole grid did, and keeps its bits.
BAND_CELLS = 1 << 15


def _grid_step(span: float, n: int) -> float:
    """Spacing of ``n`` grid columns across ``span``; a grid needs two."""
    if n < 2:
        raise TooFewPoints(f"a grid needs at least 2 columns, got {n}")
    return span / (n - 1)


def _bands(ny: int, nx: int) -> list[slice]:
    """Row slices of an ny x nx grid, each of at least BAND_CELLS cells: the
    remainder joins the last band, and a smaller grid is one band."""
    rows = -(-BAND_CELLS // max(nx, 1))  # ceiling division
    starts = list(range(0, ny - rows + 1, rows)) or [0]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [ny])]


class GridSample:
    """Map values sampled on a uniform rectangular grid.

    values[j, i] is the image of x0 + i*h + 1j*(y0 + j*h); masked cells are
    excluded from statistics.  The estimator reads a sample one band of rows
    at a time (`bands`).  A sample made from arrays reads them; one made by
    `from_function` calls its map on each band it is asked for, and builds
    `values` and `mask`, read-only, only when they are read.
    """

    def __init__(self, x0: float, y0: float, h: float,
                 values: np.ndarray, mask: np.ndarray):
        self.x0, self.y0, self.h = x0, y0, h
        self.shape = values.shape
        self._arrays = values, mask
        self._sample_rows = lambda rows: (values[rows], mask[rows])

    @property
    def values(self) -> np.ndarray:
        return self._collected()[0]

    @property
    def mask(self) -> np.ndarray:
        return self._collected()[1]

    def _collected(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arrays is None:
            values, mask = np.empty(self.shape, complex), np.empty(self.shape, bool)
            for rows in _bands(*self.shape):
                values[rows], mask[rows] = self._sample_rows(rows)
            values.flags.writeable = mask.flags.writeable = False
            self._arrays = values, mask
        return self._arrays

    def cell_location(self, j: int, i: int) -> complex:
        return complex(self.x0 + i * self.h, self.y0 + j * self.h)

    def bands(self) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """(rows, values, mask) for each band of rows (see `_bands`); the
        arrays add the row above and the row below the band where the grid
        has them, taken from the neighbouring bands' samples."""
        slices = _bands(*self.shape)
        after = self._sample_rows(slices[0])
        above = []
        for k, rows in enumerate(slices):
            band = after
            after = self._sample_rows(slices[k + 1]) if k + 1 < len(slices) else None
            below = [tuple(a[:1] for a in after)] if after is not None else []
            yield (rows, *(np.concatenate(parts) for parts in zip(*above, band, *below)))
            above = [tuple(a[-1:].copy() for a in band)]

    @staticmethod
    def from_function(f, x0: float, x1: float, y0: float, y1: float,
                      n: int, mask_fn=None) -> "GridSample":
        """Sample f on an n-column grid with square cells.

        f and mask_fn act cell by cell: they are called on one band of rows
        at a time (see `_bands`), never on the whole grid, and again each
        time the sample is read, so they must give the same values each time.
        """
        h = _grid_step(x1 - x0, n)
        ny = int(round((y1 - y0) / h)) + 1
        xs = x0 + h * np.arange(n)
        ys = y0 + h * np.arange(ny)
        iys = 1j * ys[:, None]

        def sample_rows(rows):
            Z = xs[None, :] + iys[rows]
            values = np.empty(Z.shape, complex)
            values[...] = f(Z)
            mask = np.ones(Z.shape, bool)
            if mask_fn is not None:
                mask[...] = mask_fn(Z)
            return values, mask

        grid = GridSample.__new__(GridSample)
        grid.x0, grid.y0, grid.h, grid.shape = x0, y0, h, (len(ys), n)
        grid._arrays, grid._sample_rows = None, sample_rows
        return grid


class FieldBand(NamedTuple):
    """One band of rows of a Beltrami field, as `BeltramiField.bands` gives it,
    with each cell's |f_z| and the degeneracy threshold the band used."""

    rows: slice
    mask: np.ndarray
    mu: np.ndarray
    K: np.ndarray
    valid: np.ndarray
    degenerate: np.ndarray
    orientation_reversing: np.ndarray
    abs_fz: np.ndarray
    tol: float

    @property
    def usable(self) -> np.ndarray:
        """Cells that enter the statistics: valid, nondegenerate, orientation kept."""
        return self.valid & ~self.degenerate & ~self.orientation_reversing


def _field_bands(grid: GridSample, tol: float | None) -> Iterator[FieldBand]:
    """The field band by band.  A valid cell is degenerate where its |f_z| is
    below ``tol`` or, with ``tol`` None, below DEGENERATE_REL_TOL times the
    largest valid |f_z| of this band and the ones before it."""
    scale = np.nan
    for sample in grid.bands():
        band, scale = _field_band(grid, *sample, tol, scale)
        yield band


def _field_band(grid: GridSample, rows: slice, v: np.ndarray, m: np.ndarray,
                tol: float | None, scale: float) -> tuple[FieldBand, float]:
    """One band of the field from its sample (see `GridSample.bands`), and the
    largest valid |f_z| of the bands so far, given ``scale`` before it.

    A cell is valid when it lies inside the grid and it and its four
    neighbours are in the mask.  Central differences give f_x and f_y, NaN
    where a neighbour is missing; as NaN samples, infinite ones give NaN
    quietly.
    """
    ny, nx = grid.shape
    h = grid.h
    a, b = rows.start, rows.stop
    top = max(a - 1, 0)  # the row of v[0] and m[0]
    own = slice(a - top, b - top)
    ok = np.zeros((b - a, nx), bool)
    fx = np.full((b - a, nx), np.nan, complex)
    fy = np.full((b - a, nx), np.nan, complex)
    lo, hi = max(a, 1), min(b, ny - 1)  # the rows with a row on each side
    with np.errstate(invalid="ignore"):
        fx[:, 1:-1] = (v[own, 2:] - v[own, :-2]) / (2 * h)
        if lo < hi:
            mid, up, down = (slice(lo + d - top, hi + d - top) for d in (0, 1, -1))
            c = m[mid]
            ok[lo - a:hi - a, 1:-1] = (
                c[:, 1:-1] & c[:, 2:] & c[:, :-2] & m[up, 1:-1] & m[down, 1:-1])
            fy[lo - a:hi - a] = (v[up] - v[down]) / (2 * h)
        fz = (fx - 1j * fy) / 2.0
        fzb = (fx + 1j * fy) / 2.0
    del fx, fy  # a band's temporaries set the estimate's peak memory
    abs_fz = np.abs(fz)
    if tol is None:
        # NaN while every valid |f_z| is NaN, as numpy.nanmax gives
        scale = np.fmax.reduce(np.where(ok, abs_fz, np.nan), axis=None, initial=scale)
        tol = DEGENERATE_REL_TOL * max(scale, 1e-300)
    deg = ok & (abs_fz < tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(ok & ~deg, fzb / np.where(fz == 0, 1, fz), np.nan)
        rev = ok & ~deg & (np.abs(mu) >= 1.0)
        rev |= deg & (np.abs(fzb) > 0)
        K = (1.0 + np.abs(mu)) / (1.0 - np.abs(mu))
    return FieldBand(rows, m[own], mu, K, ok, deg, rev, abs_fz, tol), scale


#: the whole-grid arrays of a field, collected from its bands when read
_FIELD_ARRAYS = (("mu", complex), ("K", float), ("valid", bool), ("degenerate", bool),
                 ("orientation_reversing", bool), ("usable", bool))


@dataclass(eq=False)
class BeltramiField:
    """Estimated complex dilatation field of a grid sample.

    It keeps `usable_K`, the usable cells' K in C order; `sup`, the largest
    of them (numpy.argmax's: the first NaN, else the first largest) and its
    cell, or None; and the numbers of masked, degenerate and
    orientation-reversing cells.  `mu`, `K`, `valid`, `degenerate`,
    `orientation_reversing` and `usable` span the grid: the first one read
    collects them all from `bands`.
    """

    grid: GridSample
    tol: float
    usable_K: np.ndarray
    sup: tuple[float, tuple[int, int]] | None
    n_masked: int
    n_degenerate: int
    n_orientation_reversing: int
    _stats = None  # set by dilatation_stats

    def bands(self) -> Iterator[FieldBand]:
        """The field band by band, from the estimate's own kernel; each call
        samples the grid again."""
        return _field_bands(self.grid, self.tol)

    @cached_property
    def _arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: np.empty(self.grid.shape, dtype) for name, dtype in _FIELD_ARRAYS}
        for band in self.bands():
            for name, array in arrays.items():
                array[band.rows] = getattr(band, name)
        return arrays

    mu = property(lambda self: self._arrays["mu"])
    K = property(lambda self: self._arrays["K"])
    valid = property(lambda self: self._arrays["valid"])
    degenerate = property(lambda self: self._arrays["degenerate"])
    orientation_reversing = property(lambda self: self._arrays["orientation_reversing"])
    usable = property(lambda self: self._arrays["usable"])


def beltrami_estimate(grid: GridSample) -> BeltramiField:
    """Second-order central differences; boundary and mask-adjacent cells drop.

    A valid cell is degenerate where its |f_z| is below DEGENERATE_REL_TOL
    times the largest valid |f_z| of the grid.  One pass over bands of rows
    takes the largest |f_z| of the bands so far instead, which only grows:
    a cell the pass finds degenerate is degenerate, and the pass is exact
    unless a valid cell it did not find degenerate has an |f_z| below the
    final threshold.  Then a second pass redoes the bands with that one.
    """
    field, least = _estimate(grid, None)
    if least < field.tol:
        field, _ = _estimate(grid, field.tol)
    return field


def _estimate(grid: GridSample, tol: float | None) -> tuple[BeltramiField, float]:
    """One pass over the bands of `_field_bands(grid, tol)`: the field, and the
    least |f_z| of a valid cell the pass did not find degenerate."""
    ny, nx = grid.shape
    # the K of every usable cell, in C order; pages past them are never
    # touched, and the resize below gives them back
    kept = np.empty(ny * nx)
    n, sup, counts, least = 0, None, [0, 0, 0], np.inf
    for band in _field_bands(grid, tol):
        usable = band.usable
        c = int(np.count_nonzero(usable))
        kept[n:n + c] = band.K[usable]
        if c:
            k = n + int(np.argmax(kept[n:n + c]))
            # a later band's sup wins only where numpy.argmax would pick it
            if sup is None or not (math.isnan(sup[0]) or kept[k] <= sup[0]):
                j, i = divmod(int(np.flatnonzero(usable)[k - n]), nx)
                sup = (float(kept[k]), (band.rows.start + j, i))
        n += c
        least = np.fmin.reduce(np.where(band.valid & ~band.degenerate, band.abs_fz, np.inf),
                               axis=None, initial=least)
        for m, cells in enumerate((~band.mask, band.degenerate, band.orientation_reversing)):
            counts[m] += int(np.count_nonzero(cells))
        tol = band.tol
        del band, usable  # before the next band is computed
    kept.resize(n)
    return BeltramiField(grid, tol, kept, sup, *counts), least


@dataclass
class DilatationStats:
    sup: float
    sup_cell: tuple[int, int]
    sup_location: complex
    mean: float
    quantiles: dict
    n_cells: int
    n_masked: int
    n_degenerate: int
    n_orientation_reversing: int


_QUANTILES = (0.5, 0.9, 0.99)


def dilatation_stats(field: BeltramiField) -> DilatationStats:
    """Statistics of K over usable cells; the sup comes with its location.

    The quantiles partition `field.usable_K` in place, so they come after
    the mean, and the field keeps the statistics for the next call.
    """
    if field._stats is None:
        vals = field.usable_K
        if not vals.size:
            raise EmptyField("no usable cells")
        sup, (j, i) = field.sup
        mean = float(vals.mean())
        quantiles = np.quantile(vals, _QUANTILES, overwrite_input=True).tolist()
        field._stats = DilatationStats(
            sup=sup,
            sup_cell=(j, i),
            sup_location=field.grid.cell_location(j, i),
            mean=mean,
            quantiles=dict(zip(_QUANTILES, quantiles)),
            n_cells=vals.size,
            n_masked=field.n_masked,
            n_degenerate=field.n_degenerate,
            n_orientation_reversing=field.n_orientation_reversing,
        )
    return field._stats


# ---------------------------------------------------------------------------
# analytic fixtures
# ---------------------------------------------------------------------------


def identity_sample(n: int = 128) -> GridSample:
    return GridSample.from_function(lambda z: z, 0.0, 1.0, 0.0, 1.0, n)


def affine_sample(n: int = 128) -> GridSample:
    """f(x + iy) = 2x + iy: mu = 1/3, K = 2 exactly."""
    return GridSample.from_function(
        lambda z: 2 * z.real + 1j * z.imag, 0.0, 1.0, 0.0, 1.0, n
    )


def conjugation_sample(n: int = 128) -> GridSample:
    return GridSample.from_function(np.conj, 0.0, 1.0, 0.0, 1.0, n)


def power_map_sample(alpha: float, n: int = 512) -> GridSample:
    """Radial power map r e^{i t} -> r^alpha e^{i t} on the masked annulus 1 < |z| < 2.

    |mu| = |alpha - 1| / (alpha + 1), so sup K = max(alpha, 1/alpha).
    """
    if alpha <= 0:
        raise NonpositiveInput("alpha must be positive")

    def f(z):
        r = np.abs(z)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(r > 0, z * r ** (alpha - 1.0), 0.0)
        return out

    return GridSample.from_function(
        f, -2.0, 2.0, -2.0, 2.0, n,
        mask_fn=lambda z: (np.abs(z) > 1.0) & (np.abs(z) < 2.0),
    )


def mobius_sample(m: MobiusMap, n: int = 512) -> GridSample:
    return GridSample.from_function(m.apply_array, 0.0, 1.0, 0.0, 1.0, n)


def far_pole_mobius() -> MobiusMap:
    """Mobius fixture with pole ~100 domain-widths away.

    On the unit square with h ~ 1/512 the central-difference bias
    h^2 |f'''/f'| / 6 ~ 1e-9 sits below the 1e-8 conformality tolerance.
    """
    return MobiusMap(1.0, 0.5j, 0.01, 1.0)


def near_pole_mobius() -> MobiusMap:
    """Mobius fixture with pole at distance ~2: bias is visibly h^2."""
    return MobiusMap(1.0, 0.0, 0.5, 1.0 + 2.0j)


# ---------------------------------------------------------------------------
# verifications against closed forms
# ---------------------------------------------------------------------------


@dataclass
class ScalingCheck:
    w: complex
    theta: float
    n: int
    analytic_K: float
    grid_sup_K: float
    max_abs_deviation: float
    quasiregular_bound: float | None = None


def _estimate_against(grid: GridSample, analytic: float) -> tuple[float, float]:
    """Grid sup K and the largest deviation of a usable cell's K from ``analytic``."""
    field = beltrami_estimate(grid)
    stats = dilatation_stats(field)
    # the quantiles reordered usable_K, which the largest deviation ignores
    return stats.sup, float(np.max(np.abs(field.usable_K - analytic)))


def verify_scaling_dilatation(w: complex, theta: float, n: int = 512,
                              t: complex | None = None,
                              t0: complex | None = None) -> ScalingCheck:
    """Grid-estimate the dilatation of the angle scaling and compare.

    The scaling is sampled directly on the wedge sector 0.45 < |z| < 1,
    0 <= arg z <= theta, with cells within 2h of a wedge edge masked,
    mirroring how composite maps jump across bending lines.  The inner
    radius keeps the angular derivatives resolvable at the grid spacing.
    """
    scaling = AngleScaling(w, theta)
    analytic = scaling_dilatation(scaling)
    x_lo = min(0.0, math.cos(min(theta, math.pi)))
    h = _grid_step(1.0 - x_lo, n)

    def mask(z):
        r = np.abs(z)
        ang = np.angle(z) % (2 * math.pi)
        d_edge1 = z.imag  # distance to the positive real axis edge
        d_edge2 = r * np.sin(np.maximum(theta - ang, 0.0))
        return (
            (r > 0.45) & (r < 1.0)
            & (ang < theta) & (d_edge1 > 2 * h) & (d_edge2 > 2 * h)
        )

    grid = GridSample.from_function(
        lambda z: angle_scale_array(scaling, z), x_lo, 1.0, 0.0,
        math.sin(min(theta, math.pi / 2)) if theta < math.pi else 1.0,
        n, mask_fn=mask,
    )
    sup, dev = _estimate_against(grid, analytic)
    qb = quasiregular_bound(t, t0) if t is not None and t0 is not None else None
    return ScalingCheck(w, theta, n, analytic, sup, dev, qb)


@dataclass
class AnnulusExtremalCheck:
    s: float
    alpha: float
    n: int
    analytic_K: float
    grid_sup_K: float
    max_abs_deviation: float
    target_modulus: float


def extremal_alpha(s: float) -> float:
    """Power exponent sending the annulus onto one with its dome's modulus."""
    return math.pi * math.sinh(s / 2.0) / s


def annulus_extremal_check(s: float, alpha: float, n: int = 512) -> AnnulusExtremalCheck:
    """Dilatation of the radial power map between round annuli.

    Sampled in the log chart, where the annulus of modulus s/2pi is the
    rectangle [0, s] x [0, 2 pi) and the power map is zeta -> alpha Re zeta
    + i Im zeta.  sup K must come out max(alpha, 1/alpha); with
    alpha = extremal_alpha(s) the target annulus has the dome's modulus
    sinh(s/2)/2, so reaching it inside this family costs K(s).
    """
    if s <= 0 or alpha <= 0:
        raise NonpositiveInput("s and alpha must be positive")
    analytic = max(alpha, 1.0 / alpha)
    grid = GridSample.from_function(
        lambda zeta: np.exp(alpha * zeta.real + 1j * zeta.imag),
        0.0, s, 0.0, 2 * math.pi, n)
    sup, dev = _estimate_against(grid, analytic)
    return AnnulusExtremalCheck(
        s, alpha, n, analytic, sup, dev, alpha * s / (2 * math.pi)
    )
