"""Grid estimation of the complex dilatation of a sampled map.

Central-difference Wirtinger derivatives give the Beltrami coefficient
mu = f_zbar / f_z per cell and the dilatation K = (1 + |mu|) / (1 - |mu|).
This is the verification instrument for the analytic dilatation of crescent
scalings and radial power maps between annuli.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass
class GridSample:
    """Map values sampled on a uniform rectangular grid.

    values[j, i] is the image of x0 + i*h + 1j*(y0 + j*h); masked cells are
    excluded from statistics.
    """

    x0: float
    y0: float
    h: float
    values: np.ndarray
    mask: np.ndarray

    @property
    def shape(self):
        return self.values.shape

    def cell_location(self, j: int, i: int) -> complex:
        return complex(self.x0 + i * self.h, self.y0 + j * self.h)

    @staticmethod
    def from_function(f, x0: float, x1: float, y0: float, y1: float,
                      n: int, mask_fn=None) -> "GridSample":
        """Sample f on an n-column grid with square cells.

        f and mask_fn act cell by cell: they are called on one band of rows
        at a time (see `_bands`), never on the whole grid.
        """
        h = _grid_step(x1 - x0, n)
        ny = int(round((y1 - y0) / h)) + 1
        xs = x0 + h * np.arange(n)
        ys = y0 + h * np.arange(ny)
        iys = 1j * ys[:, None]
        values = np.empty((ny, n), complex)
        mask = np.ones((ny, n), bool)
        for rows in _bands(ny, n):
            Z = xs[None, :] + iys[rows]
            values[rows] = f(Z)
            if mask_fn is not None:
                mask[rows] = mask_fn(Z)
        return GridSample(x0, y0, h, values, mask)


@dataclass
class BeltramiField:
    """Estimated complex dilatation field of a grid sample."""

    grid: GridSample
    mu: np.ndarray
    K: np.ndarray
    valid: np.ndarray
    degenerate: np.ndarray
    orientation_reversing: np.ndarray

    @property
    def usable(self) -> np.ndarray:
        """Cells that enter the statistics: valid, nondegenerate, orientation kept."""
        return self.valid & ~self.degenerate & ~self.orientation_reversing


def _differences(v: np.ndarray, h: float, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Central differences f_x, f_y on one band of rows; NaN where one is missing."""
    ny, nx = v.shape
    a, b = rows.start, rows.stop
    fx = np.full((b - a, nx), np.nan, complex)
    fy = np.full((b - a, nx), np.nan, complex)
    fx[:, 1:-1] = (v[rows, 2:] - v[rows, :-2]) / (2 * h)
    lo, hi = max(a, 1), min(b, ny - 1)
    fy[lo - a:hi - a] = (v[lo + 1:hi + 1] - v[lo - 1:hi - 1]) / (2 * h)
    return fx, fy


def beltrami_estimate(grid: GridSample) -> BeltramiField:
    """Second-order central differences; boundary and mask-adjacent cells drop.

    Two passes over bands of rows: the first finds the largest |f_z|, which
    sets the degeneracy threshold; the second writes mu, K and the masks.
    Only the field's own arrays span the grid.
    """
    v = grid.values
    h = grid.h
    ny, nx = v.shape
    m = grid.mask
    valid = np.zeros_like(m)
    valid[1:-1, 1:-1] = (
        m[1:-1, 1:-1]
        & m[1:-1, 2:] & m[1:-1, :-2]
        & m[2:, 1:-1] & m[:-2, 1:-1]
    )
    bands = _bands(ny, nx)
    scale = 1.0
    if valid.any():
        # NaN when every valid |f_z| is NaN, as numpy.nanmax gives
        scale = np.nan
        for rows in bands:
            fx, fy = _differences(v, h, rows)
            fz = (fx - 1j * fy) / 2.0
            scale = np.fmax.reduce(np.abs(np.where(valid[rows], fz, np.nan)),
                                   axis=None, initial=scale)
    tol = DEGENERATE_REL_TOL * max(scale, 1e-300)
    mu = np.empty(v.shape, complex)
    K = np.empty(v.shape)
    degenerate = np.empty(v.shape, bool)
    orientation_reversing = np.empty(v.shape, bool)
    for rows in bands:
        fx, fy = _differences(v, h, rows)
        fz = (fx - 1j * fy) / 2.0
        fzb = (fx + 1j * fy) / 2.0
        ok = valid[rows]
        deg = ok & (np.abs(fz) < tol)
        with np.errstate(divide="ignore", invalid="ignore"):
            band_mu = np.where(ok & ~deg, fzb / np.where(fz == 0, 1, fz), np.nan)
            rev = ok & ~deg & (np.abs(band_mu) >= 1.0)
            rev |= deg & (np.abs(fzb) > 0)
            K[rows] = (1.0 + np.abs(band_mu)) / (1.0 - np.abs(band_mu))
        mu[rows], degenerate[rows], orientation_reversing[rows] = band_mu, deg, rev
    return BeltramiField(grid, mu, K, valid, degenerate, orientation_reversing)


@dataclass
class DilatationStats:
    sup: float
    sup_cell: tuple[int, int]
    sup_location: complex
    mean: float
    quantiles: dict
    n_cells: int


_QUANTILES = (0.5, 0.9, 0.99)


def dilatation_stats(field: BeltramiField) -> DilatationStats:
    """Statistics of K over usable cells; the sup comes with its location."""
    usable = field.usable
    vals = field.K[usable]
    if not vals.size:
        raise EmptyField("no usable cells")
    # the sup is the k-th usable cell in C order; its row is the first whose
    # running count of usable cells passes k
    k = int(np.argmax(vals))
    counts = np.cumsum(usable.sum(axis=1))
    j = int(np.searchsorted(counts, k, side="right"))
    i = int(np.flatnonzero(usable[j])[k - (int(counts[j - 1]) if j else 0)])
    sup, mean = float(vals[k]), float(vals.mean())
    # partitions vals in place, so it comes after the sup and the mean
    quantiles = np.quantile(vals, _QUANTILES, overwrite_input=True).tolist()
    return DilatationStats(
        sup=sup,
        sup_cell=(j, i),
        sup_location=field.grid.cell_location(j, i),
        mean=mean,
        quantiles=dict(zip(_QUANTILES, quantiles)),
        n_cells=vals.size,
    )


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
        with np.errstate(divide="ignore", invalid="ignore"):
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
    return stats.sup, float(np.max(np.abs(field.K[field.usable] - analytic)))


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
