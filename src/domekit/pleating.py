"""Pleated planes, earthquakes and complex earthquakes for finite laminations.

The complement of a finite lamination is a tree of gaps.  A pleated plane
maps the base gap into a fixed vertical plane of upper half-space and bends
by each leaf's weight across it; an earthquake shears instead of bending.
Both are realized as one Mobius map per gap, composed along the tree path
from the base.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonpositiveInput, OutOfDomain
from .hyperbolic import (
    BOUNDARY_TOL,
    GeodesicH2,
    PointH2,
    PointH3,
    disk_boundary_to_real,
    disk_to_halfspace,
    dist_h2_array,
    dist_h3_array,
    poincare_extension,
    poincare_extension_array,
)
from .laminations import FiniteLamination, GapComplex, pushforward, validate
from .mobius import CAYLEY, MobiusMap, compose, normalize, rotation, translation


@dataclass(frozen=True)
class _GapMaps:
    """One Mobius map per gap of a lamination, the identity on the base gap.

    Frozen, so that the boundary maps built once from the gap maps stay
    theirs; subclasses add methods only.
    """

    lamination: FiniteLamination
    base_gap: int
    gap_maps: list[MobiusMap] = field(repr=False)

    @property
    def complex_(self) -> GapComplex:
        return self.lamination.gaps

    @cached_property
    def _boundary_maps(self) -> list[MobiusMap]:
        """The map applied on each gap's boundary arcs, built on first use."""
        return self.gap_maps

    def boundary(self, angle: float):
        """Image of the disk boundary point at ``angle``, an extended complex
        number: the boundary map of the gap whose arc holds it."""
        a = angle % (2 * math.pi)
        return self._boundary_maps[self.lamination.gaps.boundary_gap(a)](cmath.exp(1j * a))

    def boundary_angle(self, angle: float) -> float:
        """The boundary trace as angle -> angle of its image in [0, 2 pi)."""
        w = self.boundary(angle)
        return math.atan2(w.imag, w.real) % (2 * math.pi)


# ---------------------------------------------------------------------------
# earthquakes
# ---------------------------------------------------------------------------


class EarthquakeMap(_GapMaps):
    """Left earthquake along a finite lamination, one disk Mobius per gap."""

    def apply(self, p: PointH2) -> PointH2:
        g = self.complex_.gap_of(p)
        return PointH2(self.gap_maps[g](p.z))


def _gap_maps(lam: FiniteLamination, amounts: list[float], base,
              leaf_map) -> tuple[int, list[MobiusMap]]:
    """Validate; return the base gap and one Mobius map per gap, the base's the identity.

    ``leaf_map(leaf, amount, inside)`` is the normalized tuple of the map
    across a leaf whose far side (away from the base) is, or is not, the
    side holding its boundary arc from ``leaf.a`` to ``leaf.b``.  Each
    gap's map is its base-ward neighbour's map composed with the map of
    the leaf between them, normalized: the tuple kernel of `mobius` makes
    the products that `MobiusMap.compose` would, with the same bits, and
    each gap's map is wrapped once at the end.
    """
    validate(lam)
    complex_ = lam.gaps
    base_id = complex_.resolve(base)
    maps = [None] * len(complex_)
    maps[base_id] = normalize((1, 0, 0, 1))
    for i, near, far in complex_.walk(base_id):
        inside = far == complex_.arc_side(i)
        maps[far] = normalize(compose(maps[near], leaf_map(lam.leaves[i], amounts[i], inside)))
    return base_id, [MobiusMap.wrap(m) for m in maps]


def _shear(leaf: GeodesicH2, dist: float, inside: bool) -> tuple:
    """Translation along the leaf moving the far side to its left.

    Standing on the leaf facing the far gap, that gap slides to the left
    (counterclockwise of the facing direction) for positive dist: toward
    ``leaf.b`` when the far side holds the arc from ``leaf.a`` to ``leaf.b``.
    """
    p, q = (leaf.a.z, leaf.b.z) if inside else (leaf.b.z, leaf.a.z)
    return translation(p, q, dist)


def _quake(lam: FiniteLamination, x: float, base) -> EarthquakeMap:
    """Left earthquake shearing by x times each leaf's weight, fixing the base gap."""
    return EarthquakeMap(lam, *_gap_maps(lam, [x * w for w in lam.weights], base, _shear))


def earthquake(lam: FiniteLamination, base=None) -> EarthquakeMap:
    """Left earthquake shearing by each leaf's weight, fixing the base gap."""
    return _quake(lam, 1.0, base)


# ---------------------------------------------------------------------------
# pleated planes
# ---------------------------------------------------------------------------


class PleatedPlane(_GapMaps):
    """Bent isometric image of the disk in upper half-space.

    The base gap lands in the vertical plane over the real axis; each other
    gap is moved by the ordered composition of rotations, one per leaf
    separating it from the base, about the flat image of that leaf.
    """

    def apply(self, p: PointH2) -> PointH3:
        g = self.complex_.gap_of(p)
        return poincare_extension(self.gap_maps[g], disk_to_halfspace(p.z))

    @cached_property
    def _boundary_maps(self) -> list[MobiusMap]:
        """The gap maps after the Cayley map, which lays the circle on the
        real line: the boundary trace lands on the sphere."""
        return [m.compose(CAYLEY) for m in self.gap_maps]


def _bend(leaf: GeodesicH2, angle: float, inside: bool) -> tuple:
    """Rotation about the flat image of the leaf tipping its far side to y > 0."""
    a = disk_boundary_to_real(leaf.a.angle)
    b = disk_boundary_to_real(leaf.b.angle)
    return rotation(a, b, angle if inside else -angle)


def pleat(lam: FiniteLamination, base=None) -> PleatedPlane:
    """Convex pleated plane bending by each leaf's weight across the base gap."""
    return PleatedPlane(lam, *_gap_maps(lam, lam.weights, base, _bend))


# ---------------------------------------------------------------------------
# complex earthquakes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexEarthquake:
    """Earthquake by Re(z) mu followed by bending by Im(z) times the image.

    Built as the pleated plane along the pushed-forward lamination after the
    real earthquake; agrees with a pure bend at Re(z) = 0 and with a plane
    earthquake at Im(z) = 0.
    """

    lamination: FiniteLamination
    z: complex
    quake: EarthquakeMap
    plane: PleatedPlane

    def apply(self, p: PointH2) -> PointH3:
        return self.plane.apply(self.quake.apply(p))

    def boundary(self, angle: float):
        return self.plane.boundary(self.quake.boundary_angle(angle))


def complex_earthquake(lam: FiniteLamination, z: complex, base=None) -> ComplexEarthquake:
    quake = _quake(lam, z.real, base)
    pushed = pushforward(quake.boundary_angle, lam)
    base_sample = lam.gaps.gaps[quake.base_gap].sample
    plane = PleatedPlane(pushed, *_gap_maps(pushed, [z.imag * w for w in lam.weights],
                                            base_sample, _bend))
    return ComplexEarthquake(lam, complex(z), quake, plane)


# ---------------------------------------------------------------------------
# the parameter region of guaranteed embeddings
# ---------------------------------------------------------------------------


def shear_reach(L: float, x: float) -> float:
    """min(asinh(e^{|x|} sinh L), e^{|x|/2} sinh L)."""
    return min(
        math.asinh(math.exp(abs(x)) * math.sinh(L)),
        math.exp(abs(x) / 2.0) * math.sinh(L),
    )


def in_T0(t: complex, c2: float = 0.73) -> bool:
    """Whether t = x + iy has |y| < c2 / ceil(shear_reach(1, x))."""
    t = complex(t)
    return abs(t.imag) < c2 / math.ceil(shear_reach(1.0, t.real))


# ---------------------------------------------------------------------------
# embedding diagnostics
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingReport:
    samples: int
    min_ratio: float
    max_ratio: float
    near_collisions: int
    #: pairs closer than 1e-6 in H^2, left out of the ratios
    skipped: int


def embedding_check(plane: PleatedPlane, samples: int = 10**4,
                    seed: int = 0, radius: float = 3.0) -> EmbeddingReport:
    """Sample point pairs and compare image distance to source distance.

    A ratio bounded away from zero over many pairs is evidence of an
    embedding; near-collisions (tiny image distance at macroscopic source
    distance) witness a failure.  The points are drawn uniformly by area
    within hyperbolic ``radius`` of the origin, which must keep them off
    the boundary (|z| < 1 - BOUNDARY_TOL); pairs closer than 1e-6 are
    skipped.

    All pairs are mapped at once in numpy, whose complex arithmetic and
    arcsinh round differently from Python's in the last bits.  The ratios
    therefore agree with a pair-by-pair evaluation to within
    1e-14 (S^2 e^radius / d + d^-2) relative, S the largest gap-map
    coefficient and d the least source distance of a compared pair;
    the counts agree exactly.
    """
    if samples < 1:
        raise NonpositiveInput(f"samples must be at least 1, got {samples}")
    bad_radius = f"radius = {radius} must be positive and keep |z| < 1 - {BOUNDARY_TOL}"
    if not (radius > 0 and math.tanh(radius / 2.0) < 1.0 - BOUNDARY_TOL):
        raise OutOfDomain(bad_radius)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=(2, samples))
    r = np.arccosh(1.0 + u * (math.cosh(radius) - 1.0))
    phi = rng.uniform(0.0, 2 * math.pi, size=(2, samples))
    zs = np.tanh(r / 2.0) * np.exp(1j * phi)
    if (np.abs(zs) >= 1.0 - BOUNDARY_TOL).any():
        raise OutOfDomain(bad_radius)
    d2 = dist_h2_array(zs[0], zs[1])
    kept = d2 >= 1e-6
    d2 = d2[kept]
    coeffs = np.array([(m.a, m.b, m.c, m.d) for m in plane.gap_maps])

    def image(z):
        w = CAYLEY.apply_array(z)
        maps = coeffs[plane.complex_.gaps_of(z)]
        return poincare_extension_array(maps, w.real + 0j, w.imag)

    d3 = dist_h3_array(*image(zs[0, kept]), *image(zs[1, kept]))
    ratio = d3 / d2
    return EmbeddingReport(
        samples,
        float(ratio.min()) if ratio.size else math.inf,
        float(ratio.max()) if ratio.size else 0.0,
        int(np.count_nonzero((d3 < 1e-8) & (d2 > 1e-3))),
        samples - len(d2),
    )
