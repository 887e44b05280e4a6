"""Crescents and complex angle scalings.

A crescent is one of the regions between two transversely intersecting
circles on the sphere; it can be normalized by a Mobius map to the standard
wedge anchored on the positive real axis.  Angle scalings stretch the
angular coordinate of the wedge; their complex dilatation is constant, so
the quasiconformal constant has a closed form.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCrescent, NotInjective, OutsideWedge
from .mobius import CircleOrLine, MobiusMap, to_zero_inf

_TAU = 2 * math.pi


def _ray_angles(line: CircleOrLine) -> float:
    """Direction (mod pi) of a line through the origin."""
    if not line.is_line:
        raise ValueError("expected a line")
    return cmath.phase(1j * line.B) % math.pi


@dataclass
class Crescent:
    """Region bounded by arcs of two transversely intersecting circles.

    ``sample`` selects the component.  The interior angle ``theta``, the
    ``vertices`` where the circles meet, and ``beta``, the Mobius map onto
    the standard wedge of angle ``theta`` (the vertices to 0 and infinity,
    one boundary arc to the positive real axis), are computed on
    construction.
    """

    circle1: CircleOrLine
    circle2: CircleOrLine
    sample: complex
    theta: float = field(init=False)
    vertices: tuple = field(init=False)
    beta: MobiusMap = field(init=False)

    def __post_init__(self):
        pts = self.circle1.intersect(self.circle2)
        if len(pts) != 2:
            raise DegenerateCrescent(
                f"circles meet in {len(pts)} points, need 2"
            )
        candidates = []
        for p1, p2 in (tuple(pts), tuple(reversed(pts))):
            m0 = MobiusMap(*to_zero_inf(p1, p2))
            l1 = self.circle1.mobius_image(m0)
            l2 = self.circle2.mobius_image(m0)
            if not (l1.is_line and l2.is_line):
                raise DegenerateCrescent("normalized boundaries are not lines")
            a1 = _ray_angles(l1)
            a2 = _ray_angles(l2)
            rays = sorted({a1 % _TAU, (a1 + math.pi) % _TAU,
                           a2 % _TAU, (a2 + math.pi) % _TAU})
            sigma = cmath.phase(m0(self.sample)) % _TAU
            lo = None
            for i, r in enumerate(rays):
                r_next = rays[(i + 1) % len(rays)]
                hi = r_next if r_next > r else r_next + _TAU
                if r < sigma < hi:
                    lo, width = r, hi - r
                    break
            if lo is None:
                raise DegenerateCrescent("sample point lies on a boundary circle")
            candidates.append((min(lo, _TAU - lo), lo, width, (p1, p2), m0))
        candidates.sort(key=lambda c: c[0])
        _, lo, width, (p1, p2), m0 = candidates[0]
        if width > math.pi + 1e-9:
            raise DegenerateCrescent(
                f"selected component has angle {width} > pi"
            )
        rot = MobiusMap(cmath.exp(-1j * lo), 0, 0, 1)
        self.theta = width
        self.vertices = (p1, p2)
        self.beta = rot.compose(m0)

    @staticmethod
    def standard_wedge(theta: float) -> "Crescent":
        """The wedge 0 <= arg z <= theta itself, as a crescent with vertex 0, inf."""
        if not 0 < theta <= math.pi:
            raise ValueError("theta must lie in (0, pi]")
        boundary1 = CircleOrLine.real_line()
        boundary2 = CircleOrLine.line_through(0j, cmath.exp(1j * theta))
        return Crescent(boundary1, boundary2, cmath.exp(1j * theta / 2.0))


@dataclass(frozen=True)
class AngleScaling:
    """The map z -> z exp(w arg z) on the wedge 0 <= arg z <= theta.

    The argument branch is [0, 2 pi), anchored at the positive real axis.
    When Im w > -1 and 0 < (Im w + 1) theta < 2 pi the map is a
    homeomorphism onto the wedge of angle (Im w + 1) theta.
    """

    w: complex
    theta: float

    def image_angle(self) -> float:
        return (self.w.imag + 1.0) * self.theta

    def is_injective(self) -> bool:
        return self.w.imag > -1.0 and 0.0 < self.image_angle() < _TAU


def angle_scale(a: AngleScaling, z: complex) -> complex:
    """Apply the scaling to a point of the wedge."""
    if z == 0:
        return 0j
    arg = cmath.phase(z) % _TAU
    if arg > a.theta + 1e-9 and arg < _TAU - 1e-9:
        raise OutsideWedge(f"arg(z) = {arg} outside [0, {a.theta}]")
    if arg >= _TAU - 1e-9:
        arg = 0.0
    return z * cmath.exp(a.w * arg)


def angle_scale_array(a: AngleScaling, z: np.ndarray) -> np.ndarray:
    arg = np.angle(z) % _TAU
    return z * np.exp(a.w * arg)


def scaling_beltrami_modulus(a: AngleScaling) -> float:
    """|mu| of the scaling, constant on the wedge: |w| / |2 - i w|."""
    den = abs(2.0 - 1j * a.w)
    if den == 0:
        return math.inf
    return abs(a.w) / den


def scaling_dilatation(a: AngleScaling) -> float:
    """Exact quasiconformal dilatation of the angle scaling.

    From the constant Beltrami coefficient mu = e^{2 i phi} i w / (2 - i w):
    K = (1 + |mu|) / (1 - |mu|).  Raises NotInjective when the image wedge
    closes up or is empty (theta <= 0) or the map degenerates (Im w <= -1).
    """
    if not a.is_injective():
        raise NotInjective(
            f"(Im w + 1) theta = {a.image_angle()} not in (0, 2 pi)"
        )
    mu = scaling_beltrami_modulus(a)
    if mu >= 1.0:
        raise NotInjective(f"|mu| = {mu} >= 1")
    return (1.0 + mu) / (1.0 - mu)


def scaling_beltrami(a: AngleScaling, z: complex) -> complex:
    """Pointwise Beltrami coefficient e^{2 i arg z} i w / (2 - i w)."""
    phi = cmath.phase(z) % _TAU
    return cmath.exp(2j * phi) * (1j * a.w) / (2.0 - 1j * a.w)


def crescent_parameter(t: complex, t0: complex) -> complex:
    """Scaling parameter w = i (t - t0) / t0 of the crescent piece of the flow."""
    return 1j * (t - t0) / t0


def quasiregular_bound(t: complex, t0: complex) -> float:
    """(1 + |kappa|) / (1 - |kappa|) with kappa = (t - t0) / (t + t0)."""
    kappa = abs((t - t0) / (t + t0))
    if kappa >= 1.0:
        raise NotInjective(f"|kappa| = {kappa} >= 1")
    return (1.0 + kappa) / (1.0 - kappa)
