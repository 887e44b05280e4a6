"""Models of the hyperbolic plane and 3-space.

H^2 is the open unit disk, H^3 the upper half-space {(z, t) : t > 0}.
Internally some predicates run through the Minkowski (hyperboloid) model,
which is not part of the public surface.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CrossingLeaves
from .mobius import CAYLEY, HUGE, INF, MobiusMap, is_inf

#: points closer than this to the unit circle are rejected as interior points
BOUNDARY_TOL = 1e-9
#: two leaves whose polars have |<u, v>| within this of 1 are asymptotic
ASYMPTOTIC_TOL = 1e-12


# ---------------------------------------------------------------------------
# point types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointH2:
    """Point of the hyperbolic plane in the unit-disk model."""

    z: complex

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        if abs(self.z) >= 1.0 - BOUNDARY_TOL:
            raise ValueError(f"|z| = {abs(self.z)} too close to the boundary")


@dataclass(frozen=True)
class BoundaryPointH2:
    """Point of the circle at infinity of H^2, an angle in [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        # a tiny negative angle rounds up to 2 pi itself, which is 0
        angle = float(self.angle) % (2 * math.pi)
        object.__setattr__(self, "angle", 0.0 if angle == 2 * math.pi else angle)

    @property
    def z(self) -> complex:
        return cmath.exp(1j * self.angle)


@dataclass(frozen=True)
class PointH3:
    """Point of upper half-space: boundary coordinate x + iy, height t > 0."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError(f"height t = {self.t} must be positive")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class GeodesicH2:
    """Complete geodesic of H^2, an unordered pair of distinct boundary points.

    Stored with angles sorted increasingly; the ordering fixes the sign
    convention of the side predicate.
    """

    a: BoundaryPointH2
    b: BoundaryPointH2

    def __post_init__(self):
        p, q = self.a, self.b
        if abs(p.angle - q.angle) < 1e-14:
            raise ValueError("geodesic endpoints coincide")
        if p.angle > q.angle:
            object.__setattr__(self, "a", q)
            object.__setattr__(self, "b", p)

    @staticmethod
    def from_angles(t1: float, t2: float) -> "GeodesicH2":
        return GeodesicH2(BoundaryPointH2(t1), BoundaryPointH2(t2))

    def angles(self) -> tuple[float, float]:
        return (self.a.angle, self.b.angle)


# ---------------------------------------------------------------------------
# Minkowski helpers for the disk model (internal)
# ---------------------------------------------------------------------------

def _mink_dot(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def point_vec(z) -> np.ndarray:
    """Timelike unit vector of a disk point (vectorized over complex arrays)."""
    z = np.asarray(z, dtype=complex)
    # not ** 2, which rounds differently for a numpy scalar (pow) and an array
    r2 = np.square(np.abs(z))
    d = 1.0 - r2
    return np.stack([2 * z.real / d, 2 * z.imag / d, (1 + r2) / d], axis=-1)


def light_vec(angle) -> np.ndarray:
    """Lightlike vector of a boundary angle (vectorized)."""
    angle = np.asarray(angle, dtype=float)
    return np.stack(
        [np.cos(angle), np.sin(angle), np.ones_like(angle)], axis=-1
    )


def geodesic_polars(angles) -> np.ndarray:
    """(n, 3) spacelike unit vectors Minkowski-orthogonal to the geodesics
    with endpoint angles ``angles[k] = (t1, t2)``.

    The sign is fixed by the order of the two angles.
    """
    angles = np.asarray(angles, dtype=float).reshape(-1, 2)
    u = np.cross(light_vec(angles[:, 0]), light_vec(angles[:, 1]))
    u[:, 2] = -u[:, 2]
    return u / np.sqrt(np.abs(_mink_dot(u, u)))[:, None]


def geodesic_polar(g: GeodesicH2) -> np.ndarray:
    """`geodesic_polars` of one geodesic, in its canonical endpoint order."""
    return geodesic_polars(g.angles())[0]


def side_of(z, polar: np.ndarray):
    """Signed sinh(distance) of disk point(s) z from the geodesic with this polar."""
    return _mink_dot(point_vec(z), polar)


def side_values(zs: np.ndarray, polars: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(N, n) side values of N disk points against n polars, written into
    ``out`` when given: ``side_of(zs[:, None], polars)`` bit for bit.

    The points' Minkowski coordinates x, y, t are taken as `point_vec`
    takes them, as contiguous columns, and each entry is
    (x u0 + y u1) - t u2 in `_mink_dot`'s order, with one temporary.  The
    work runs on the (n, N) transpose, a row of N points per leaf; without
    ``out`` the result is the transpose of a C-ordered (n, N) array.
    """
    zs = np.asarray(zs, dtype=complex)
    r2 = np.square(np.abs(zs))
    d = 1.0 - r2
    x, y, t = 2 * zs.real / d, 2 * zs.imag / d, (1 + r2) / d
    u0, u1, u2 = (np.asarray(polars, dtype=float)[:, k, None] for k in range(3))
    rows = np.empty((len(u0), len(zs))) if out is None else out.T
    np.multiply(x, u0, out=rows)
    tmp = np.multiply(y, u1)
    rows += tmp
    rows -= np.multiply(t, u2, out=tmp)
    return rows.T


def boundary_side(angle, polar: np.ndarray):
    """Signed side value for boundary angle(s); zero exactly at the endpoints."""
    return _mink_dot(light_vec(angle), polar)


def foot_on_geodesic(z: complex, polar: np.ndarray) -> complex:
    """Foot of the perpendicular from a disk point to the geodesic with this polar.

    A point on the geodesic (to ~1e-14) is its own foot.
    """
    v = np.cross(polar, point_vec(z))
    v[2] = -v[2]
    nv = math.sqrt(abs(_mink_dot(v, v)))
    if nv < 1e-14:
        return z
    v = v / nv
    f = np.cross(polar, v)
    f[2] = -f[2]
    return _vec_to_disk(f)


def _vec_to_disk(X: np.ndarray) -> complex:
    X = X / math.sqrt(abs(-_mink_dot(X, X)))
    if X[2] < 0:
        X = -X
    return complex(X[0], X[1]) / (1.0 + X[2])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def dist_h2(p: PointH2 | complex, q: PointH2 | complex) -> float:
    """Hyperbolic distance in the disk model.

    It and `dist_h3` evaluate acosh(1 + u) as 2 asinh(sqrt(u / 2)), which
    keeps full relative precision for near points.
    """
    zp = p.z if isinstance(p, PointH2) else complex(p)
    zq = q.z if isinstance(q, PointH2) else complex(q)
    num = 2.0 * abs(zp - zq) ** 2
    den = (1.0 - abs(zp) ** 2) * (1.0 - abs(zq) ** 2)
    return 2.0 * math.asinh(math.sqrt(num / den / 2.0))


def dist_h2_array(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """`dist_h2` over complex arrays of disk points."""
    num = 2.0 * np.abs(z1 - z2) ** 2
    den = (1.0 - np.abs(z1) ** 2) * (1.0 - np.abs(z2) ** 2)
    return 2.0 * np.arcsinh(np.sqrt(num / den / 2.0))


def dist_h3(p: PointH3, q: PointH3) -> float:
    """Hyperbolic distance in upper half-space."""
    num = (p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.t - q.t) ** 2
    return 2.0 * math.asinh(math.sqrt(num / (2.0 * p.t * q.t) / 2.0))


def dist_h3_array(z1: np.ndarray, t1: np.ndarray, z2: np.ndarray,
                  t2: np.ndarray) -> np.ndarray:
    """`dist_h3` over arrays of points (z, t) of upper half-space."""
    num = (z1.real - z2.real) ** 2 + (z1.imag - z2.imag) ** 2 + (t1 - t2) ** 2
    return 2.0 * np.arcsinh(np.sqrt(num / (2.0 * t1 * t2) / 2.0))


def dist_point_geodesic_h2(z, g: GeodesicH2) -> float:
    """Distance from a disk point to a complete geodesic."""
    return float(np.arcsinh(np.abs(side_of(z if not isinstance(z, PointH2) else z.z,
                                           geodesic_polar(g)))))


def geodesic_distance(g1: GeodesicH2, g2: GeodesicH2):
    """Distance between two disjoint geodesics and the perpendicular feet.

    Returns (distance, foot1, foot2); the feet are ``None`` for asymptotic
    leaves (shared endpoint), where the distance is 0.  Raises
    CrossingLeaves if the endpoint pairs interleave.
    """
    u1, u2 = geodesic_polar(g1), geodesic_polar(g2)
    c = float(_mink_dot(u1, u2))
    if abs(c) < 1.0 - ASYMPTOTIC_TOL:
        if g1.angles() == g2.angles():
            return 0.0, None, None
        raise CrossingLeaves(0, 1, "geodesics intersect")
    if abs(c) < 1.0 + ASYMPTOTIC_TOL:
        return 0.0, None, None
    z1, z2 = perpendicular_feet(u1, u2)
    return math.acosh(abs(c)), PointH2(z1), PointH2(z2)


def perpendicular_feet(u1: np.ndarray, u2: np.ndarray) -> tuple[complex, complex]:
    """Disk points where the common perpendicular of two ultraparallel
    geodesics, given by their polars, meets each of them."""
    # polar of the common perpendicular
    v = np.cross(u1, u2)
    v[2] = -v[2]
    v = v / math.sqrt(abs(_mink_dot(v, v)))
    f1 = np.cross(u1, v)
    f1[2] = -f1[2]
    f2 = np.cross(u2, v)
    f2[2] = -f2[2]
    return _vec_to_disk(f1), _vec_to_disk(f2)


def point_along(z: complex, direction: float, dist: float) -> complex:
    """Disk point at hyperbolic distance ``dist`` from z in the given direction.

    The direction is the Euclidean angle of the initial tangent at z.
    """
    step = math.tanh(dist / 2.0) * cmath.exp(1j * direction)
    return (step + z) / (1.0 + z.conjugate() * step)


# ---------------------------------------------------------------------------
# Poincare extension and H^3 model conversions
# ---------------------------------------------------------------------------

def poincare_extension(m: MobiusMap, p: PointH3) -> PointH3:
    """Isometric action of a Mobius map on upper half-space.

    Quaternion formula: for q = z + t j, the image is
    ((a z + b) conj(c z + d) + a conj(c) t^2, t) / (|c z + d|^2 + |c|^2 t^2),
    valid for determinant-1 coefficients.
    """
    z = p.z
    t = p.t
    den = abs(m.c * z + m.d) ** 2 + abs(m.c) ** 2 * t * t
    w = ((m.a * z + m.b) * (m.c * z + m.d).conjugate()
         + m.a * m.c.conjugate() * t * t) / den
    return PointH3(w.real, w.imag, t / den)


def poincare_extension_array(coeffs: np.ndarray, z: np.ndarray,
                             t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`poincare_extension` over arrays: the determinant-1 coefficients
    (a, b, c, d) in the last axis of ``coeffs`` act on the points (z, t);
    returns the images as arrays (z, t)."""
    a, b, c, d = np.moveaxis(coeffs, -1, 0)
    cz_d = c * z + d
    den = np.abs(cz_d) ** 2 + np.abs(c) ** 2 * t * t
    w = ((a * z + b) * np.conj(cz_d) + a * np.conj(c) * t * t) / den
    return w, t / den


def halfspace_to_ball(p: PointH3) -> np.ndarray:
    """Upper half-space point to the Poincare ball model."""
    d = p.x**2 + p.y**2 + (p.t + 1.0) ** 2
    return np.array(
        [2 * p.x / d, 2 * p.y / d, (p.x**2 + p.y**2 + p.t**2 - 1.0) / d]
    )


def ball_to_halfspace(b: np.ndarray) -> PointH3:
    b1, b2, b3 = (float(v) for v in b)
    d = b1 * b1 + b2 * b2 + (1.0 - b3) ** 2
    return PointH3(2 * b1 / d, 2 * b2 / d, (1.0 - (b1**2 + b2**2 + b3**2)) / d)


def boundary_to_sphere(z) -> np.ndarray:
    """Extended complex number to a unit vector (inverse stereographic)."""
    return np.array(sphere_xyz(z))


def sphere_xyz(z) -> tuple[float, float, float]:
    """`boundary_to_sphere` as a tuple of floats."""
    if is_inf(z):
        return 0.0, 0.0, 1.0
    r = abs(z)
    if r > HUGE:  # |z|^2 overflows; 1 + |z|^-2 rounds to 1
        return 2 * (z.real / r) / r, 2 * (z.imag / r) / r, 1.0
    n = r ** 2
    d = n + 1.0
    return 2 * z.real / d, 2 * z.imag / d, (n - 1.0) / d


def sphere_to_boundary(v: np.ndarray):
    """Unit sphere vector to extended complex."""
    if 1.0 - v[2] < 1e-14:
        return INF
    return complex(v[0], v[1]) / (1.0 - v[2])


def disk_to_halfspace(z: complex) -> PointH3:
    """Embed the disk model of H^2 as the vertical plane {y = 0} of H^3."""
    w = CAYLEY(z)
    return PointH3(w.real, 0.0, w.imag)


def disk_boundary_to_real(angle: float):
    """Boundary angle of the disk to a point of R union {inf} via Cayley."""
    return CAYLEY(cmath.exp(1j * angle))


# ---------------------------------------------------------------------------
# Busemann functions
# ---------------------------------------------------------------------------

def busemann(xi, p: PointH3, basepoint: PointH3) -> float:
    """Busemann function at the ideal point xi, vanishing at the basepoint.

    Level sets are horospheres centered at xi; values decrease toward xi.
    """
    if is_inf(xi):  # the identity's extension gives NaN once t^2 overflows
        return math.log(basepoint.t / p.t)
    m = MobiusMap.to_inf(xi)
    return math.log(
        poincare_extension(m, basepoint).t / poincare_extension(m, p).t
    )


def geodesic_ray_point(xi, start: PointH3, s: float) -> PointH3:
    """Point at parameter s along the unit-speed ray from start toward xi."""
    m = MobiusMap.to_inf(xi)
    q = poincare_extension(m, start)
    # ray toward infinity in the normalized frame climbs vertically
    q2 = PointH3(q.x, q.y, q.t * math.exp(s))
    return poincare_extension(m.inverse(), q2)


# ---------------------------------------------------------------------------
# planes and dihedral data in H^3
# ---------------------------------------------------------------------------

def point_to_hyperboloid(p: PointH3) -> np.ndarray:
    """Upper half-space point to the hyperboloid model of H^3 (4-vector)."""
    b = halfspace_to_ball(p)
    d = 1.0 - float(b @ b)
    return np.array([2 * b[0] / d, 2 * b[1] / d, 2 * b[2] / d, (1 + b @ b) / d])


def ideal_to_lightcone(z) -> np.ndarray:
    """Ideal boundary point to a lightlike 4-vector (last coord 1)."""
    v = boundary_to_sphere(z)
    return np.array([v[0], v[1], v[2], 1.0])


def mink4_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] - u[3] * v[3]
