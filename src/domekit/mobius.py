"""Fractional-linear transformations of the Riemann sphere and circles on it.

A MobiusMap is the isometry currency of the whole engine: it acts on the
extended complex plane, and (via the Poincare extension in
:mod:`domekit.hyperbolic`) on upper half-space.  Its algebra is the 2x2
kernel below, functions on coefficient tuples (a, b, c, d) of floats or
complex numbers; the dome's development calls them on real tuples.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateMobius

#: Sentinel for the point at infinity on the Riemann sphere.
INF = complex(math.inf, 0.0)

_DET_TOL = 1e-12
#: beyond this modulus |z|^2 is near overflow, and formulas divide by |z| first
HUGE = 1e150


def is_inf(z) -> bool:
    """INF: any non-finite complex, or a real +inf; the finite test comes first."""
    return not cmath.isfinite(z) and (isinstance(z, complex) or z == math.inf)


def chordal_distance(z, w) -> float:
    """Distance between two extended-complex points on the unit sphere.

    Above HUGE, where |z|^2 overflows, sqrt(1 + |z|^2) is taken as a hypot.
    """
    if is_inf(z) and is_inf(w):
        return 0.0
    if is_inf(z):
        z, w = w, z
    if is_inf(w):
        r = abs(z)
        return 2.0 / (math.hypot(1.0, r) if r > HUGE else math.sqrt(1.0 + r ** 2))
    if max(abs(z), abs(w)) > HUGE:
        return 2.0 * (abs(z - w) / math.hypot(1.0, abs(z))) / math.hypot(1.0, abs(w))
    return 2.0 * abs(z - w) / math.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


def compose(m: tuple, n: tuple) -> tuple:
    """m after n (the matrix product m @ n)."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inverse(m: tuple) -> tuple:
    """The adjugate of m: its inverse map, with the same determinant."""
    a, b, c, d = m
    return (d, -b, -c, a)


def apply(m: tuple, z):
    """Image of an extended number z under m; INF at a pole."""
    a, b, c, d = m
    if not cmath.isfinite(z) and is_inf(z):  # a finite z skips the call
        return a / c if c else INF
    den = c * z + d
    return (a * z + b) / den if den else INF


def to_zero_inf(p, q) -> tuple:
    """A map sending p to 0 and q to inf (normalization free); either may be inf."""
    if is_inf(p):
        return (0.0, 1.0, 1.0, -q)
    if is_inf(q):
        return (1.0, -p, 0.0, 1.0)
    return (1.0, -p, 1.0, -q)


class MobiusMap:
    """z -> (a z + b) / (c z + d), normalized to determinant 1 (up to sign)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        size = max(abs(a), abs(b), abs(c), abs(d), 1.0)
        if size > HUGE:  # rescale, so that neither det nor size**2 overflows
            a, b, c, d, size = a / size, b / size, c / size, d / size, 1.0
        det = a * d - b * c
        if abs(det) < _DET_TOL * size ** 2:
            raise DegenerateMobius(f"determinant {det} too small")
        s = cmath.sqrt(det)
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s

    # -- algebra ---------------------------------------------------------

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other (the matrix product, self on the left)."""
        return MobiusMap(*compose((self.a, self.b, self.c, self.d),
                                  (other.a, other.b, other.c, other.d)))

    def inverse(self) -> "MobiusMap":
        return MobiusMap(*inverse((self.a, self.b, self.c, self.d)))

    def trace(self) -> complex:
        return self.a + self.d

    # -- action ----------------------------------------------------------

    def __call__(self, z):
        """Apply to an extended complex number; total on the sphere."""
        return apply((self.a, self.b, self.c, self.d), z)

    def apply_array(self, z: np.ndarray) -> np.ndarray:
        """Vectorized action on finite complex arrays (poles map to inf)."""
        num = self.a * z + self.b
        den = self.c * z + self.d
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / den
        return out

    def __repr__(self):
        return f"MobiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1, 0, 0, 1)

    @staticmethod
    def to_zero_one_inf(z1, z2, z3) -> "MobiusMap":
        """The unique map sending (z1, z2, z3) to (0, 1, inf)."""
        if is_inf(z1):
            return MobiusMap(0, z2 - z3, 1, -z3)
        if is_inf(z2):
            return MobiusMap(1, -z1, 1, -z3)
        if is_inf(z3):
            return MobiusMap(1, -z1, 0, z2 - z1)
        return MobiusMap(z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))

    @staticmethod
    def from_three_points(src, dst) -> "MobiusMap":
        """Map the triple src = (z1,z2,z3) to dst = (w1,w2,w3)."""
        return MobiusMap.to_zero_one_inf(*dst).inverse().compose(
            MobiusMap.to_zero_one_inf(*src)
        )

    @staticmethod
    def to_zero_inf(p, q) -> "MobiusMap":
        """Some map sending p to 0 and q to inf (normalization free)."""
        return MobiusMap(*to_zero_inf(p, q))

    @staticmethod
    def translation_along(p, q, dist: float) -> "MobiusMap":
        """Hyperbolic translation with axis (p, q), by dist toward q.

        If p, q lie on a circle, that circle (and both disks it bounds)
        is preserved.
        """
        return MobiusMap._about_axis(p, q, math.exp(dist / 2.0))

    @staticmethod
    def rotation_about(p, q, angle: float) -> "MobiusMap":
        """Elliptic map with fixed points p, q; angle signed by the (p, q) order."""
        return MobiusMap._about_axis(p, q, cmath.exp(1j * angle / 2.0))

    @staticmethod
    def _about_axis(p, q, half) -> "MobiusMap":
        """s^-1 diag(half, 1/half) s, s sending p to 0 and q to inf.

        It fixes p and q, with multiplier half^2 at p.
        """
        s = MobiusMap.to_zero_inf(p, q)
        return s.inverse().compose(MobiusMap(half, 0, 0, 1.0 / half)).compose(s)

    @staticmethod
    def cayley_disk_to_uhp() -> "MobiusMap":
        """Unit disk -> upper half plane, 0 -> i, 1 -> inf, -1 -> 0."""
        return MobiusMap(1j, 1j, -1, 1)


def random_disk_mobius(rng: np.random.Generator) -> MobiusMap:
    """Random Mobius map preserving the unit disk (SU(1,1) form)."""
    t = rng.uniform(0, 2 * math.pi)
    phi = rng.uniform(0, 2 * math.pi)
    r = rng.uniform(0, 2.0)
    b = r * cmath.exp(1j * phi)
    a = math.sqrt(1 + r * r) * cmath.exp(1j * t)
    return MobiusMap(a, b, b.conjugate(), a.conjugate())


def random_mobius(rng: np.random.Generator) -> MobiusMap:
    """Random normalized Mobius map (rejection on near-degenerate draws)."""
    while True:
        m = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            return MobiusMap(*m)
        except DegenerateMobius:
            continue


class CircleOrLine:
    """Circle or line on the Riemann sphere, as a Hermitian form.

    Stored as (A, B, C) with A, C real and B complex; the locus is
    A |z|^2 + B conj(z) + conj(B) z + C = 0, with infinity on the locus
    iff A = 0 (a line).  Real circles require |B|^2 - A C > 0.
    """

    __slots__ = ("A", "B", "C")

    def __init__(self, A: float, B: complex, C: float):
        A, B, C = float(A), complex(B), float(C)
        norm = math.sqrt(A * A + 2 * abs(B) ** 2 + C * C)
        if norm == 0:
            raise ValueError("zero Hermitian form")
        if abs(B) ** 2 - A * C <= 0:
            raise ValueError("form has no real locus")
        # canonical scale and sign, so equal circles compare equal
        A, B, C = A / norm, B / norm, C / norm
        for lead in (A, B.real, B.imag, C):
            if abs(lead) > 1e-13:
                if lead < 0:
                    A, B, C = -A, -B, -C
                break
        self.A, self.B, self.C = A, B, C

    # -- constructors ----------------------------------------------------

    @staticmethod
    def circle(center: complex, radius: float) -> "CircleOrLine":
        if radius <= 0:
            raise ValueError("radius must be positive")
        return CircleOrLine(1.0, -center, abs(center) ** 2 - radius**2)

    @staticmethod
    def line_through(p: complex, q: complex) -> "CircleOrLine":
        """Line through two finite points."""
        d = q - p
        if d == 0:
            raise ValueError("points coincide")
        b = 1j * d / abs(d)
        c = -(b * p.conjugate() + b.conjugate() * p).real
        return CircleOrLine(0.0, b, c)

    @staticmethod
    def unit_circle() -> "CircleOrLine":
        return CircleOrLine(1.0, 0.0, -1.0)

    @staticmethod
    def real_line() -> "CircleOrLine":
        return CircleOrLine(0.0, 0.5j, 0.0)

    @staticmethod
    def through_points(z1, z2, z3) -> "CircleOrLine":
        """Circle or line through three distinct extended-complex points."""
        return CircleOrLine.real_line().mobius_image(
            MobiusMap.from_three_points((0, 1, INF), (z1, z2, z3)))

    # -- queries -----------------------------------------------------------

    @property
    def is_line(self) -> bool:
        return abs(self.A) < 1e-12

    def center_radius(self) -> tuple[complex, float]:
        if self.is_line:
            raise ValueError("a line has no finite center")
        c = -self.B / self.A
        r2 = (abs(self.B) ** 2 - self.A * self.C) / self.A**2
        return c, math.sqrt(r2)

    def evaluate(self, z) -> float:
        """Signed value of the Hermitian form at z (0 on the locus)."""
        if is_inf(z):
            return self.A
        return (
            self.A * abs(z) ** 2 + 2 * (self.B.conjugate() * z).real + self.C
        )

    def contains(self, z, tol: float = 1e-9) -> bool:
        if is_inf(z):
            return abs(self.A) < tol
        scale = max(1.0, abs(z) ** 2)
        return abs(self.evaluate(z)) < tol * scale

    def mobius_image(self, m: MobiusMap) -> "CircleOrLine":
        """Image circle under a Mobius map: the form N* H N, N the inverse map."""
        n = m.inverse()
        a, b, c, d = n.a, n.b, n.c, n.d
        A, B, C = self.A, self.B, self.C
        ac, cc = a.conjugate(), c.conjugate()
        return CircleOrLine(
            A * abs(a) ** 2 + 2 * (ac * B * c).real + C * abs(c) ** 2,
            A * ac * b + B * ac * d + B.conjugate() * cc * b + C * cc * d,
            A * abs(b) ** 2 + 2 * (b.conjugate() * B * d).real + C * abs(d) ** 2,
        )

    def intersect(self, other: "CircleOrLine") -> list:
        """Intersection points with another circle/line (possibly incl. INF)."""
        pts = []
        if self.is_line and other.is_line:
            # both pass through infinity
            pts.append(INF)
            a1, c1 = self.B, self.C
            a2, c2 = other.B, other.C
            # solve 2 Re(conj(B) z) + C = 0 for both, by Cramer's rule
            det = 4 * (a1.real * a2.imag - a1.imag * a2.real)
            if abs(det) < 1e-14:
                return pts  # parallel lines: tangent at infinity
            pts.append(complex(2 * (c2 * a1.imag - c1 * a2.imag) / det,
                               2 * (c1 * a2.real - c2 * a1.real) / det))
            return pts
        if self.is_line or other.is_line:
            line, circ = (self, other) if self.is_line else (other, self)
            c, r = circ.center_radius()
            # line: 2 Re(conj(B) z) + C = 0; unit normal n, distance from c
            n = line.B / abs(line.B)
            d = (2 * (line.B.conjugate() * c).real + line.C) / (2 * abs(line.B))
            foot = c - d * n
            h2 = r * r - d * d
            if h2 < -1e-14 * r * r:
                return []
            h = math.sqrt(max(h2, 0.0))
            t = 1j * n
            return [foot + h * t, foot - h * t]
        c1, r1 = self.center_radius()
        c2, r2 = other.center_radius()
        d = abs(c2 - c1)
        if d < 1e-15:
            return []
        x = (d * d + r1 * r1 - r2 * r2) / (2 * d)
        h2 = r1 * r1 - x * x
        if h2 < -1e-12 * r1 * r1:
            return []
        h = math.sqrt(max(h2, 0.0))
        u = (c2 - c1) / d
        base = c1 + x * u
        return [base + h * 1j * u, base - h * 1j * u]

    def __repr__(self):
        if self.is_line:
            return f"CircleOrLine(line, B={self.B:.6g}, C={self.C:.6g})"
        c, r = self.center_radius()
        return f"CircleOrLine(center={c:.6g}, radius={r:.6g})"
