"""Closed-form dilatation and roundness bounds.

Every bound is a function of a hyperbolic injectivity radius: ``nu`` for the
plane domain, ``nu_hat`` for the dome surface.  All quantities are
dimensionless hyperbolic lengths.  Out-of-domain inputs raise rather than
extrapolate, because the hypotheses behind these formulas are sharp.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from .errors import NonpositiveInput, OutOfDomain

#: arccosh(e^2); e**m == e^2 + sqrt(e^4 - 1)
ARCCOSH_E_SQUARED = math.acosh(math.e**2)

#: additive constant of the retraction Lipschitz bound, 4 + log(3 + 2*sqrt(2))
LIPSCHITZ_OFFSET = 4.0 + math.log(3.0 + 2.0 * math.sqrt(2.0))

#: upper end of the domain of `radius_for_arc`
ARC_GAUGE_LIMIT = 2.0 * math.asinh(1.0)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _positive(name: str, x: float) -> None:
    """Reject x outside (0, inf); at inf the bounds have limits, not values."""
    if not x > 0:
        raise NonpositiveInput(f"{name} = {x} must be positive")
    if x == math.inf:
        raise OutOfDomain(f"{name} = {x} outside (0, inf)")


def radius_for_arc(x: float) -> float:
    """Injectivity radius that certifies a length-x arc has small bending.

    Strictly increasing on [0, 2*asinh(1)), blowing up at the right end.
    """
    if x < 0 or x >= ARC_GAUGE_LIMIT:
        raise OutOfDomain(f"x = {x} outside [0, {ARC_GAUGE_LIMIT})")
    s = math.sinh(x / 2.0)
    if s >= 1.0:  # x within float rounding of the right end
        return math.inf
    return x / 2.0 + math.asinh(s / math.sqrt(1.0 - s * s))


def arc_for_radius(x: float) -> float:
    """Functional inverse of `radius_for_arc`, at its certified end.

    Returns the largest float a with radius_for_arc(a) <= x: the longest
    arc certified to carry bending at most 2*pi when the injectivity
    radius is at least x.  Increasing in x.  The search bisects the bit
    patterns of the floats in [0, ARC_GAUGE_LIMIT), which order as the
    floats do, so it ends on that float.
    """
    _positive("x", x)
    lo, hi = 0, _float_bits(ARC_GAUGE_LIMIT)  # radius(lo) <= x < radius(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if radius_for_arc(_bits_float(mid)) <= x:
            lo = mid
        else:
            hi = mid
    return _bits_float(lo)


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


def dome_injectivity_lower(nu: float) -> float:
    """Lower bound for the dome injectivity radius from the domain one.

    exp(-arccosh(e^2)) * exp(-pi^2 / (2 nu)) / 2; increasing, below 1/2.
    """
    _positive("nu", nu)
    return math.exp(-ARCCOSH_E_SQUARED) * math.exp(-math.pi**2 / (2.0 * nu)) / 2.0


def roundness_bound_dome(nu_hat: float) -> tuple[float, float]:
    """Bending roundness bounds from the dome injectivity radius.

    Returns (exact, relaxed) = (2 pi ceil(1 / arc_for_radius(nu_hat)),
    4 pi / nu_hat + 2 pi); exact <= relaxed always.  Each is inf where it
    overflows a float.
    """
    _positive("nu_hat", nu_hat)
    inv = 1.0 / arc_for_radius(nu_hat)
    exact = 2.0 * math.pi * math.ceil(inv) if inv < math.inf else math.inf
    relaxed = 4.0 * math.pi / nu_hat + 2.0 * math.pi
    return exact, relaxed


def roundness_bound_domain(nu: float) -> tuple[float, float]:
    """Bending roundness bounds from the domain injectivity radius.

    Returns (tight, relaxed) = (8 pi e^m e^{pi^2/2nu} + 2 pi,
    370 e^{pi^2/2nu} + 2 pi) with m = arccosh(e^2).
    """
    _positive("nu", nu)
    e = _exp_or_inf(math.pi**2 / (2.0 * nu))
    tight = 8.0 * math.pi * math.exp(ARCCOSH_E_SQUARED) * e + 2.0 * math.pi
    relaxed = 370.0 * e + 2.0 * math.pi
    return tight, relaxed


def domain_dilatation_bound(nu: float) -> float:
    """Quasiconformal dilatation bound from the domain injectivity radius.

    48 pi e^m e^{pi^2/2nu} + 12 pi, which is 6x the tight roundness bound.
    """
    _positive("nu", nu)
    return (
        48.0 * math.pi * math.exp(ARCCOSH_E_SQUARED)
        * _exp_or_inf(math.pi**2 / (2.0 * nu))
        + 12.0 * math.pi
    )


def domain_dilatation_bound_relaxed(nu: float) -> float:
    """Relaxed integer-coefficient form 2220 e^{pi^2/2nu} + 38."""
    _positive("nu", nu)
    return 2220.0 * _exp_or_inf(math.pi**2 / (2.0 * nu)) + 38.0


def dome_dilatation_bound(nu_hat: float) -> float:
    """Quasiconformal dilatation bound from the dome injectivity radius.

    24 pi / nu_hat + 12 pi, which is 6x the relaxed roundness bound.
    """
    _positive("nu_hat", nu_hat)
    return 24.0 * math.pi / nu_hat + 12.0 * math.pi


def retraction_lipschitz_bound(nu: float) -> float:
    """Lipschitz constant of the nearest-point retraction: 2 sqrt2 (k + pi^2/2nu)."""
    _positive("nu", nu)
    return 2.0 * math.sqrt(2.0) * (LIPSCHITZ_OFFSET + math.pi**2 / (2.0 * nu))


def dilatation_lower_bound(nu: float) -> float:
    """Lower bound on the dilatation when the domain is thin somewhere.

    nu e^{pi^2 / (2 sqrt(e) nu)} / (pi^2 e^{pi/2}), valid for nu in (0, 0.5)
    and decreasing there.
    """
    if not (0.0 < nu < 0.5):
        raise OutOfDomain(f"nu = {nu} outside (0, 0.5)")
    return (
        nu * _exp_or_inf(math.pi**2 / (2.0 * math.sqrt(math.e) * nu))
        / (math.pi**2 * math.exp(math.pi / 2.0))
    )


def annulus_modulus_bounds(length: float) -> tuple[float, float]:
    """Extremal annulus modulus around a closed geodesic of this length.

    Returns (upper, lower) = (pi / l, pi / (l e^{l/2})).
    """
    _positive("length", length)
    return math.pi / length, math.pi / (length * math.exp(length / 2.0))


def retracted_geodesic_length_bound(length: float) -> float:
    """Bound on the geodesic length of the retracted curve on the dome.

    4 pi e^{0.502 pi} e^{-pi^2 / (sqrt(e) L)}; increasing in L.
    """
    _positive("length", length)
    return (
        4.0 * math.pi * math.exp(0.502 * math.pi)
        * math.exp(-math.pi**2 / (math.sqrt(math.e) * length))
    )


def lower_bound_chain(nu: float, geodesic_length: float | None = None) -> float:
    """Replay of the modulus chain behind `dilatation_lower_bound`.

    For a closed geodesic of the given length L (at most 2*nu) the chain
    K >= 2 L / (pi * retracted_geodesic_length_bound(L)) evaluates to
    L e^{pi^2/(sqrt e L)} / (2 pi^2 e^{0.502 pi}).
    """
    if not (0.0 < nu < 0.5):
        raise OutOfDomain(f"nu = {nu} outside (0, 0.5)")
    L = 2.0 * nu if geodesic_length is None else geodesic_length
    if not 0.0 < L <= 2.0 * nu:
        raise OutOfDomain(f"geodesic length {L} outside (0, 2*nu]")
    return 2.0 * L / (math.pi * retracted_geodesic_length_bound(L))


def canary_length_bound(nu: float) -> float:
    """Historical length-ratio bound (optional calculator entry).

    max( sqrt2 (k + log 2), sqrt2 (k nu + 8 pi k + 2 pi^2) / nu ).
    """
    _positive("nu", nu)
    k = LIPSCHITZ_OFFSET
    return max(
        math.sqrt(2.0) * (k + math.log(2.0)),
        math.sqrt(2.0) * (k * nu + 8.0 * math.pi * k + 2.0 * math.pi**2) / nu,
    )


def convex_core_length_bound(length: float) -> float:
    """Historical bound 45 L e^{L/2} (optional calculator entry)."""
    _positive("length", length)
    return 45.0 * length * math.exp(length / 2.0)


def _verdict(holds: bool, *compared: float) -> bool | None:
    """``holds``, or None where a value it compared overflowed: inf = 6 inf
    says nothing about the bounds."""
    return holds if all(map(math.isfinite, compared)) else None


@dataclass
class BoundReport:
    """Every bound evaluated at the given injectivity radii."""

    nu: float | None = None
    nu_hat: float | None = None
    values: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    @staticmethod
    def evaluate(nu: float | None = None, nu_hat: float | None = None) -> "BoundReport":
        rep = BoundReport(nu=nu, nu_hat=nu_hat)
        v = rep.values
        if nu is not None:
            tight, relaxed = roundness_bound_domain(nu)
            v["M"] = domain_dilatation_bound(nu)
            v["M_relaxed"] = domain_dilatation_bound_relaxed(nu)
            v["roundness_tight"] = tight
            v["roundness_relaxed"] = relaxed
            v["lipschitz"] = retraction_lipschitz_bound(nu)
            v["g"] = dome_injectivity_lower(nu)
            if 0.0 < nu < 0.5:
                v["lower_bound"] = dilatation_lower_bound(nu)
                v["lower_bound_reason"] = None
            else:
                v["lower_bound"] = None
                v["lower_bound_reason"] = "nu outside (0, 0.5)"
            rep.verdicts["M_is_6x_tight_roundness"] = _verdict(
                math.isclose(v["M"], 6.0 * tight, rel_tol=1e-12), v["M"], tight)
            rep.verdicts["tight_le_relaxed"] = _verdict(tight <= relaxed, tight, relaxed)
        if nu_hat is not None:
            exact, relaxed = roundness_bound_dome(nu_hat)
            v["N"] = dome_dilatation_bound(nu_hat)
            v["dome_roundness_exact"] = exact
            v["dome_roundness_relaxed"] = relaxed
            rep.verdicts["N_is_6x_relaxed_roundness"] = _verdict(
                math.isclose(v["N"], 6.0 * relaxed, rel_tol=1e-12), v["N"], relaxed)
            rep.verdicts["exact_le_relaxed"] = _verdict(exact <= relaxed, exact, relaxed)
        return rep
