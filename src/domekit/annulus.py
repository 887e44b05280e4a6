"""Closed-form geometry of the round annulus family, the engine's ground truth.

Omega(s) is the annulus between radii 1 and e^s.  Everything about it and
its dome is exactly solvable, which makes the family the cross-check for
the bound calculator: the extremal dilatation K(s) must sit between the
lower bound (when defined) and both upper bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import (
    dilatation_lower_bound,
    dome_dilatation_bound,
    domain_dilatation_bound,
)
from .errors import NonpositiveModulusParameter, OutOfDomain


@dataclass(frozen=True)
class AnnulusGeometry:
    """All closed forms for the annulus of modulus s / (2 pi)."""

    s: float
    modulus: float                # s / 2pi
    core_length: float            # 2 pi^2 / s, in the Poincare metric
    nu: float                     # pi^2 / s, half the core length
    dome_modulus: float           # sinh(s/2) / 2
    dome_core_length: float       # 2 pi / sinh(s/2)
    nu_hat: float                 # pi / sinh(s/2)
    K: float                      # pi sinh(s/2) / s, the extremal dilatation


def annulus_geometry(s: float) -> AnnulusGeometry:
    """The closed forms at s; `OutOfDomain` naming s where one overflows:
    2 pi^2 / s, the largest form in 1/s, below s of about 1.098e-307, and
    sinh(s/2), which K and the dome's forms take, above s of about
    1420.95 (and at s = inf).

    K is pi sinh(s/2) / s, and pi (sinh(s/2) / s) only where pi sinh(s/2)
    overflows, above s of about 1418.66.
    """
    if not s > 0:
        raise NonpositiveModulusParameter(f"s = {s} must be positive")
    core_length = 2.0 * math.pi**2 / s
    if math.isinf(core_length):
        raise OutOfDomain(f"s = {s}: core length 2 pi^2 / s overflows a float")
    try:
        sh = math.sinh(s / 2.0)
    except OverflowError:
        sh = math.inf
    if math.isinf(sh):
        raise OutOfDomain(f"s = {s}: sinh(s/2) overflows a float")
    K = math.pi * sh / s
    if math.isinf(K):
        K = math.pi * (sh / s)
    return AnnulusGeometry(
        s=s,
        modulus=s / (2.0 * math.pi),
        core_length=core_length,
        nu=math.pi**2 / s,
        dome_modulus=sh / 2.0,
        dome_core_length=2.0 * math.pi / sh,
        nu_hat=math.pi / sh,
        K=K,
    )


@dataclass(frozen=True)
class AnnulusBoundReport:
    s: float
    K: float
    M_of_nu: float
    N_of_nu_hat: float
    lower: float | None
    K_le_M: bool
    K_le_N: bool
    lower_le_K: bool | None


def verify_bounds(s: float) -> AnnulusBoundReport:
    """Check K(s) against both upper bounds and, when nu < 1/2, the lower one.

    Failures are reported as data, not raised.
    """
    g = annulus_geometry(s)
    M = domain_dilatation_bound(g.nu)
    N = dome_dilatation_bound(g.nu_hat)
    if g.nu < 0.5:
        low = dilatation_lower_bound(g.nu)
        low_ok = low <= g.K
    else:
        low, low_ok = None, None
    return AnnulusBoundReport(
        s=s, K=g.K, M_of_nu=M, N_of_nu_hat=N, lower=low,
        K_le_M=g.K <= M, K_le_N=g.K <= N, lower_le_K=low_ok,
    )


def asymptotic_ratios(s: float) -> tuple[float, float | None]:
    """Ratios of K(s) to its two asymptotic forms; both tend to 1 as s grows.

    r1 = K * 2 pi / (nu e^{pi^2 / 2 nu});  identically 1 - e^{-s}.
    r2 = K * 2 nu_hat log(1 / nu_hat) / pi^2, defined only for nu_hat < 1;
    it converges like 1 - 2 log(2 pi) / s, i.e. only logarithmically in
    the dilatation itself.
    """
    g = annulus_geometry(s)
    r1 = g.K * 2.0 * math.pi / (g.nu * math.exp(math.pi**2 / (2.0 * g.nu)))
    if g.nu_hat < 1.0:
        r2 = g.K * 2.0 * g.nu_hat * math.log(1.0 / g.nu_hat) / math.pi**2
    else:
        r2 = None
    return r1, r2
