"""domekit: computational hyperbolic geometry.

Pleated planes, earthquakes, complex earthquakes, crescent angle scalings,
convex-hull domes with the nearest-point retraction, closed-form dilatation
bounds, the exactly solvable round-annulus family, and a grid estimator for
the complex dilatation of sampled maps.
"""

__version__ = "0.1.0"

from .mobius import INF, CircleOrLine, MobiusMap
from .hyperbolic import (
    BoundaryPointH2,
    GeodesicH2,
    PointH2,
    PointH3,
    busemann,
    dist_h2,
    dist_h3,
    geodesic_distance,
    poincare_extension,
)
from .laminations import (
    FiniteLamination,
    GeodesicArc,
    pushforward,
    random_lamination,
    roundness,
    roundness_brute_force,
    scale,
    transverse_measure,
    validate,
)

__all__ = [
    "INF",
    "CircleOrLine",
    "MobiusMap",
    "BoundaryPointH2",
    "GeodesicH2",
    "PointH2",
    "PointH3",
    "busemann",
    "dist_h2",
    "dist_h3",
    "geodesic_distance",
    "poincare_extension",
    "FiniteLamination",
    "GeodesicArc",
    "pushforward",
    "random_lamination",
    "roundness",
    "roundness_brute_force",
    "scale",
    "transverse_measure",
    "validate",
]
