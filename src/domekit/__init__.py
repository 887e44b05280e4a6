"""domekit: computational hyperbolic geometry.

Pleated planes, earthquakes, complex earthquakes, crescent angle scalings,
convex-hull domes with the nearest-point retraction, closed-form dilatation
bounds, the exactly solvable round-annulus family, and a grid estimator for
the complex dilatation of sampled maps.

The names below are loaded from their modules on first use (PEP 562), so
``import domekit.bounds`` loads neither numpy nor the other modules.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the module that defines it
_EXPORTS = {
    "INF": "mobius",
    "CircleOrLine": "mobius",
    "MobiusMap": "mobius",
    "BoundaryPointH2": "hyperbolic",
    "GeodesicH2": "hyperbolic",
    "PointH2": "hyperbolic",
    "PointH3": "hyperbolic",
    "busemann": "hyperbolic",
    "dist_h2": "hyperbolic",
    "dist_h3": "hyperbolic",
    "geodesic_distance": "hyperbolic",
    "poincare_extension": "hyperbolic",
    "FiniteLamination": "laminations",
    "GeodesicArc": "laminations",
    "pushforward": "laminations",
    "random_lamination": "laminations",
    "roundness": "laminations",
    "roundness_brute_force": "laminations",
    "scale": "laminations",
    "transverse_measure": "laminations",
    "validate": "laminations",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
