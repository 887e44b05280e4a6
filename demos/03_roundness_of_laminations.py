"""Roundness of a finite lamination: exact chains vs brute-force arcs.

The roundness is the largest transverse measure an open unit-length
geodesic arc can pick up.  For finite laminations this is a combinatorial
maximum over chains of leaves whose extremes sit closer than unit
perpendicular distance; a million random/targeted arcs confirm it.
"""
import math

import numpy as np

from domekit.hyperbolic import GeodesicH2
from domekit.laminations import (
    FiniteLamination,
    random_lamination,
    roundness,
    roundness_brute_force,
    scale,
)

# two leaves orthogonal to a common axis, perpendicular distance d
def two_leaves(d, w1, w2):
    import cmath

    from domekit.mobius import CAYLEY

    inv = CAYLEY.inverse()

    def leaf(a, b):
        return GeodesicH2.from_angles(cmath.phase(inv(a)), cmath.phase(inv(b)))

    return FiniteLamination(
        [leaf(-1.0, 1.0), leaf(-math.exp(d), math.exp(d))], [w1, w2]
    )


print("two leaves, weights 2 and 3, at controlled perpendicular distance:")
for d in (1.5, 1.01, 0.99, 0.4):
    lam = two_leaves(d, 2.0, 3.0)
    print(f"  distance {d:5.2f}: roundness = {roundness(lam):.1f}"
          f"   (chains need distance < 1 to combine)")

print("\nscaling is linear in the weights:")
lam = two_leaves(0.4, 2.0, 3.0)
for c in (1.0, 2.0, 1.0 / roundness(lam)):
    print(f"  scale by {c:8.4f}: roundness {roundness(scale(lam, c)):.6f}")

print("\nrandom laminations: exact value vs 10^5 sampled unit arcs")
rng = np.random.default_rng(3)
for k in range(5):
    lam = random_lamination(rng, 6)
    exact = roundness(lam)
    brute = roundness_brute_force(lam, n_arcs=10**5, seed=k)
    print(f"  #{k}: exact {exact:10.6f}   sampled {brute:10.6f}   "
          f"gap {exact - brute:.2e}")
print("sampled arcs never exceed the exact value and attain it when the")
print("pool contains an arc aligned with the optimal chain.")
