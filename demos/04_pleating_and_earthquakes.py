"""Bending and shearing the hyperbolic plane along a finite lamination.

A pleated plane maps the disk into upper half-space, bending by each
leaf's weight; an earthquake shears inside the disk instead.  A complex
parameter x + iy does both: shear by x, then bend by y along the sheared
lamination.
"""
import math

import numpy as np

from domekit.hyperbolic import GeodesicH2, PointH2, dist_h2, dist_h3
from domekit.laminations import FiniteLamination, random_lamination
from domekit.pleating import (
    complex_earthquake,
    earthquake,
    embedding_check,
    in_T0,
    pleat,
)

lam = FiniteLamination(
    [GeodesicH2.from_angles(0.2, 1.2), GeodesicH2.from_angles(0.4, 1.0)],
    [0.8, 0.5],
)
plane = pleat(lam, base=PointH2(-0.5))
print("two-leaf pleated plane (weights 0.8, 0.5)")
for gid, m in enumerate(plane.gap_maps):
    rel = m.compose(plane.gap_maps[plane.base_gap].inverse())
    print(f"  gap {gid}: |trace of map rel. base| = {abs(rel.trace()):.6f}")

p, q = PointH2(-0.5), PointH2(-0.45 + 0.05j)
print(f"  intra-gap distances preserved: "
      f"{dist_h2(p, q):.12f} -> "
      f"{dist_h3(plane.apply(p), plane.apply(q)):.12f}")

quake = earthquake(lam, base=PointH2(-0.5))
bm = quake.boundary_angle
print("\nearthquake boundary map on a few angles (monotone circle homeo):")
for a in np.linspace(0.0, 2 * math.pi, 7, endpoint=False):
    print(f"  {a:8.4f} -> {bm(float(a)):8.4f}")

print("\ncomplex parameter: shear then bend")
rng = np.random.default_rng(0)
lam3 = random_lamination(rng, 3)
z = 0.3 + 0.4j
ce = complex_earthquake(lam3, z)
print(f"  t = {z}: in the guaranteed-embedding region? {in_T0(z)}")
sample = PointH2(0.2 + 0.1j)
img = ce.apply(sample)
print(f"  image of {sample.z}: ({img.x:.4f}, {img.y:.4f}, {img.t:.4f})")

print("\nembedding diagnostics as the bend grows")
single = [GeodesicH2.from_angles(0.5, 2.5)]
for w in (0.5, 2.0, math.pi - 0.01):
    rep = embedding_check(pleat(FiniteLamination(single, [w])),
                          samples=3000, seed=1)
    print(f"  weight {w:6.3f}: min image/source distance ratio "
          f"{rep.min_ratio:.4f}, collisions {rep.near_collisions}")
print("small roundness keeps the ratio away from zero; near a full fold")
print("the plane almost collapses onto itself.")
