"""Convex-hull domes: bending weights, nearest-point retraction, thickness.

The complement of a finite ideal point set has a dome: the boundary of the
hyperbolic convex hull of the points.  The script builds the ideal regular
tetrahedron, reads off its bending lamination, retracts points onto it,
and estimates the injectivity radius of the surface by unfolding.
"""
import math

from domekit.dome import (
    IdealConfiguration,
    bending_lamination,
    build_hull,
    dome_injectivity_radius,
    export_mesh,
    regular_ideal_tetrahedron,
    retract,
    trace_surface_arc,
)
from domekit.hyperbolic import ball_to_halfspace
from domekit.mobius import INF

hull = build_hull(regular_ideal_tetrahedron())
print(f"ideal regular tetrahedron: {len(hull.faces)} faces, "
      f"{len(hull.edges)} edges, Euler characteristic "
      f"{hull.euler_characteristic()}")
ws = bending_lamination(hull).weights()
print(f"bending weights: all equal to {ws[0]:.12f} "
      f"(= 2 pi / 3, exterior of the pi/3 dihedral), spread {max(ws)-min(ws):.1e}")

print("\nnearest-point retraction")
for z in (0.3 + 0.2j, 2.0 - 1.0j, 5j):
    r = retract(hull, z)
    print(f"  z = {z}: contact on {r.carrier[0]} {r.carrier[1]}, "
          f"height {r.point.t:.4f}, horoball level {r.busemann_value:+.4f}")

print("\ninjectivity radius at a face center (unfolding the surface)")
c = hull.sphere[hull.faces[0].vertices].mean(axis=0)
p = ball_to_halfspace(c / (1 + math.sqrt(max(0.0, 1 - c @ c))))
est = dome_injectivity_radius(hull, 0, p)
print(f"  {est.value:.9f}  exact={est.exact}  loops closed: {est.loops_found}, "
      f"faces developed: {est.expanded}, edges pruned: {est.pruned}")

print("\na unit geodesic arc on the surface and the bending it crosses")
res = trace_surface_arc(hull, 0, p, 0.3, 1.0)
print(f"  crossings: {[(e, round(s, 4)) for e, s in res.crossings]}, "
      f"total bending {res.measure:.6f}")

print("\ndoubled degenerate case: concyclic points")
flat = build_hull(IdealConfiguration([0.0, 1.0, INF, -1.0]))
print(f"  4 concyclic points: degenerate={flat.degenerate}, "
      f"{len(flat.faces)} coincident faces, fold angles "
      f"{[round(e.angle, 6) for e in flat.edges]}")

obj = export_mesh(hull)
print(f"\nOBJ mesh for plotting: {len(obj.splitlines())} lines "
      f"(ball-model coordinates); write it with the CLI:")
print("  domekit dome build --input points.json --mesh dome.obj")
