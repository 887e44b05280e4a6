"""Angle scalings of a wedge and their quasiconformal dilatation.

The map z -> z exp(w arg z) stretches the angular coordinate of a wedge;
its complex dilatation has constant modulus |w| / |2 - iw|, so K is a
closed form.  The grid estimator recovers it by central differences, and
for imaginary flow parameters the dilatation matches the quasiregular
bound (1 + |kappa|) / (1 - |kappa|) exactly.
"""
import math

from domekit.crescents import (
    AngleScaling,
    Crescent,
    crescent_parameter,
    quasiregular_bound,
    scaling_dilatation,
)
from domekit.mobius import CircleOrLine
from domekit.qc import verify_scaling_dilatation

print("normalizing a crescent to the standard wedge")
lens = Crescent(CircleOrLine.unit_circle(), CircleOrLine.real_line(), 0.5 + 0.3j)
beta = lens.beta
print(f"  upper lens between the unit circle and the real axis: "
      f"angle {lens.theta:.6f} (= pi/2)")
print(f"  vertices {lens.vertices} -> 0 and infinity under the normalizer")

print("\nanalytic vs grid dilatation")
print(f"{'w':>12} {'theta':>7} {'K analytic':>11} {'K grid':>11} {'max dev':>10}")
for w, theta in ((0j, 1.0), (0.5j, 1.0), (2j, math.pi / 2), (1 + 1j, 1.0)):
    chk = verify_scaling_dilatation(w, theta, 512)
    print(f"{str(w):>12} {theta:7.3f} {chk.analytic_K:11.6f} "
          f"{chk.grid_sup_K:11.6f} {chk.max_abs_deviation:10.2e}")

print("\nflow anchors: purely imaginary times t0 -> t")
for t0, t in ((1j / 3, 2j / 3), (1j / 3, 1j)):
    w = crescent_parameter(t, t0)
    K = scaling_dilatation(AngleScaling(w, 0.6))
    L = quasiregular_bound(t, t0)
    print(f"  t0={t0}, t={t}: w = {w}, crescent K = {K:.6f}, "
          f"quasiregular bound = {L:.6f}")
print("with both times imaginary the crescent factor attains the bound.")
