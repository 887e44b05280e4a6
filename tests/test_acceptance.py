"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line and asserts the same verdict.
Criterion 10 is split.  10a checks the first asymptotic ratio at s = 40 and
the monotone approach of both ratios on s in [20, 60].  10b checks the
second ratio r2 = K * 2 nu_hat log(1/nu_hat) / pi^2 against its exact form:
with K = pi sinh(s/2)/s and nu_hat = pi/sinh(s/2),
r2(s) = (2/s) log(sinh(s/2)/pi), so
1 - r2(s) = (2/s) (log(2 pi) - log1p(-e^{-s})).  The deviation therefore
decays like 2 log(2 pi)/s: it is 0.0919 at s = 40 and first drops below the
0.05 tolerance at s* = 2 log(2 pi)/0.05 ~ 73.515.
"""
import cmath
import math
import time

import numpy as np

from domekit.annulus import annulus_geometry, asymptotic_ratios, verify_bounds
from domekit.bounds import (
    ARCCOSH_E_SQUARED,
    arc_for_radius,
    dome_dilatation_bound,
    domain_dilatation_bound,
    radius_for_arc,
    roundness_bound_dome,
    roundness_bound_domain,
)
from domekit.dome import (
    bending_lamination,
    build_hull,
    regular_ideal_tetrahedron,
    retract,
)
from domekit.hyperbolic import (
    GeodesicH2,
    PointH2,
    boundary_to_sphere,
    dist_h3,
    halfspace_to_ball,
    poincare_extension,
)
from domekit.laminations import (
    FiniteLamination,
    random_lamination,
    roundness,
    roundness_brute_force,
    scale,
)
from domekit.mobius import MobiusMap, chordal_distance
from domekit.pleating import complex_earthquake, pleat
from domekit.qc import (
    affine_sample,
    beltrami_estimate,
    dilatation_stats,
    far_pole_mobius,
    mobius_sample,
    power_map_sample,
    verify_scaling_dilatation,
)

from test_pleating import exterior_angle_at_leaf


def report(tag: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {tag}: {verdict}{' — ' + detail if detail else ''}")
    return ok


def test_acceptance_1_round_annulus_reproduction():
    start = time.perf_counter()
    ok = True
    worst_rel = 0.0
    for s in np.linspace(0.1, 60.0, 500):
        s = float(s)
        g = annulus_geometry(s)
        sh = math.sinh(s / 2.0)
        relations = [
            (g.modulus, s / (2 * math.pi)),
            (g.core_length, math.pi / g.modulus),
            (g.nu, g.core_length / 2.0),
            (g.dome_modulus, sh / 2.0),
            (g.dome_core_length, math.pi / g.dome_modulus),
            (g.nu_hat, g.dome_core_length / 2.0),
            (g.K, g.dome_modulus / g.modulus),
            (g.K, math.pi * sh / s),
        ]
        for got, want in relations:
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst_rel = max(worst_rel, rel)
            ok &= rel <= 1e-12
        rep = verify_bounds(s)
        ok &= rep.K_le_M and rep.K_le_N
        if s > 2 * math.pi**2:
            ok &= bool(rep.lower_le_K)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report(
        "1", ok,
        f"500-point closed-form grid, worst rel err {worst_rel:.2e}, "
        f"runtime {elapsed:.3f}s"
    )


def test_acceptance_2_constant_relaxations():
    a = 48 * math.pi * math.exp(ARCCOSH_E_SQUARED)
    b = 12 * math.pi
    c = 8 * math.pi * math.exp(ARCCOSH_E_SQUARED)
    ok = 2218.0 < a < 2220.0 and b < 38.0 and 369.5 < c < 370.0
    assert report(
        "2", ok,
        f"48 pi e^m = {a:.4f}, 12 pi = {b:.4f}, 8 pi e^m = {c:.4f}"
    )


def test_acceptance_3_chain_identities():
    nus = np.geomspace(7.2e-3, 1e3, 10**4)
    ok = True
    worst = 0.0
    for nu in nus:
        nu = float(nu)
        tight, _ = roundness_bound_domain(nu)
        m = domain_dilatation_bound(nu)
        want = 6.0 * (8 * math.pi * math.exp(ARCCOSH_E_SQUARED)
                      * math.exp(math.pi**2 / (2 * nu)) + 2 * math.pi)
        rel = abs(m - want) / want
        worst = max(worst, rel)
        ok &= rel <= 1e-12 and abs(m - 6 * tight) <= 1e-12 * m
    nu_hats = np.geomspace(1e-4, 1e4, 10**4)
    for nh in nu_hats:
        nh = float(nh)
        n = dome_dilatation_bound(nh)
        want = 6.0 * (4 * math.pi / nh + 2 * math.pi)
        rel = abs(n - want) / want
        worst = max(worst, rel)
        ok &= rel <= 1e-12
    assert report("3", ok, f"both 6x chains on 1e4-point grids, worst rel {worst:.2e}")


def test_acceptance_4_arc_gauge_inverse():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for x in np.linspace(0.0, 1.7, 400):
        x = float(x)
        err = abs(arc_for_radius(radius_for_arc(x)) - x) if x > 0 else 0.0
        worst = max(worst, err)
        ok &= err <= 1e-10
    grid = np.geomspace(1e-4, 10.0, 500)
    gs = [arc_for_radius(float(v)) for v in grid]
    ok &= all(b > a for a, b in zip(gs, gs[1:]))
    for nh in grid:
        exact, relaxed = roundness_bound_dome(float(nh))
        ok &= exact <= relaxed + 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report(
        "4", ok,
        f"inverse roundtrip worst {worst:.2e}, gauge increasing, "
        f"exact<=relaxed, runtime {elapsed:.3f}s"
    )


def test_acceptance_5_roundness_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True
    worst = 0.0
    for k in range(100):
        lam = random_lamination(rng, int(rng.integers(1, 7)))
        exact = roundness(lam)
        brute = roundness_brute_force(lam, n_arcs=10**6, seed=1000 + k)
        ok &= brute <= exact
        gap = exact - brute
        worst = max(worst, gap)
        ok &= gap <= 1e-6
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    assert report(
        "5", ok,
        f"100 laminations x 1e6 arcs, worst attainment gap {worst:.2e}, "
        f"runtime {elapsed:.1f}s"
    )


def test_acceptance_6_pleating_correctness():
    rng = np.random.default_rng(6)
    ok = True
    worst = 0.0
    done = 0
    while done < 100:
        t = np.sort(rng.uniform(0, 2 * math.pi, 2))
        if t[1] - t[0] < 0.2 or t[1] - t[0] > 2 * math.pi - 0.2:
            continue
        w = float(rng.uniform(1e-3, math.pi - 1e-3))
        plane = pleat(FiniteLamination([GeodesicH2.from_angles(*t)], [w]))
        err = abs(exterior_angle_at_leaf(plane, 0) - w)
        worst = max(worst, err)
        ok &= err <= 1e-9
        done += 1
    lam = random_lamination(rng, 3)
    y = 0.4
    ce = complex_earthquake(lam, complex(0.0, y))
    pl = pleat(scale(lam, y))
    worst_ce = 0.0
    for _ in range(1000):
        z = 0.85 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
        d = dist_h3(ce.apply(PointH2(z)), pl.apply(PointH2(z)))
        worst_ce = max(worst_ce, d)
        ok &= d <= 1e-12
    assert report(
        "6", ok,
        f"100 dihedrals (worst {worst:.2e}), pure-bend match on 1e3 points "
        f"(worst {worst_ce:.2e})"
    )


SCALING_CASES = [
    (2j, math.pi / 2), (0j, 1.0), (1j, math.pi / 2), (0.5j, 1.0), (1.5j, 0.8),
    (-0.5j, 1.0), (0.5, 1.0), (1.0, math.pi / 3), (0.3 + 0.6j, 1.2),
    (0.7 + 0.2j, math.pi / 2), (-0.8, 2.0), (0.2 - 0.4j, 1.5),
    (1.2j, math.pi / 4), (2.0, 0.5), (1 + 1j, 1.0), (0.9j, math.pi),
    (-0.3 + 0.8j, 1.1), (0.6 + 1.1j, 0.9), (1.8j, 0.6), (0.4 - 0.2j, math.pi / 2),
]


def test_acceptance_7_crescent_dilatation():
    ok = True
    worst512 = worst1024 = 0.0
    for w, theta in SCALING_CASES:
        d512 = verify_scaling_dilatation(w, theta, 512).max_abs_deviation
        d1024 = verify_scaling_dilatation(w, theta, 1024).max_abs_deviation
        worst512 = max(worst512, d512)
        worst1024 = max(worst1024, d1024)
        ok &= d512 <= 1e-3 and d1024 <= 3e-4
    anchor = verify_scaling_dilatation(2j, math.pi / 2, 512, t=1j, t0=1j / 3)
    ok &= abs(anchor.quasiregular_bound - 3.0) < 1e-12
    ok &= abs(anchor.analytic_K - 3.0) < 1e-12
    assert report(
        "7", ok,
        f"20 pairs: worst dev {worst512:.2e} @512, {worst1024:.2e} @1024; "
        f"anchor bound 3 hit"
    )


def test_acceptance_8_dome_and_retraction():
    ok = True
    hull = build_hull(regular_ideal_tetrahedron())
    ws = [e.weight for e in bending_lamination(hull)]
    spread = max(ws) - min(ws)
    ok &= len(ws) == 6 and spread <= 1e-9

    pts = hull.config.points
    maps = [
        MobiusMap.from_three_points((pts[0], pts[1], pts[2]),
                                    (pts[1], pts[2], pts[0])),
        MobiusMap.from_three_points((pts[0], pts[1], pts[2]),
                                    (pts[1], pts[0], pts[3])),
    ]
    rng = np.random.default_rng(8)
    worst_eq = 0.0
    checked = 0
    while checked < 1000:
        z = complex(rng.normal(), rng.normal()) * 1.5
        if min(chordal_distance(z, p) for p in pts) < 1e-3:
            continue
        res = retract(hull, z)
        m = maps[checked % 2]
        res2 = retract(hull, m(z))
        d = dist_h3(poincare_extension(m, res.point), res2.point)
        worst_eq = max(worst_eq, d)
        ok &= d <= 1e-9
        checked += 1

    v = pts[0]
    vs = boundary_to_sphere(v)
    worst_ratio = 0.0
    for delta in (1e-2, 1e-3, 1e-4):
        z = v + delta * cmath.exp(0.4j)
        res = retract(hull, z)
        d_ball = float(np.linalg.norm(halfspace_to_ball(res.point) - vs))
        ratio = d_ball / chordal_distance(z, v)
        worst_ratio = max(worst_ratio, ratio)
        ok &= d_ball < 10.0 * chordal_distance(z, v)
    assert report(
        "8", ok,
        f"weight spread {spread:.2e}, equivariance worst {worst_eq:.2e} "
        f"on 1e3 points, vertex-limit ratio <= {worst_ratio:.2f}"
    )


def test_acceptance_9_beltrami_estimator():
    ok = True
    aff = dilatation_stats(beltrami_estimate(affine_sample(512))).sup
    ok &= abs(aff - 2.0) <= 1e-10
    pw = dilatation_stats(beltrami_estimate(power_map_sample(2.0, 512))).sup
    ok &= abs(pw - 2.0) <= 1e-4
    mob = dilatation_stats(
        beltrami_estimate(mobius_sample(far_pole_mobius(), 512))
    ).sup
    ok &= abs(mob - 1.0) <= 1e-8
    assert report(
        "9", ok,
        f"affine err {abs(aff - 2):.1e}, power err {abs(pw - 2):.1e}, "
        f"mobius err {abs(mob - 1):.1e}"
    )


def test_acceptance_10a_first_asymptotic_ratio_and_monotonicity():
    r1_40, r2_40 = asymptotic_ratios(40.0)
    ok = abs(r1_40 - 1.0) < 0.01
    ss = np.linspace(20.0, 60.0, 81)
    pairs = [asymptotic_ratios(float(s)) for s in ss]
    r1s = [p[0] for p in pairs]
    r2s = [p[1] for p in pairs]
    # approach to 1 is monotone; r1 saturates around s ~ 36 to a plateau of
    # floating-point noise (ratios of exp(s/2)-sized doubles wobble ~4e-15)
    ok &= all(abs(b - 1) <= abs(a - 1) + 2e-14 for a, b in zip(r1s, r1s[1:]))
    ok &= all(b > a for a, b in zip(r2s, r2s[1:])) and all(r < 1 for r in r2s)
    assert report(
        "10a", ok,
        f"|r1-1| = {abs(r1_40 - 1):.1e} at s=40; both ratios monotone on [20, 60]"
    )


def test_acceptance_10b_second_asymptotic_ratio_tolerance():
    # asymptotic_ratios goes through K, nu_hat and log(1/nu_hat); exact_r2 is
    # the expansion from the module docstring, which uses none of them, so a
    # wrong K, nu_hat or log argument shows.  The deviation is
    # 2 log(2 pi)/s + O(e^-s / s), so the 0.05 tolerance is met from s* on.
    two_log_2pi = 2.0 * math.log(2.0 * math.pi)

    def exact_r2(s: float) -> float:
        return 1.0 - (2.0 / s) * (math.log(2.0 * math.pi)
                                  - math.log1p(-math.exp(-s)))

    _, r2_40 = asymptotic_ratios(40.0)
    rel_40 = abs(r2_40 - exact_r2(40.0)) / exact_r2(40.0)
    ok = rel_40 <= 1e-12

    worst_rate = 0.0
    for s in np.linspace(20.0, 60.0, 81):
        s = float(s)
        r2 = asymptotic_ratios(s)[1]
        err = abs(s * (1.0 - r2) - two_log_2pi)
        worst_rate = max(worst_rate, err)
        ok &= r2 < 1.0 and err <= 1e-8

    tol = 0.05
    s_star = two_log_2pi / tol
    dev_before = abs(asymptotic_ratios(s_star - 0.5)[1] - 1.0)
    ok &= abs(r2_40 - 1.0) > tol and dev_before > tol
    devs_after = [abs(asymptotic_ratios(float(s))[1] - 1.0)
                  for s in np.linspace(s_star + 0.5, 100.0, 60)]
    ok &= all(d < tol for d in devs_after)
    assert report(
        "10b", ok,
        f"|r2-1| = {abs(r2_40 - 1):.4f} at s=40 (rel err {rel_40:.1e} vs exact); "
        f"s(1-r2) - 2 log(2 pi) worst {worst_rate:.1e} on [20, 60]; "
        f"|r2-1| < {tol} from s* = {s_star:.3f}: {dev_before:.5f} at s*-0.5, "
        f"{devs_after[0]:.5f} at s*+0.5"
    )
