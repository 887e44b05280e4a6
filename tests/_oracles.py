"""Independent oracles used to cross-check the library's computations.

Everything here evaluates geometry by a different route than the modules
under test: tangent-space dihedral angles, brute-force minimization over
sampled points, angle-interleaving predicates, and pointwise finite
differences.  `retract_oracle` and `roundness_oracle` are the exceptions:
they are the plain scalar loops (over every face and edge, and over every
leaf triple) that `dome.retract` and `laminations.roundness` must equal
bit for bit.  So is `embedding_check_oracle`, the pair-by-pair loop that
`pleating.embedding_check` must match to its stated tolerance.  So is
`face_cycles_oracle`, the per-face `_order_cycle` loop of the hull.
`injectivity_radius_oracle` and `trace_surface_arc_oracle` develop the
dome by another route than `dome.SurfaceAtlas`: each gluing is the
rotation about the edge by its exterior angle, composed as complex Mobius
maps, and the injectivity search is unpruned and closes loops only on
returns to the starting face, where the library meets half-paths in the
middle.  Their values agree with the library's to rounding.
`arc_end_sides` finds a sampled arc's ends by the complex Mobius map
that the sampler's real pulled-back forms replace.
`roundness_brute_force_oracle` is the sampler before it scored only the
random arcs that can reach a leaf, which the filtered one must equal bit
for bit.
`boundary_gap_oracle` finds the boundary arc holding an angle by interval
containment, where `GapComplex.boundary_gap` bisects the sorted starts.
`sphere_hull_brute` and `sphere_hull_qhull` build a hull's merged faces
without `spherehull`: from every triple of points whose plane supports the
set, in exact arithmetic, and from scipy's qhull with the union-find merge
that `build_hull` used before; `hull_structure` puts a hull in the same
form.
`grid_sample_oracle`, `beltrami_estimate_oracle` and
`dilatation_stats_oracle` are the whole-grid sampler and estimator that
`qc` replaced by bands of rows; the banded ones must equal them bit for bit.
The estimator returns a `WholeGridField`, whose arrays span the grid.
`gap_maps_oracle` builds a pleated plane's or an earthquake's gap maps
from `MobiusMap` objects, each leaf's map the product of its axis map, its
inverse and the diagonal map, each factor and product normalized by the
constructor; `pleating`'s tuple kernel, with its leaf maps from
`mobius.translation` and `mobius.rotation`, must equal it bit for bit.
`mobius_matrix`, `is_identity` and `circles_close` are the tests' own
matrix and tolerance views of `MobiusMap` and `CircleOrLine`.
"""
from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from domekit.dome import (
    BASEPOINT,
    COPLANAR_TOL,
    RetractionResult,
    _order_cycle,
    _point_in_convex_polygon,
)
from domekit.errors import (
    CrossingLeaves,
    DepthTooSmall,
    DevelopmentFailed,
    EmptyField,
    PointNotInDomain,
)
from domekit.hyperbolic import (
    PointH2,
    PointH3,
    _mink_dot,
    boundary_side,
    dist_h2,
    dist_h3,
    foot_on_geodesic,
    geodesic_distance,
    ideal_to_lightcone,
    mink4_dot,
    poincare_extension,
    point_along,
    point_to_hyperboloid,
)
from domekit.laminations import (
    _CHUNK_ARCS,
    FiniteLamination,
    _Scratch,
    _cos_sin,
    _crossings,
    _geodesic_midpoint,
    _initial_direction,
    validate,
)
from domekit.mobius import INF, MobiusMap, chordal_distance, is_inf, rotation, to_zero_inf
from domekit.pleating import EmbeddingReport
from domekit.qc import (
    DEGENERATE_REL_TOL,
    DilatationStats,
    GridSample,
    _grid_step,
)


def about_axis_oracle(p, q, half) -> MobiusMap:
    """s^-1 diag(half, 1/half) s, s sending p to 0 and q to inf, as MobiusMap
    products: every factor and product normalized by the constructor."""
    s = MobiusMap(*to_zero_inf(p, q))
    return s.inverse().compose(MobiusMap(half, 0, 0, 1.0 / half)).compose(s)


def shear_oracle(leaf, dist: float, inside: bool) -> MobiusMap:
    p, q = (leaf.a.z, leaf.b.z) if inside else (leaf.b.z, leaf.a.z)
    return about_axis_oracle(p, q, math.exp(dist / 2.0))


def bend_oracle(leaf, angle: float, inside: bool) -> MobiusMap:
    cayley = MobiusMap(1j, 1j, -1, 1)
    a, b = (cayley(cmath.exp(1j * g.angle)) for g in (leaf.a, leaf.b))
    return about_axis_oracle(a, b, cmath.exp(1j * (angle if inside else -angle) / 2.0))


def gap_maps_oracle(lam: FiniteLamination, amounts, base: int, leaf_map) -> list:
    """Each gap's map: its base-ward neighbour's times the leaf's, by
    `MobiusMap.compose`; ``leaf_map`` is `shear_oracle` or `bend_oracle`."""
    gc = lam.gaps
    maps = [None] * len(gc)
    maps[base] = MobiusMap.identity()
    for i, near, far in gc.walk(base):
        maps[far] = maps[near].compose(leaf_map(lam.leaves[i], amounts[i],
                                                far == gc.arc_side(i)))
    return maps


def mobius_matrix(m: MobiusMap) -> np.ndarray:
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=complex)


def is_identity(m: MobiusMap, tol: float = 1e-9) -> bool:
    """m is +-I to within tol in every coefficient."""
    mat = mobius_matrix(m)
    return min(float(np.abs(mat - np.eye(2)).max()),
               float(np.abs(mat + np.eye(2)).max())) < tol


def circles_close(c1, c2, tol: float = 1e-8) -> bool:
    """The canonical forms (A, B, C) of two circles agree to within tol."""
    return (abs(c1.A - c2.A) < tol and abs(c1.B - c2.B) < tol
            and abs(c1.C - c2.C) < tol)


def unit_tangent_toward_ideal(Xf: np.ndarray, xi) -> np.ndarray:
    L = ideal_to_lightcone(xi)
    s = mink4_dot(L, Xf)
    v = -L / s - Xf
    return v / math.sqrt(mink4_dot(v, v))


def unit_tangent_toward_point(Xf: np.ndarray, Xq: np.ndarray) -> np.ndarray:
    v = Xq + mink4_dot(Xq, Xf) * Xf
    return v / math.sqrt(mink4_dot(v, v))


def dihedral_angle(edge_a, edge_b, foot: PointH3, q1: PointH3, q2: PointH3) -> float:
    """Interior dihedral angle along the geodesic (edge_a, edge_b) at foot.

    q1, q2 are points of the two half-planes, off the edge.  Computed from
    tangent vectors in the hyperboloid model; independent of any polar or
    normal-vector bookkeeping in the library.
    """
    Xf = point_to_hyperboloid(foot)
    E = unit_tangent_toward_ideal(Xf, edge_a)
    w1 = unit_tangent_toward_point(Xf, point_to_hyperboloid(q1))
    w2 = unit_tangent_toward_point(Xf, point_to_hyperboloid(q2))
    w1 = w1 - mink4_dot(w1, E) * E
    w2 = w2 - mink4_dot(w2, E) * E
    c = mink4_dot(w1, w2) / math.sqrt(mink4_dot(w1, w1) * mink4_dot(w2, w2))
    return math.acos(max(-1.0, min(1.0, c)))


def angles_interleave(g1, g2) -> bool:
    """Endpoint-interleaving test straight from circle order."""
    a1, b1 = g1.angles()
    a2, b2 = g2.angles()

    def inside(x, lo, hi):
        return (x - lo) % (2 * math.pi) < (hi - lo) % (2 * math.pi)

    in1 = inside(a2, a1, b1)
    in2 = inside(b2, a1, b1)
    if min(abs(a2 - a1), abs(a2 - b1), abs(b2 - a1), abs(b2 - b1)) < 1e-12:
        return False  # shared endpoint: not strict interleaving
    return in1 != in2


def _mink3(u, v):
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def _geodesic_param(g, lam_values: np.ndarray) -> np.ndarray:
    """Timelike unit vectors sweeping the geodesic as a 2-endpoint blend."""
    t1, t2 = g.angles()
    L1 = np.array([math.cos(t1), math.sin(t1), 1.0])
    L2 = np.array([math.cos(t2), math.sin(t2), 1.0])
    X = lam_values[:, None] * L1 + (1 - lam_values)[:, None] * L2
    norm = np.sqrt(np.abs(_mink3(X, X)))
    return X / norm[:, None]


def min_distance_between_geodesics(g1, g2, n: int = 600) -> float:
    """Brute-force min of the pairwise distance over sampled leaf points.

    Coarse grid over blend parameters seeds a Nelder-Mead polish in
    sigmoid coordinates; completely independent of the
    common-perpendicular construction.
    """
    from scipy.optimize import minimize

    def pair_dist(l1: float, l2: float) -> float:
        X = _geodesic_param(g1, np.array([l1]))[0]
        Y = _geodesic_param(g2, np.array([l2]))[0]
        c = -(X[0] * Y[0] + X[1] * Y[1]) + X[2] * Y[2]
        return float(np.arccosh(max(c, 1.0)))

    ls = np.linspace(1e-6, 1 - 1e-6, n)
    X = _geodesic_param(g1, ls)
    Y = _geodesic_param(g2, ls)
    C = -(X[:, None, :2] * Y[None, :, :2]).sum(-1) + X[:, None, 2] * Y[None, :, 2]
    i, j = np.unravel_index(int(np.argmin(C)), C.shape)

    def logit(x):
        return math.log(x / (1 - x))

    def objective(v):
        l1 = 1.0 / (1.0 + math.exp(-v[0]))
        l2 = 1.0 / (1.0 + math.exp(-v[1]))
        return pair_dist(l1, l2)

    res = minimize(
        objective, [logit(ls[i]), logit(ls[j])], method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    return float(res.fun)


def arc_walk_crossing_count(lam, p: complex, q: complex, n: int = 20000) -> float:
    """Transverse measure along the segment p->q by dense side-sign walking."""
    from domekit.hyperbolic import dist_h2, geodesic_polar, point_vec

    d = dist_h2(p, q)
    u = (q - p) / (1 - p.conjugate() * q)
    u /= abs(u)
    steps = np.tanh(0.5 * d * np.linspace(0.0, 1.0, n)) * u
    zs = (steps + p) / (1 + np.conj(p) * steps)
    V = point_vec(zs)
    total = 0.0
    for leaf, w in zip(lam.leaves, lam.weights):
        pol = geodesic_polar(leaf)
        s = V @ np.array([pol[0], pol[1], -pol[2]])
        flips = int(np.sum(np.abs(np.diff(np.sign(s))) > 1))
        total += w * (flips % 2)
    return total


def arc_end_sides(lam, centers, dirs):
    """Side values of every leaf at both ends of the unit arcs with these
    centres c and directions phi: (N, n) arrays at M(r e^{i phi}) and at
    M(-r e^{i phi}), with M(s) = (s + c)/(1 + conj(c) s) and r = tanh(1/4),
    taken in complex arithmetic and then through `side_of`."""
    from domekit.hyperbolic import side_of

    c = np.asarray(centers, dtype=complex)
    step = math.tanh(0.25) * np.exp(1j * np.asarray(dirs, dtype=float))
    p = (step + c) / (1.0 + np.conj(c) * step)
    q = (-step + c) / (1.0 - np.conj(c) * step)
    return side_of(p[:, None], lam.polars), side_of(q[:, None], lam.polars)


def boundary_gap_oracle(gc, angle: float) -> int:
    """Gap of the one boundary arc (start, end) of ``gc`` holding the angle.

    With t the angle mod 2 pi, an arc holds t when start <= t < end; the
    arc that wraps past 2 pi (end >= 2 pi) holds t from its start on, and
    below the least start of all arcs.  t is 2 pi itself when a tiny
    negative angle rounds up, and lies on the wrapping arc then.  Raises
    ValueError unless exactly one arc holds t.
    """
    t = angle % (2 * math.pi)
    arcs = [(start, end, g) for g, gap in enumerate(gc.gaps) for start, end in gap.arcs]
    first = min(start for start, _, _ in arcs)

    def holds(start, end):
        if end >= 2 * math.pi:
            return start <= t or t < first
        return start <= t < end

    (gap,) = [g for start, end, g in arcs if holds(start, end)]
    return gap


def numeric_wirtinger(f, z: complex, h: float = 1e-6):
    fx = (f(z + h) - f(z - h)) / (2 * h)
    fy = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
    return (fx - 1j * fy) / 2.0, (fx + 1j * fy) / 2.0


def retract_oracle(hull, z) -> RetractionResult:
    """Nearest-point retraction by a scalar loop over every face and edge.

    Sends z to infinity and takes the highest candidate: a face hemisphere
    top lying over its polygon, or an edge semicircle top; ties prefer the
    face carrier, then the lower index.
    """
    for i, p in enumerate(hull.config.points):
        if chordal_distance(z, p) <= 1e-9:
            raise PointNotInDomain(f"z coincides with ideal point {i}")
    m = MobiusMap.identity() if is_inf(z) else MobiusMap(0, 1, 1, -z)
    pts_m = [m(p) for p in hull.config.points]

    best = None  # (height, priority, point, carrier)
    for fi, f in enumerate(hull.faces):
        circ = f.circle.mobius_image(m)
        if circ.is_line:
            continue  # z on the face circle: contact cannot be interior
        c, rho = circ.center_radius()
        verts = [pts_m[v] for v in f.vertices]
        if any(is_inf(v) for v in verts):
            continue
        if _point_in_convex_polygon(c, verts):
            cand = (rho, 1, PointH3(c.real, c.imag, rho), ("face", fi))
            if best is None or cand[:2] > best[:2]:
                best = cand
    for ei, e in enumerate(hull.edges):
        a, b = pts_m[e.v[0]], pts_m[e.v[1]]
        if is_inf(a) or is_inf(b):
            continue
        mid = (a + b) / 2.0
        rho = abs(a - b) / 2.0
        cand = (rho, 0, PointH3(mid.real, mid.imag, rho), ("edge", ei))
        if best is None or cand[:2] > best[:2]:
            best = cand
    if best is None:
        raise PointNotInDomain("no retraction candidate (degenerate input)")
    height, _, top, carrier = best
    point = poincare_extension(m.inverse(), top)
    b_val = math.log(poincare_extension(m, BASEPOINT).t / height)
    return RetractionResult(point, carrier, b_val, None if is_inf(z) else complex(z))


def ring_ruling_retraction(r: float, theta: float, s: float) -> PointH3:
    """Retraction of r e^(i theta), 1 < r < e^s, onto the dome of the round
    annulus 1 < |z| < e^s, in closed form.

    The dome is ruled by the geodesics from e^(i theta) to e^(s + i theta)
    and is symmetric under reflection in every vertical plane through 0,
    so the point retracts onto the ruling at angle theta: the H^2
    projection of r onto the geodesic (1, e^s) of that vertical plane.  It
    lies at signed distance u = log((r - 1) / (e^s - r)) from the top of
    the semicircle of centre c = (1 + e^s) / 2 and radius R = (e^s - 1) / 2,
    at x = c + R tanh u and height R sech u.  A ring dome, k points on each
    circle at the same angles, is symmetric in the vertical planes of its
    k rulings, so on those angles it retracts by the same closed form.
    """
    es = math.exp(s)
    c, R = (1.0 + es) / 2.0, (es - 1.0) / 2.0
    u = math.log((r - 1.0) / (es - r))
    x = c + R * math.tanh(u)
    return PointH3(x * math.cos(theta), x * math.sin(theta), R / math.cosh(u))


def _separates(polars: np.ndarray, lam: FiniteLamination, m: int, i: int, j: int) -> bool:
    """True when leaf m separates leaves i and j."""

    def side_of_leaf(k: int) -> int:
        t1, t2 = lam.leaves[k].angles()
        s1 = float(boundary_side(t1, polars[m]))
        s2 = float(boundary_side(t2, polars[m]))
        for s in (s1, s2):
            if abs(s) > 1e-12:
                return 1 if s > 0 else -1
        return 0

    si, sj = side_of_leaf(i), side_of_leaf(j)
    return si * sj == -1


def roundness_oracle(lam: FiniteLamination) -> float:
    """Exact roundness by the O(n^3) loop: for each crossable pair (i, j),
    the weights of i, j and every leaf m whose side signs separate them."""
    validate(lam)
    n = len(lam)
    if n == 0:
        return 0.0
    polars = lam.polars
    weights = np.asarray(lam.weights)
    best = float(weights.max())
    for i in range(n):
        for j in range(i + 1, n):
            c = abs(float(_mink_dot(polars[i], polars[j])))
            if c >= 1.0 + 1e-12:
                d = math.acosh(c)
                if d >= 1.0:
                    continue
            total = weights[i] + weights[j]
            for m in range(n):
                if m != i and m != j and _separates(polars, lam, m, i, j):
                    total += weights[m]
            best = max(best, float(total))
    return best


def roundness_brute_force_oracle(lam: FiniteLamination, n_arcs: int, seed: int,
                                 targeted: bool) -> float:
    """The sampler as it was before it dropped the random arcs that reach no
    leaf: every arc scored, in chunks, by `laminations._crossings`.  The
    targeted arcs come pair by pair from `geodesic_distance`, and the
    random ones from three full-length `uniform` draws after them."""
    ranks = validate(lam).ranks.tolist()
    n = len(lam)
    if n == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    centers, dirs = [], []
    for i in range(n) if targeted else ():
        for j in range(i, n):
            if i == j:
                centers.append(np.full(64, foot_on_geodesic(0j, lam.polars[i])))
                dirs.append(rng.uniform(0, 2 * math.pi, 64))
                continue
            try:
                d, f1, f2 = geodesic_distance(lam.leaves[i], lam.leaves[j])
            except CrossingLeaves:
                continue
            if d >= 1.0:
                continue
            if f1 is None:
                t_shared = next((t for t, r in zip(lam.leaves[i].angles(), ranks[i])
                                 if r in ranks[j]), None)
                if t_shared is None:
                    continue
                zs = np.array([point_along(0j, t_shared, s)
                               for s in np.arange(1.0, 14.0, 0.5)])
                centers.append(zs)
                dirs.append(np.full(len(zs), t_shared + math.pi / 2.0))
                continue
            mid = _geodesic_midpoint(f1.z, f2.z)
            direction = _initial_direction(mid, f2.z)
            centers.append(np.array([mid]))
            dirs.append(np.array([direction]))
            jz = mid + (rng.normal(0, 0.02, 120) + 1j * rng.normal(0, 0.02, 120))
            centers.append(np.where(np.abs(jz) < 0.995, jz, mid))
            dirs.append(direction + rng.normal(0, 0.05, 120))
    arcs = []
    if centers:
        c = np.concatenate(centers)
        arcs.append((c.real, c.imag, c.real * c.real + c.imag * c.imag,
                     np.concatenate(dirs)))
    n_random = max(n_arcs - sum(len(c) for c in centers), 0)
    if n_random:
        r2 = rng.uniform(0, 0.999**2, n_random)
        cos_t, sin_t = _cos_sin(rng.uniform(0, 2 * math.pi, n_random),
                                np.empty((4, n_random)))
        rho = np.sqrt(r2)
        arcs.append((rho * cos_t, rho * sin_t, r2, rng.uniform(0, 2 * math.pi, n_random)))
    polars_t, weights = np.ascontiguousarray(lam.polars.T), np.asarray(lam.weights)
    scratch = _Scratch(n, _CHUNK_ARCS)
    best = 0.0
    for x, y, r2, dirs in arcs:
        for i in range(0, len(x), _CHUNK_ARCS):
            chunk = slice(i, i + _CHUNK_ARCS)
            mask = _crossings(polars_t, x[chunk], y[chunk], r2[chunk], dirs[chunk], scratch)
            best = max(best, float((mask @ weights).max()))
    return best


def embedding_check_oracle(plane, samples: int = 10**4, seed: int = 0,
                           radius: float = 3.0) -> tuple[EmbeddingReport, float]:
    """`pleating.embedding_check` as a loop over the pairs: the same draws,
    each pair's gap looked up and mapped one point at a time.

    Returns the report and the least source distance of a compared pair
    (inf when every pair is skipped).
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=(2, samples))
    r = np.arccosh(1.0 + u * (math.cosh(radius) - 1.0))
    phi = rng.uniform(0.0, 2 * math.pi, size=(2, samples))
    zs = np.tanh(r / 2.0) * np.exp(1j * phi)
    min_ratio, max_ratio = math.inf, 0.0
    collisions = skipped = 0
    least = math.inf
    for z1, z2 in zip(zs[0], zs[1]):
        d2 = dist_h2(z1, z2)
        if d2 < 1e-6:
            skipped += 1
            continue
        least = min(least, d2)
        p1 = PointH2(z1)
        p2 = PointH2(z2)
        d3 = dist_h3(plane.apply(p1), plane.apply(p2))
        ratio = d3 / d2
        min_ratio = min(min_ratio, ratio)
        max_ratio = max(max_ratio, ratio)
        if d3 < 1e-8 and d2 > 1e-3:
            collisions += 1
    return EmbeddingReport(samples, min_ratio, max_ratio, collisions, skipped), least


def face_cycles_oracle(hull) -> list[list[int]]:
    """Each face's vertex cycle by `_order_cycle`, one face at a time, from
    its sorted vertex ids and its normal, as `build_hull` once ordered them."""
    cycles = []
    for f in hull.faces:
        verts = sorted(f.vertices)
        cycles.append(_order_cycle(verts, hull.sphere[verts], f.normal))
    return cycles


class _RotationAtlas:
    """Charts and gluings built for one query from the hull itself.

    A gluing is chart_face o rotation o chart_neighbor^-1, the rotation
    about the edge by plus or minus its exterior angle, as a numpy matrix.
    Of the two signs it takes the one whose det-1 matrix is real, that is
    a real matrix of positive determinant.  The other sign's matrix is
    complex, or, at a right angle, i times a real matrix of determinant
    -1, which folds the neighbor onto the face instead of unbending it.
    """

    def __init__(self, hull):
        self.hull = hull
        self.charts = [MobiusMap.to_zero_one_inf(*[hull.config.points[i]
                                                   for i in f.vertices[:3]])
                       for f in hull.faces]
        self.face_edges = [[] for _ in hull.faces]
        for ei, e in enumerate(hull.edges):
            self.face_edges[e.faces[0]].append(ei)
            self.face_edges[e.faces[1]].append(ei)

    def chart_point(self, face: int, p: PointH3) -> complex:
        q = poincare_extension(self.charts[face], p)
        if abs(q.y) > 1e-6:
            raise DevelopmentFailed(f"point is not on face {face} (y = {q.y})")
        return complex(q.x, q.t)

    def chart_edge(self, face: int, edge: int):
        pa, pb = self.hull.edge_geodesic_endpoints(self.hull.edges[edge])
        return self.charts[face](pa), self.charts[face](pb)

    def gluing(self, face: int, edge: int):
        """(matrix, neighbor) of the development step across ``edge``."""
        e = self.hull.edges[edge]
        other = e.faces[0] if e.faces[1] == face else e.faces[1]
        pa, pb = self.hull.edge_geodesic_endpoints(e)
        mats = []
        for sign in (1.0, -1.0):
            rho = MobiusMap.wrap(rotation(pa, pb, sign * e.angle))
            mats.append(mobius_matrix(self.charts[face].compose(rho)
                                      .compose(self.charts[other].inverse())))
        mat = min(mats, key=lambda m: np.abs(m.imag).max())
        return mat.real, other


def _act(mat: np.ndarray, x):
    """Image of a complex x, or INF, under a real 2x2 matrix."""
    (a, b), (c, d) = mat
    if is_inf(x):
        return INF if c == 0 else complex(a / c)
    den = c * x + d
    return INF if den == 0 else (a * x + b) / den


def injectivity_radius_oracle(hull, face: int, p: PointH3, depth: int):
    """Half the shortest loop among all non-backtracking face paths of at
    most ``depth`` crossings that leave the starting face and return to
    it, developed on a fresh rotation atlas without pruning."""
    atlas = _RotationAtlas(hull)
    w0 = atlas.chart_point(face, p)
    best = math.inf
    queue = deque([(face, np.eye(2), -1, 0)])
    while queue:
        cur_face, dev, in_edge, d = queue.popleft()
        if d >= depth:
            continue
        for ei in atlas.face_edges[cur_face]:
            if ei == in_edge:
                continue
            g, nxt = atlas.gluing(cur_face, ei)
            ndev = dev @ g
            if nxt == face:
                w = _act(ndev, w0)
                best = min(best, math.acosh(
                    1.0 + abs(w - w0) ** 2 / (2.0 * w.imag * w0.imag)))
            queue.append((nxt, ndev, ei, d + 1))
    if not math.isfinite(best):
        raise DepthTooSmall(f"no essential loop closed within depth {depth}")
    return best / 2.0


def trace_surface_arc_oracle(hull, face: int, p: PointH3, direction: float,
                             length: float, max_crossings: int = 1000):
    """(measure, crossings) of the developed geodesic arc, on a fresh
    rotation atlas."""
    atlas = _RotationAtlas(hull)
    w0 = atlas.chart_point(face, p)
    co = math.cos(direction)
    if abs(co) < 1e-12:
        e_back, e_fwd = (w0.real, INF) if math.sin(direction) > 0 else (INF, w0.real)
    else:
        c = w0.real + w0.imag * math.tan(direction)
        r = abs(w0 - c)
        e_back, e_fwd = (c - r, c + r) if co > 0 else (c + r, c - r)
    T = MobiusMap(*to_zero_inf(e_back, e_fwd))
    tau0 = abs(T(w0))
    crossings = []
    measure = 0.0
    cur_face, dev, in_edge = face, np.eye(2), -1
    s_cur = 0.0
    while len(crossings) < max_crossings:
        nxt_hit = None
        for ei in atlas.face_edges[cur_face]:
            if ei == in_edge:
                continue
            a, b = atlas.chart_edge(cur_face, ei)
            da = T(_act(dev, a))
            db = T(_act(dev, b))
            if is_inf(da) or is_inf(db):
                continue
            da, db = da.real, db.real
            if da * db >= 0:
                continue
            s = math.log(math.sqrt(-da * db) / tau0)
            if s <= s_cur + 1e-12 or s > length:
                continue
            if nxt_hit is None or s < nxt_hit[0]:
                nxt_hit = (s, ei)
        if nxt_hit is None:
            break
        s, ei = nxt_hit
        measure += hull.edges[ei].angle
        crossings.append((ei, s))
        g, cur_face = atlas.gluing(cur_face, ei)
        dev = dev @ g
        in_edge = ei
        s_cur = s
    return measure, crossings


def hull_structure(faces: list[tuple[list[int], np.ndarray]]) -> tuple[dict, dict]:
    """Faces as {vertex set: cycle} and edges as {(u, v): {vertex sets}},
    u < v, for (cycle, normal) pairs, whatever the faces' numbering."""
    cycles = {frozenset(c): list(c) for c, _ in faces}
    edges: dict = {}
    for c, _ in faces:
        for u, v in zip(c, c[1:] + c[:1]):
            edges.setdefault((min(u, v), max(u, v)), set()).add(frozenset(c))
    return cycles, edges


def _merged(sphere: np.ndarray, tris: list, planes: list) -> list:
    """Merge triangles that share an edge and whose unit planes (n, o)
    agree within COPLANAR_TOL, as `build_hull` does, and order each merged
    vertex set by `_order_cycle` with its first triangle's normal."""
    parent = list(range(len(tris)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    by_edge: dict = {}
    for t, tri in enumerate(tris):
        for u, v in combinations(sorted(tri), 2):
            by_edge.setdefault((u, v), []).append(t)
    for pair in by_edge.values():
        for s, t in combinations(pair, 2):
            (n1, o1), (n2, o2) = planes[s], planes[t]
            if abs(float(n1 @ n2) - 1.0) < COPLANAR_TOL and abs(o1 - o2) < COPLANAR_TOL:
                parent[find(t)] = find(s)
    groups: dict = {}
    for t in range(len(tris)):
        groups.setdefault(find(t), []).append(t)
    faces = []
    for members in groups.values():
        ids = sorted({v for t in members for v in tris[t]})
        normal = planes[members[0]][0]
        faces.append((_order_cycle(ids, sphere[ids], normal), normal))
    return faces


def sphere_hull_brute(sphere: np.ndarray) -> list:
    """The merged faces of the hull of the rows of ``sphere`` (N <= 12), as
    (cycle, normal) pairs: every triple whose plane has no point strictly
    outside, decided in exact `Fraction` arithmetic on the floats, oriented
    outwards; then `_merged`."""
    pts = [[Fraction(x) for x in row] for row in sphere.tolist()]
    tris, planes = [], []
    for a, b, c in combinations(range(len(pts)), 3):
        u = [pts[b][i] - pts[a][i] for i in range(3)]
        w = [pts[c][i] - pts[a][i] for i in range(3)]
        n = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]]
        side = {(s > 0) - (s < 0) for s in (
            sum(n[i] * (pts[d][i] - pts[a][i]) for i in range(3))
            for d in range(len(pts)) if d not in (a, b, c))}
        if side <= {0, -1}:
            sign = 1
        elif side <= {0, 1}:
            sign = -1
        else:
            continue
        unit = np.array([float(sign * x) for x in n])
        unit /= math.sqrt(float(unit @ unit))
        tris.append((a, b, c))
        planes.append((unit, float(unit @ sphere[a])))
    return _merged(sphere, tris, planes)


def sphere_hull_qhull(sphere: np.ndarray) -> list:
    """The merged faces by scipy's qhull, as (cycle, normal) pairs."""
    from scipy.spatial import ConvexHull  # a test dependency

    hull = ConvexHull(sphere)
    normals = hull.equations[:, :3] / np.linalg.norm(hull.equations[:, :3], axis=1)[:, None]
    planes = list(zip(normals, (-hull.equations[:, 3]).tolist()))
    return _merged(sphere, hull.simplices.tolist(), planes)


def grid_sample_oracle(f, x0: float, x1: float, y0: float, y1: float,
                       n: int, mask_fn=None) -> GridSample:
    """Sample f on an n-column grid with square cells."""
    h = _grid_step(x1 - x0, n)
    ny = int(round((y1 - y0) / h)) + 1
    xs = x0 + h * np.arange(n)
    ys = y0 + h * np.arange(ny)
    Z = xs[None, :] + 1j * ys[:, None]
    values = f(Z)
    mask = mask_fn(Z) if mask_fn is not None else np.ones(Z.shape, bool)
    return GridSample(x0, y0, h, np.asarray(values, complex), mask)


@dataclass
class WholeGridField:
    """A Beltrami field as whole-grid arrays."""

    grid: GridSample
    mu: np.ndarray
    K: np.ndarray
    valid: np.ndarray
    degenerate: np.ndarray
    orientation_reversing: np.ndarray

    @property
    def usable(self) -> np.ndarray:
        return self.valid & ~self.degenerate & ~self.orientation_reversing

    @property
    def usable_K(self) -> np.ndarray:
        return self.K[self.usable]


def beltrami_estimate_oracle(grid: GridSample) -> WholeGridField:
    """Second-order central differences; boundary and mask-adjacent cells drop."""
    v = grid.values
    h = grid.h
    ny, nx = v.shape
    fx = np.full_like(v, np.nan)
    fy = np.full_like(v, np.nan)
    fx[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
    fy[1:-1, :] = (v[2:, :] - v[:-2, :]) / (2 * h)
    m = grid.mask
    valid = np.zeros_like(m)
    valid[1:-1, 1:-1] = (
        m[1:-1, 1:-1]
        & m[1:-1, 2:] & m[1:-1, :-2]
        & m[2:, 1:-1] & m[:-2, 1:-1]
    )
    fz = (fx - 1j * fy) / 2.0
    fzb = (fx + 1j * fy) / 2.0
    scale = np.nanmax(np.abs(np.where(valid, fz, np.nan))) if valid.any() else 1.0
    degenerate = valid & (np.abs(fz) < DEGENERATE_REL_TOL * max(scale, 1e-300))
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(valid & ~degenerate, fzb / np.where(fz == 0, 1, fz), np.nan)
        orientation_reversing = valid & ~degenerate & (np.abs(mu) >= 1.0)
        orientation_reversing |= degenerate & (np.abs(fzb) > 0)
        K = (1.0 + np.abs(mu)) / (1.0 - np.abs(mu))
    return WholeGridField(grid, mu, K, valid, degenerate, orientation_reversing)


def dilatation_stats_oracle(field: WholeGridField) -> DilatationStats:
    """Statistics of K over usable cells; the sup comes with its location."""
    usable = field.usable
    if not usable.any():
        raise EmptyField("no usable cells")
    K = np.where(usable, field.K, -np.inf)
    j, i = np.unravel_index(int(np.argmax(K)), K.shape)
    vals = field.K[usable]
    return DilatationStats(
        sup=float(K[j, i]),
        sup_cell=(int(j), int(i)),
        sup_location=field.grid.cell_location(int(j), int(i)),
        mean=float(vals.mean()),
        quantiles={q: float(np.quantile(vals, q)) for q in (0.5, 0.9, 0.99)},
        n_cells=int(usable.sum()),
        n_masked=int((~field.grid.mask).sum()),
        n_degenerate=int(field.degenerate.sum()),
        n_orientation_reversing=int(field.orientation_reversing.sum()),
    )
