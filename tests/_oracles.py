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
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from domekit.dome import (
    BASEPOINT,
    RetractionResult,
    _order_cycle,
    _point_in_convex_polygon,
)
from domekit.errors import DepthTooSmall, DevelopmentFailed, PointNotInDomain
from domekit.hyperbolic import (
    PointH2,
    PointH3,
    _mink_dot,
    boundary_side,
    dist_h2,
    dist_h3,
    ideal_to_lightcone,
    mink4_dot,
    poincare_extension,
    point_to_hyperboloid,
)
from domekit.laminations import FiniteLamination, validate
from domekit.mobius import INF, MobiusMap, chordal_distance, is_inf
from domekit.pleating import EmbeddingReport


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
            rho = MobiusMap.rotation_about(pa, pb, sign * e.angle)
            mats.append(self.charts[face].compose(rho)
                        .compose(self.charts[other].inverse()).matrix())
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
    T = MobiusMap.to_zero_inf(e_back, e_fwd)
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
