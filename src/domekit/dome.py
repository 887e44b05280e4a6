"""Convex-hull domes of finite ideal configurations.

The complement of a finite set of >= 3 ideal points is a plane domain whose
dome is the full boundary of the hyperbolic convex hull of the points.  In
the Klein model the hull of ideal points is the Euclidean hull of their
sphere vectors, so the combinatorics come from a Euclidean convex-hull
kernel; angles, retraction and the intrinsic development are hyperbolic.
"""
from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DepthTooSmall,
    DevelopmentFailed,
    InvalidInput,
    NumericallyCoincident,
    PointNotInDomain,
    TooFewPoints,
    finite_float,
    input_field,
    read_json,
)
from .hyperbolic import (
    PointH3,
    ball_to_halfspace,
    boundary_to_sphere,
    busemann,
    poincare_extension,
    sphere_to_boundary,
)
from .mobius import (
    INF,
    CircleOrLine,
    MobiusMap,
    apply,
    chordal_distance,
    compose,
    inverse,
    is_inf,
    to_zero_inf,
)

COPLANAR_TOL = 1e-10
BASEPOINT = PointH3(0.0, 0.0, 1.0)
COINCIDE_TOL = 1e-9
#: Pairs of points closer than this on the sphere are screened in, and
#: ``chordal_distance`` decides whether they are within ``COINCIDE_TOL``.
_NEAR = 1e-6
_EPS = float(np.finfo(float).eps)
#: Angles (rad) this close to the +-pi cut or to each other send a triangle
#: from `_order_triangles` back to `_order_cycle`.
_ANGLE_TOL = 1e-9


# ---------------------------------------------------------------------------
# configurations and hulls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealConfiguration:
    """>= 3 pairwise-distinct points on the Riemann sphere; frozen."""

    points: tuple

    def __post_init__(self):
        if len(self.points) < 3:
            raise TooFewPoints(f"need >= 3 points, got {len(self.points)}")
        points = [complex(p) for p in self.points]
        if any(cmath.isnan(p) for p in points):
            raise InvalidInput("points: a coordinate is NaN")
        object.__setattr__(self, "points", tuple(INF if is_inf(p) else p for p in points))
        # A Gram screen over blocks of rows: |u - v|^2 = 2 - 2 u.v to ~1e-15.
        # The flagged pairs are decided by chordal_distance in the (i, j)
        # order of a double loop, so the first coincident pair raises.
        v = self.sphere_vectors
        n = len(v)
        step = max(1, (1 << 16) // n)
        for i0 in range(0, n, step):
            rows = np.arange(i0, min(i0 + step, n))
            near = ~(v[rows] @ v.T < 1.0 - 0.5 * _NEAR * _NEAR)
            near &= np.arange(n) > rows[:, None]
            for i, j in zip(*np.nonzero(near)):
                i, j = int(rows[i]), int(j)
                if chordal_distance(self.points[i], self.points[j]) <= COINCIDE_TOL:
                    raise NumericallyCoincident(
                        f"points {i} and {j} numerically coincide"
                    )

    @cached_property
    def sphere_vectors(self) -> np.ndarray:
        """(N, 3) read-only array of the points' unit vectors on the sphere."""
        v = np.stack([boundary_to_sphere(p) for p in self.points])
        v.flags.writeable = False
        return v

    def is_concyclic(self) -> bool:
        v = self.sphere_vectors
        c = v.mean(axis=0)
        sv = np.linalg.svd(v - c, compute_uv=False)
        return sv[-1] < 1e-9

    @staticmethod
    def from_json(data: dict) -> "IdealConfiguration":
        return IdealConfiguration(input_field(data, "points", lambda v: [
            _point_from_json(item) for item in v]))

    @staticmethod
    def load(path) -> "IdealConfiguration":
        return IdealConfiguration.from_json(read_json(path))


def _point_from_json(item):
    """``"inf"`` or a finite ``[re, im]`` pair."""
    if item == "inf":
        return INF
    re_, im_ = item
    return complex(finite_float(re_), finite_float(im_))


@dataclass
class Face:
    normal: np.ndarray          # outward unit normal in the Klein model
    offset: float               # plane is {x : normal . x = offset}
    vertices: list[int]         # ideal vertex cycle
    circle: CircleOrLine        # boundary circle on the sphere


@dataclass
class Edge:
    v: tuple[int, int]
    faces: tuple[int, int]
    angle: float                # exterior dihedral angle in [0, pi]
    fold: bool = False          # angle pi edge of a doubled flat hull


class _Screen(NamedTuple):
    """A hull's arrays that `_retraction_survivors` screens with, read-only.

    Face i's circle is the form (A[i], B[i], C[i]) with A and C real.
    """

    ideal: np.ndarray          # (N,) the ideal points, INF as 0
    finite: np.ndarray         # (N,) not INF
    has_inf: bool              # some ideal point is INF
    A: np.ndarray              # (F,)
    B: np.ndarray              # (F,)
    Bc: np.ndarray             # (F,) conj(B)
    C: np.ndarray              # (F,)
    abs_A: np.ndarray          # (F,) |A|, and so on
    abs_B: np.ndarray
    abs_C: np.ndarray
    face_vertices: np.ndarray  # (F, K) vertex cycles padded with their start
    face_next: np.ndarray      # (F, K) each entry's successor in its cycle
    face_finite: np.ndarray    # (F,) no vertex is INF
    edge_ends: np.ndarray      # (2, E) the first and the second ends of the edges
    edge_finite: np.ndarray    # (E,) neither end is INF


def _screen_arrays(points: tuple, faces: list[Face], edges: list[Edge]) -> _Screen:
    """The hull's `_Screen`, its arrays made read-only."""
    finite = np.array([not is_inf(p) for p in points])
    ideal = np.array([p if f else 0j for p, f in zip(points, finite)], dtype=complex)
    A = np.array([f.circle.A for f in faces])
    B = np.array([f.circle.B for f in faces], dtype=complex)
    C = np.array([f.circle.C for f in faces])
    k = max(len(f.vertices) for f in faces)
    fv = np.array([f.vertices + f.vertices[:1] * (k - len(f.vertices)) for f in faces])
    ends = np.array([e.v for e in edges]).reshape(-1, 2).T.copy()
    screen = _Screen(ideal, finite, not finite.all(), A, B, B.conjugate(), C,
                     np.abs(A), np.abs(B), np.abs(C), fv, np.roll(fv, -1, axis=1),
                     finite[fv].all(axis=1), ends, finite[ends].all(axis=0))
    for a in screen:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return screen


@dataclass
class HullPolyhedron:
    config: IdealConfiguration
    faces: list[Face]
    edges: list[Edge]
    degenerate: bool
    # built once with the hull
    screen: _Screen = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.screen = _screen_arrays(self.config.points, self.faces, self.edges)

    @property
    def sphere(self) -> np.ndarray:
        """The configuration's sphere vectors, (N, 3) and read-only."""
        return self.config.sphere_vectors

    @cached_property
    def atlas(self) -> "SurfaceAtlas":
        """The dome's development (charts and gluing maps), built on first use."""
        return SurfaceAtlas(self.config.points, self.faces, self.edges)

    def edge_geodesic_endpoints(self, e: Edge):
        return self.config.points[e.v[0]], self.config.points[e.v[1]]

    def convexity_violation(self) -> float:
        """Largest amount any ideal point sticks out of any face half-space."""
        worst = 0.0
        for f in self.faces:
            worst = max(worst, float((self.sphere @ f.normal - f.offset).max()))
        return worst

    def euler_characteristic(self) -> int:
        return len(self.config.points) - len(self.edges) + len(self.faces)


def _face_circle(normal: np.ndarray, offset: float) -> CircleOrLine:
    n1, n2, n3 = (float(x) for x in normal)
    return CircleOrLine(n3 - offset, complex(n1, n2), -(n3 + offset))


def _klein_polars(normals: np.ndarray, offsets: np.ndarray) -> list[list[float]]:
    """Each face plane's unit polar (normal, offset) / sqrt(1 - offset^2)."""
    s = np.sqrt(1.0 - offsets * offsets)
    return (np.column_stack([normals, offsets]) / s[:, None]).tolist()


def _exterior_angle(u1: list[float], u2: list[float]) -> float:
    """Exterior dihedral angle between two faces, from their polars."""
    c = u1[0] * u2[0] + u1[1] * u2[1] + u1[2] * u2[2] - u1[3] * u2[3]
    return math.acos(max(-1.0, min(1.0, c)))


def _order_cycle(vertex_ids: list[int], pts: np.ndarray, normal: np.ndarray) -> list[int]:
    """Order coplanar sphere points counterclockwise as seen from outside."""
    c = pts.mean(axis=0)
    ref = np.eye(3)[int(np.argmin(np.abs(normal)))]
    e1 = np.cross(normal, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    ang = np.arctan2((pts - c) @ e2, (pts - c) @ e1)
    return [vertex_ids[i] for i in np.argsort(ang)]


def _order_triangles(tris: np.ndarray, sphere: np.ndarray,
                     normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_order_cycle` of T triangles at once: (T, 3) cycles and an unsure mask.

    The centroids, frames and angles are `_order_cycle`'s, in arrays; the
    frames have its bits (`vecdot` is the `dot` that `np.linalg.norm`
    takes), while the angles' dot products and `arctan2` may round
    differently, by ~1e-15 rad.  A triangle with an angle within
    _ANGLE_TOL of the +-pi cut, or two angles within _ANGLE_TOL of each
    other, is marked unsure, and the caller orders it with `_order_cycle`;
    every other order is the one `_order_cycle` gives.
    """
    pts = sphere[tris]
    c = pts.mean(axis=1)
    ref = np.eye(3)[np.argmin(np.abs(normals), axis=1)]
    e1 = np.cross(normals, ref)
    e1 /= np.sqrt(np.vecdot(e1, e1))[:, None]
    e2 = np.cross(normals, e1)
    q = pts - c[:, None, :]
    ang = np.arctan2(np.einsum("tij,tj->ti", q, e2), np.einsum("tij,tj->ti", q, e1))
    order = np.argsort(ang, axis=1)
    ang = np.take_along_axis(ang, order, axis=1)
    unsure = ((np.abs(ang).max(axis=1) > math.pi - _ANGLE_TOL)
              | (np.diff(ang, axis=1).min(axis=1) < _ANGLE_TOL))
    return np.take_along_axis(tris, order, axis=1), unsure


def _build_degenerate(cfg: IdealConfiguration, sphere: np.ndarray) -> HullPolyhedron:
    c = sphere.mean(axis=0)
    _, _, vt = np.linalg.svd(sphere - c)
    normal = vt[-1]
    offset = float(normal @ c)
    if offset < 0:
        normal, offset = -normal, -offset
    cycle = _order_cycle(list(range(len(sphere))), sphere, normal)
    f_top = Face(normal, offset, cycle, _face_circle(normal, offset))
    f_bot = Face(-normal, -offset, cycle[::-1], _face_circle(-normal, -offset))
    edges = [
        Edge((cycle[i], cycle[(i + 1) % len(cycle)]), (0, 1), math.pi, fold=True)
        for i in range(len(cycle))
    ]
    return HullPolyhedron(cfg, [f_top, f_bot], edges, degenerate=True)


def build_hull(cfg: IdealConfiguration) -> HullPolyhedron:
    """Boundary of the hyperbolic convex hull of the ideal configuration.

    Concyclic configurations produce the doubled ideal polygon (two
    coincident faces, fold edges of exterior angle pi) flagged degenerate.
    """
    sphere = cfg.sphere_vectors
    if cfg.is_concyclic():
        return _build_degenerate(cfg, sphere)
    # Imported here, not at module level: it takes about 0.5 s and only the hull
    # needs it, so the other CLI subcommands start without it.
    from scipy.spatial import ConvexHull

    hull = ConvexHull(sphere)
    simplices = hull.simplices.tolist()
    nsimp = len(simplices)
    # union-find over coplanar neighboring simplices
    parent = list(range(nsimp))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    eqs = hull.equations  # n . x + b <= 0 inside, n outward
    # neighbour pairs lo < hi in loop order; `vecdot` rounds as 1-D `@` does
    lo = np.repeat(np.arange(nsimp), 3)
    hi = hull.neighbors.ravel()
    lo, hi = lo[hi > lo], hi[hi > lo]
    flat = ((np.abs(np.vecdot(eqs[lo, :3], eqs[hi, :3]) - 1.0) < COPLANAR_TOL)
            & (np.abs(eqs[lo, 3] - eqs[hi, 3]) < COPLANAR_TOL))
    for a, b in zip(lo[flat].tolist(), hi[flat].tolist()):
        parent[find(b)] = find(a)

    groups: dict[int, list[int]] = {}
    for si in range(nsimp):
        groups.setdefault(find(si), []).append(si)

    group_members = [groups[root] for root in sorted(groups)]
    first = np.array([members[0] for members in group_members])
    normals = eqs[first, :3].astype(float)
    normals /= np.sqrt(np.vecdot(normals, normals))[:, None]  # np.linalg.norm's bits
    offsets = (-eqs[first, 3]).tolist()
    polars = _klein_polars(normals, -eqs[first, 3])
    # triangles in one batch; merged faces and unsure triangles one by one
    cycles: list = [None] * len(group_members)
    tris = np.flatnonzero([len(members) == 1 for members in group_members])
    tri_cycles, unsure = _order_triangles(np.sort(hull.simplices[first[tris]], axis=1),
                                          sphere, normals[tris])
    for gid, cycle, redo in zip(tris.tolist(), tri_cycles.tolist(), unsure.tolist()):
        if not redo:
            cycles[gid] = cycle
    faces: list[Face] = []
    group_of_simplex: dict[int, int] = {}
    for gid, members in enumerate(group_members):
        normal, offset, cycle = normals[gid], offsets[gid], cycles[gid]
        if cycle is None:
            verts = sorted({v for si in members for v in simplices[si]})
            cycle = _order_cycle(verts, sphere[verts], normal)
        faces.append(Face(normal, offset, cycle, _face_circle(normal, offset)))
        for si in members:
            group_of_simplex[si] = gid

    # edges between distinct merged faces
    edge_map: dict[tuple[int, int], set] = {}
    for si, tri in enumerate(simplices):
        for a in range(3):
            key = tuple(sorted((tri[a], tri[(a + 1) % 3])))
            edge_map.setdefault(key, set()).add(group_of_simplex[si])

    edges = []
    for (va, vb), fset in sorted(edge_map.items()):
        fs = sorted(fset)
        if len(fs) == 1:
            continue  # interior diagonal of a merged face
        if len(fs) != 2:
            raise NumericallyCoincident(f"edge {va},{vb} borders {len(fs)} faces")
        ang = _exterior_angle(polars[fs[0]], polars[fs[1]])
        edges.append(Edge((va, vb), (fs[0], fs[1]), ang))

    poly = HullPolyhedron(cfg, faces, edges, degenerate=False)
    if poly.euler_characteristic() != 2:
        raise NumericallyCoincident(
            f"Euler characteristic {poly.euler_characteristic()} != 2"
        )
    return poly


# ---------------------------------------------------------------------------
# bending lamination data
# ---------------------------------------------------------------------------


@dataclass
class BendingEntry:
    edge: int
    endpoints: tuple
    weight: float
    fold: bool


@dataclass
class BendingData:
    entries: list[BendingEntry]

    @property
    def interior(self) -> list[BendingEntry]:
        """Bending lines in the interior of the faces' copies (folds excluded)."""
        return [e for e in self.entries if not e.fold]

    def weights(self) -> list[float]:
        return [e.weight for e in self.entries]


def bending_lamination(hull: HullPolyhedron) -> BendingData:
    """Edges with exterior angle above 1e-12, weighted by that angle."""
    entries = []
    for i, e in enumerate(hull.edges):
        if e.angle > 1e-12:
            entries.append(
                BendingEntry(
                    i, hull.edge_geodesic_endpoints(e), e.angle, e.fold
                )
            )
    return BendingData(entries)


# ---------------------------------------------------------------------------
# nearest-point retraction
# ---------------------------------------------------------------------------


def _point_in_convex_polygon(p: complex, verts: list[complex]) -> bool:
    n = len(verts)
    signs = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        cr = (b.real - a.real) * (p.imag - a.imag) - (b.imag - a.imag) * (p.real - a.real)
        signs.append(cr)
    bound = 1e-12 * max(max(abs(s) for s in signs), 1e-12)
    return all(s >= -bound for s in signs) or all(s <= bound for s in signs)


@dataclass
class RetractionResult:
    point: PointH3
    carrier: tuple[str, int]      # ("face", i) or ("edge", i)
    busemann_value: float
    z: complex | None = None


def _retraction_survivors(hull: HullPolyhedron, z, z_inf: bool):
    """Faces and edges that may carry the retraction of z, screened in numpy.

    The screen maps the points by w -> 1/(w - z) (the identity for z = inf)
    and each face circle's form H to H' = N* H N, N = [[z, 1], [1, 0]] the
    inverse map: `CircleOrLine.mobius_image`'s expressions, evaluated for
    that N.  It bounds how far each screened value can be from the one
    the scalar expressions in `retract` compute: a few ulps of the terms
    summed, over what is left after cancellation.  Every edge with finite
    ends is a candidate, so the best edge height, less its bound, is a floor
    the carrier reaches.  A face or edge is dropped only when, within the
    bounds, it is surely no candidate or surely below that floor; a face
    whose image form the scalar path might reject is always kept.

    The hull-fixed inputs come from `hull.screen`.  Only z = inf on a hull
    with an INF point leaves an image at INF, so only then are edges and
    faces masked by the finiteness of their vertices.
    """
    s = hull.screen
    A, C = s.A, s.C
    eps = _EPS
    masked = z_inf and s.has_inf
    with np.errstate(all="ignore"):
        if z_inf:
            w = s.ideal
            Ap, Bp, Cp = A, s.B, C
            tA, tB, aC = s.abs_A, s.abs_B, s.abs_C
            aA, aB = tA, tB
        else:
            zc = complex(z)
            r2 = abs(zc) ** 2
            w = 1.0 / (s.ideal - zc)
            if s.has_inf:
                w = np.where(s.finite, w, 0.0)
            Ap = A * r2 + 2.0 * (s.Bc * zc).real + C
            Bp = A * zc.conjugate() + s.Bc
            Cp, aC = A, s.abs_A
            tA = s.abs_A * r2 + 2.0 * s.abs_B * abs(zc) + s.abs_C
            tB = s.abs_A * abs(zc) + s.abs_B
            aA, aB = np.abs(Ap), np.abs(Bp)

        # edges: height |a - b| / 2
        a, b = w[s.edge_ends]
        aw = np.abs(w)
        abs_a, abs_b = aw[s.edge_ends]
        he = np.abs(a - b) / 2.0
        dhe = 16.0 * eps * (1.0 + (abs_a + abs_b) / (2.0 * he))
        low = he * (1.0 - dhe)
        if masked:
            low = np.where(s.edge_finite, low, -np.inf)
        floor = low.max(initial=-np.inf)
        keep = ~(he * (1.0 + dhe) < floor)
        if masked:
            keep &= s.edge_finite
        keep_edges = keep.nonzero()[0]

        # faces: line test and height sqrt(D)/|A'|, D = |B'|^2 - A'C'
        aB2, ApCp = aB * aB, Ap * Cp
        D = aB2 - ApCp
        D_scale = aB2 + np.abs(ApCp) + tA * aC + 2.0 * tB * aB
        sure_disc = D > 16.0 * eps * D_scale
        norm = np.sqrt(Ap * Ap + 2.0 * aB * aB + Cp * Cp)
        sure_line = (aA + 32.0 * eps * tA) / norm < 1e-12
        dh = 64.0 * eps * (1.0 + tA / aA + D_scale / D)
        live = ~sure_line & ~(np.sqrt(D) / aA * (1.0 + dh) < floor)
        if masked:
            live &= s.face_finite
        cand = (~sure_disc | live).nonzero()[0]

        # the few faces left: is the centre -B'/A' surely outside the polygon?
        c = -Bp[cand] / Ap[cand]
        abs_c = np.abs(c)
        c_err = (32.0 * eps * (tB[cand] + abs_c * tA[cand]) / aA[cand]
                 + 8.0 * eps * abs_c)
        fv = s.face_vertices[cand]
        fw = w[fv]
        e = w[s.face_next[cand]] - fw
        q = c[:, None] - fw
        sgn = e.real * q.imag - e.imag * q.real
        E, Q = np.abs(e).max(axis=1, initial=0.0), np.abs(q).max(axis=1, initial=0.0)
        pos_err = c_err + 64.0 * eps * aw[fv].max(axis=1, initial=0.0)
        s_err = (E + Q + pos_err) * pos_err + 8.0 * eps * E * Q
        band = s_err + 1e-12 * np.maximum(np.abs(sgn).max(axis=1, initial=0.0) + s_err,
                                          1e-12)
        outside = ((sgn.max(axis=1, initial=0.0) > band)
                   & (sgn.min(axis=1, initial=0.0) < -band))
        keep_faces = cand[~(sure_disc[cand] & outside)]
    return keep_faces.tolist(), keep_edges.tolist()


def retract(hull: HullPolyhedron, z) -> RetractionResult:
    """Nearest-point retraction of z onto the dome.

    Sends z to infinity; there the smallest horoball at z is a half-space
    {t >= c}, so the contact point is the highest point of the transformed
    hull: the top of a face hemisphere when that top lies over the face
    polygon, or the top of an edge semicircle.  Candidates are compared by
    height; ties prefer the face carrier.

    A numpy screen (`_retraction_survivors`) keeps the few faces and edges
    that can be highest; the scalar expressions below decide among them in
    the order faces then edges, so the result is the one a loop over every
    face and edge gives, bit for bit.
    """
    if cmath.isnan(z):
        raise InvalidInput("z: a coordinate is NaN")
    z_inf = is_inf(z)
    pts = hull.config.points
    # |u - v|^2 = 2 - 2 u.v: the rounding of u.v, a few ulps, is far below the
    # gap between _NEAR and COINCIDE_TOL, and chordal_distance decides the
    # screened points in index order, so the first coincident point raises.
    near = hull.sphere @ boundary_to_sphere(z) >= 1.0 - 0.5 * _NEAR * _NEAR
    for i in near.nonzero()[0]:
        if chordal_distance(z, pts[i]) <= COINCIDE_TOL:
            raise PointNotInDomain(f"z coincides with ideal point {i}")
    m = MobiusMap.identity() if z_inf else MobiusMap(0, 1, 1, -z)
    faces, edges = _retraction_survivors(hull, z, z_inf)

    best = None  # (height, priority, point, carrier)
    for fi in faces:
        f = hull.faces[fi]
        circ = f.circle.mobius_image(m)
        if circ.is_line:
            continue  # z on the face circle: contact cannot be interior
        c, rho = circ.center_radius()
        verts = [m(pts[v]) for v in f.vertices]
        if any(is_inf(v) for v in verts):
            continue
        if _point_in_convex_polygon(c, verts):
            cand = (rho, 1, PointH3(c.real, c.imag, rho), ("face", fi))
            if best is None or cand[:2] > best[:2]:
                best = cand
    for ei in edges:
        e = hull.edges[ei]
        a, b = m(pts[e.v[0]]), m(pts[e.v[1]])
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
    return RetractionResult(point, carrier, b_val, None if z_inf else complex(z))


def retraction_certificate(hull: HullPolyhedron, z, result: RetractionResult,
                           seed: int = 0) -> float:
    """Smallest sampled hull Busemann value minus the retraction's value.

    About 200 points are sampled, spread evenly over the faces.

    Nonnegative (within tolerance) certifies that the open horoball through
    the contact point misses the hull.
    """
    rng = np.random.default_rng(seed)
    worst = math.inf
    for f in hull.faces:
        ids = f.vertices
        w = rng.dirichlet(np.ones(len(ids)), size=200 // max(len(hull.faces), 1) + 1)
        pts = w @ hull.sphere[ids]
        for p in pts:
            if np.linalg.norm(p) >= 1 - 1e-12:
                continue
            hp = ball_to_halfspace(_klein_to_ball(p))
            worst = min(worst, busemann(z, hp, BASEPOINT))
    return worst - result.busemann_value


# ---------------------------------------------------------------------------
# intrinsic development of the dome surface
# ---------------------------------------------------------------------------


def _pull(m: tuple, w: complex) -> complex:
    """Image of an upper-half-plane point w under m^-1, for det m = 1."""
    a, b, c, d = m
    return (d * w - b) / (a - c * w)


def _cross_ratio(pa, pb, v, u) -> complex:
    """(pa, pb; v, u) = S(u) / S(v), S(z) = (z - pa) / (z - pb); a factor
    with INF cancels against the other one with INF."""
    def diff(x, y):
        return 1.0 if is_inf(x) or is_inf(y) else x - y
    return diff(u, pa) * diff(v, pb) / (diff(u, pb) * diff(v, pa))


def _dist_uhp(w1: complex, w2: complex) -> float:
    """Distance between upper-half-plane points, precise at any distance."""
    return 2.0 * math.asinh(abs(w1 - w2) / (2.0 * math.sqrt(w1.imag * w2.imag)))


def _dist_uhp_to_geodesic(w: complex, a: float, b: float) -> float:
    """Distance from an UHP point to the geodesic with real endpoints a, b."""
    x, y = w.real, w.imag
    if math.isinf(a):
        a, b = b, a
    if math.isinf(b):
        return math.asinh(abs(x - a) / y)
    return math.asinh(abs((x - a) * (x - b) + y * y) / (abs(b - a) * y))


class SurfaceAtlas:
    """Per-face upper-half-plane charts of the dome and the gluing maps.

    A face's chart sends its first three vertices to 0, 1 and inf, so the
    face goes to the upper half plane and its ideal vertices to the
    extended real line.  The development moves between charts by real
    maps (a, b, c, d) of determinant 1, tuples of Python floats that
    `mobius`'s tuple kernel composes and applies.

    A hull builds one, as `HullPolyhedron.atlas`, so the chart images of
    the edges and the gluing maps computed for one query serve the next.
    It keeps the hull's points, faces and edges, not the hull, so no
    reference cycle holds a hull alive.
    """

    def __init__(self, points: tuple, faces: list[Face], edges: list[Edge]):
        self.points, self.faces, self.edges = points, faces, edges
        self.charts: list[MobiusMap] = [
            MobiusMap.to_zero_one_inf(*(points[i] for i in f.vertices[:3]))
            for f in faces]
        self.face_edges: list[list[int]] = [[] for _ in faces]
        for ei, e in enumerate(edges):
            self.face_edges[e.faces[0]].append(ei)
            self.face_edges[e.faces[1]].append(ei)
        self._chart_edges: list[list | None] = [None] * len(faces)
        self._glue: dict[tuple[int, int], tuple[tuple, int]] = {}

    def chart_point(self, face: int, p: PointH3) -> complex:
        q = poincare_extension(self.charts[face], p)
        if abs(q.y) > 1e-6:
            raise DevelopmentFailed(f"point is not on face {face} (y = {q.y})")
        return complex(q.x, q.t)

    def _vertex_image(self, face: int, i: int) -> float:
        """Image of ideal point i in the chart of ``face``, a real or inf."""
        z = self.charts[face](self.points[i])
        return math.inf if is_inf(z) else z.real

    def chart_edges(self, face: int) -> list[tuple[int, float, float]]:
        """(edge, a, b) for each edge of ``face``, a and b the chart images
        of the edge's ends; computed on the face's first use."""
        got = self._chart_edges[face]
        if got is None:
            got = self._chart_edges[face] = [
                (ei, *(self._vertex_image(face, i) for i in self.edges[ei].v))
                for ei in self.face_edges[face]]
        return got

    def gluing(self, face: int, edge: int) -> tuple[tuple, int]:
        """Development step crossing ``edge`` out of ``face``: (g, neighbor).

        g sends the neighbor's chart to this face's, so dev_child =
        compose(dev_parent, g).  It maps the neighbor's images of the
        edge's ends pa, pb to this face's, and the neighbor's off-edge
        vertex u to the point x on the far side of the edge from this
        face's off-edge vertex v with (pa, pb; v, x) = -|(pa, pb; v, u)|.
        The rotation about the edge that unbends the neighbor into this
        face's plane keeps the modulus of that cross-ratio and turns its
        argument, +-(pi minus the exterior angle), to pi.
        """
        key = (face, edge)
        got = self._glue.get(key)
        if got is None:
            e = self.edges[edge]
            other = e.faces[0] if e.faces[1] == face else e.faces[1]
            v = next(i for i in self.faces[face].vertices if i not in e.v)
            u = next(i for i in self.faces[other].vertices if i not in e.v)
            pts = self.points
            r = abs(_cross_ratio(pts[e.v[0]], pts[e.v[1]], pts[v], pts[u]))
            # S sends the edge's ends to 0 and inf in either chart, and the
            # gluing is S_face^-1 o (x -> k x) o S_other, k < 0 taking u
            # across the edge from v
            a, b, x = (self._vertex_image(face, i) for i in (*e.v, v))
            s_face = to_zero_inf(a, b)
            a, b, y = (self._vertex_image(other, i) for i in (*e.v, u))
            s_other = to_zero_inf(a, b)
            k = -r * apply(s_face, x) / apply(s_other, y)
            g = compose(inverse(s_face), compose((k, 0.0, 0.0, 1.0), s_other))
            n = math.sqrt(g[0] * g[3] - g[1] * g[2])
            got = self._glue[key] = (tuple(c / n for c in g), other)
        return got


@dataclass
class InjectivityEstimate:
    value: float                # half the shortest essential loop found
    exact: bool                 # the frontier emptied before the depth cap
    loops_found: int            # pairs of half-paths closed into a loop
    depth: int
    expanded: int               # nodes whose edges were developed
    pruned: int                 # edges skipped as farther than best / 2
    frontier: int               # nodes left at the depth cap; 0 iff exact


def dome_injectivity_radius(hull: HullPolyhedron, face: int, p: PointH3,
                            depth: int = 10) -> InjectivityEstimate:
    """Injectivity radius of the dome surface at a face point.

    Develops non-backtracking face paths (half-paths) of at most ``depth``
    crossings out of the starting face, breadth first, and keeps for each
    face the base point w0 pulled back along every half-path that reaches
    it.  Two pull-backs in one face close a loop, of length their
    distance.  An edge is pruned once it is at least half the best loop
    from the pull-back: each half of a shortest loop stays within half
    its length of w0, and the two halves meet in the face of its
    midpoint, so ``exact`` (the frontier emptied before the depth cap)
    certifies the value.
    """
    atlas = hull.atlas
    w0 = atlas.chart_point(face, p)
    best = math.inf
    loops = expanded = pruned = frontier = 0
    pulls: dict[int, list[complex]] = {face: [w0]}
    queue: deque = deque()
    queue.append((face, (1.0, 0.0, 0.0, 1.0), w0, -1, 0))
    while queue:
        cur_face, dev, q, in_edge, d = queue.popleft()
        if d >= depth:
            frontier += 1
            continue
        expanded += 1
        for ei, a, b in atlas.chart_edges(cur_face):
            if ei == in_edge:
                continue
            if _dist_uhp_to_geodesic(q, a, b) >= best / 2.0:
                pruned += 1
                continue
            g, nxt = atlas.gluing(cur_face, ei)
            ndev = compose(dev, g)
            nq = _pull(ndev, w0)
            seen = pulls.setdefault(nxt, [])
            for other in seen:
                best = min(best, _dist_uhp(other, nq))
            loops += len(seen)
            seen.append(nq)
            queue.append((nxt, ndev, nq, ei, d + 1))
    if not math.isfinite(best):
        raise DepthTooSmall(f"no essential loop closed within depth {depth}")
    return InjectivityEstimate(best / 2.0, frontier == 0, loops, depth,
                               expanded, pruned, frontier)


@dataclass
class ArcTraceResult:
    measure: float
    crossings: list[tuple[int, float]]   # (edge id, arclength parameter)
    length: float
    truncated: bool                      # stopped at max_crossings short of length


def trace_surface_arc(hull: HullPolyhedron, face: int, p: PointH3,
                      direction: float, length: float,
                      max_crossings: int = 1000) -> ArcTraceResult:
    """Develop a geodesic arc on the dome and sum crossed bending weights.

    ``direction`` is the Euclidean angle of the initial tangent in the
    starting face's chart.  ``truncated`` is set when the arc crosses
    another edge within ``length`` after ``max_crossings`` crossings.
    """
    atlas = hull.atlas
    w0 = atlas.chart_point(face, p)
    # geodesic through w0 with tangent direction `direction`
    co = math.cos(direction)
    if abs(co) < 1e-12:
        e_back, e_fwd = ((w0.real, math.inf) if math.sin(direction) > 0
                         else (math.inf, w0.real))
    else:
        c = w0.real + w0.imag * math.tan(direction)
        r = abs(w0 - c)
        if co > 0:
            e_back, e_fwd = c - r, c + r
        else:
            e_back, e_fwd = c + r, c - r
    # m sends the current face's chart to the axis chart, where the arc runs
    # up the imaginary axis from tau0 i
    m = to_zero_inf(e_back, e_fwd)
    tau0 = abs(apply(m, w0))

    crossings: list[tuple[int, float]] = []
    measure = 0.0
    truncated = False
    cur_face, in_edge = face, -1
    s_cur = 0.0
    while True:
        nxt_hit = None
        for ei, a, b in atlas.chart_edges(cur_face):
            if ei == in_edge:
                continue
            da, db = apply(m, a), apply(m, b)
            # a pole (INF) or an overflow: not a crossing
            if not (cmath.isfinite(da) and cmath.isfinite(db)) or da * db >= 0:
                continue
            s = math.log(math.sqrt(-da * db) / tau0)
            if s <= s_cur + 1e-12 or s > length:
                continue
            if nxt_hit is None or s < nxt_hit[0]:
                nxt_hit = (s, ei)
        if nxt_hit is None:
            break
        if len(crossings) >= max_crossings:
            truncated = True
            break
        s, ei = nxt_hit
        measure += hull.edges[ei].angle
        crossings.append((ei, s))
        g, cur_face = atlas.gluing(cur_face, ei)
        m = compose(m, g)
        in_edge = ei
        s_cur = s
    return ArcTraceResult(measure, crossings, length, truncated)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def hull_to_json(hull: HullPolyhedron) -> dict:
    def pt(p):
        return "inf" if is_inf(p) else [p.real, p.imag]

    return {
        "degenerate": hull.degenerate,
        "n_points": len(hull.config.points),
        "points": [pt(p) for p in hull.config.points],
        "faces": [
            {
                "vertices": f.vertices,
                "klein_normal": [float(x) for x in f.normal],
                "klein_offset": f.offset,
            }
            for f in hull.faces
        ],
        "edges": [
            {
                "vertices": list(e.v),
                "faces": list(e.faces),
                "exterior_angle": e.angle,
                "fold": e.fold,
            }
            for e in hull.edges
        ],
        "euler_characteristic": hull.euler_characteristic(),
        "convexity_violation": hull.convexity_violation(),
    }


def _klein_to_ball(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + math.sqrt(max(0.0, 1.0 - float(x @ x))))


def export_mesh(hull: HullPolyhedron) -> str:
    """OBJ mesh of the dome in the Poincare ball, one fan per face."""
    lines = ["# domekit dome mesh (Poincare ball model)"]
    vert_lines = []
    face_lines = []
    count = 0
    for f in hull.faces:
        pts = hull.sphere[f.vertices]
        c = pts.mean(axis=0)
        ring = [_klein_to_ball(c + 0.98 * (p - c)) for p in pts]
        center = _klein_to_ball(c)
        base = count + 1
        vert_lines.append("v {:.8f} {:.8f} {:.8f}".format(*center))
        count += 1
        for q in ring:
            vert_lines.append("v {:.8f} {:.8f} {:.8f}".format(*q))
            count += 1
        k = len(ring)
        for i in range(k):
            face_lines.append(
                f"f {base} {base + 1 + i} {base + 1 + (i + 1) % k}"
            )
    return "\n".join(lines + vert_lines + face_lines) + "\n"


def regular_ideal_tetrahedron() -> IdealConfiguration:
    """Ideal tetrahedron with vertices at the regular inscribed tetrahedron."""
    vs = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / math.sqrt(3.0)
    return IdealConfiguration([sphere_to_boundary(v) for v in vs])
