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
from .mobius import INF, CircleOrLine, MobiusMap, chordal_distance, is_inf

COPLANAR_TOL = 1e-10
BASEPOINT = PointH3(0.0, 0.0, 1.0)
COINCIDE_TOL = 1e-9
#: Pairs of points closer than this on the sphere are screened in, and
#: ``chordal_distance`` decides whether they are within ``COINCIDE_TOL``.
_NEAR = 1e-6
_EPS = float(np.finfo(float).eps)


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

    def is_concyclic(self, tol: float = 1e-9) -> bool:
        v = self.sphere_vectors
        c = v.mean(axis=0)
        sv = np.linalg.svd(v - c, compute_uv=False)
        return sv[-1] < tol

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


@dataclass
class HullPolyhedron:
    config: IdealConfiguration
    sphere: np.ndarray
    faces: list[Face]
    edges: list[Edge]
    degenerate: bool
    # arrays that `retract` screens with, built once with the hull
    finite: np.ndarray = field(init=False, repr=False, compare=False)  # (N,) not INF
    ideal: np.ndarray = field(init=False, repr=False, compare=False)  # (N,) INF as 0
    face_forms: np.ndarray = field(init=False, repr=False, compare=False)  # (F, 3) A, B, C
    face_vertices: np.ndarray = field(init=False, repr=False, compare=False)  # (F, K)
    edge_vertices: np.ndarray = field(init=False, repr=False, compare=False)  # (E, 2)

    def __post_init__(self):
        pts = self.config.points
        self.finite = np.array([not is_inf(p) for p in pts])
        self.ideal = np.array([p if f else 0j for p, f in zip(pts, self.finite)],
                              dtype=complex)
        self.face_forms = np.array(
            [(f.circle.A, f.circle.B, f.circle.C) for f in self.faces],
            dtype=complex)
        k = max(len(f.vertices) for f in self.faces)  # cycles padded with their start
        self.face_vertices = np.array(
            [f.vertices + f.vertices[:1] * (k - len(f.vertices))
             for f in self.faces])
        self.edge_vertices = np.array([e.v for e in self.edges]).reshape(-1, 2)

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


def _klein_polar(normal: np.ndarray, offset: float) -> np.ndarray:
    s = math.sqrt(1.0 - offset * offset)
    return np.array([normal[0], normal[1], normal[2], offset]) / s


def _exterior_angle(f1: Face, f2: Face) -> float:
    u1 = _klein_polar(f1.normal, f1.offset)
    u2 = _klein_polar(f2.normal, f2.offset)
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
    return HullPolyhedron(cfg, sphere, [f_top, f_bot], edges, degenerate=True)


def build_hull(cfg: IdealConfiguration) -> HullPolyhedron:
    """Boundary of the hyperbolic convex hull of the ideal configuration.

    Concyclic configurations produce the doubled ideal polygon (two
    coincident faces, fold edges of exterior angle pi) flagged degenerate.
    """
    sphere = cfg.sphere_vectors
    if cfg.is_concyclic():
        return _build_degenerate(cfg, sphere)
    # Imported here, not at module level: it takes ~0.4 s and only the hull
    # needs it, so the other CLI subcommands start without it.
    from scipy.spatial import ConvexHull

    hull = ConvexHull(sphere)
    nsimp = len(hull.simplices)
    # union-find over coplanar neighboring simplices
    parent = list(range(nsimp))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    eqs = hull.equations  # n . x + b <= 0 inside, n outward
    for si in range(nsimp):
        for sj in hull.neighbors[si]:
            if sj < 0 or sj <= si:
                continue
            if (
                abs(eqs[si, :3] @ eqs[sj, :3] - 1.0) < COPLANAR_TOL
                and abs(eqs[si, 3] - eqs[sj, 3]) < COPLANAR_TOL
            ):
                parent[find(int(sj))] = find(si)

    groups: dict[int, list[int]] = {}
    for si in range(nsimp):
        groups.setdefault(find(si), []).append(si)

    faces: list[Face] = []
    group_of_simplex: dict[int, int] = {}
    for gid, (root, members) in enumerate(sorted(groups.items())):
        verts = sorted({int(v) for si in members for v in hull.simplices[si]})
        normal = eqs[members[0], :3].astype(float)
        normal /= np.linalg.norm(normal)
        offset = -float(eqs[members[0], 3])
        cycle = _order_cycle(verts, sphere[verts], normal)
        faces.append(Face(normal, offset, cycle, _face_circle(normal, offset)))
        for si in members:
            group_of_simplex[si] = gid

    # edges between distinct merged faces
    edge_map: dict[tuple[int, int], set] = {}
    for si in range(nsimp):
        tri = [int(v) for v in hull.simplices[si]]
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
        ang = _exterior_angle(faces[fs[0]], faces[fs[1]])
        edges.append(Edge((va, vb), (fs[0], fs[1]), ang))

    poly = HullPolyhedron(cfg, sphere, faces, edges, degenerate=False)
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


def bending_lamination(hull: HullPolyhedron, tol: float = 1e-12) -> BendingData:
    """Edges with positive exterior angle, weighted by that angle."""
    entries = []
    for i, e in enumerate(hull.edges):
        if e.angle > tol:
            entries.append(
                BendingEntry(
                    i, hull.edge_geodesic_endpoints(e), e.angle, e.fold
                )
            )
    return BendingData(entries)


# ---------------------------------------------------------------------------
# nearest-point retraction
# ---------------------------------------------------------------------------


def _point_in_convex_polygon(p: complex, verts: list[complex], tol: float = 1e-12) -> bool:
    n = len(verts)
    signs = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        cr = (b.real - a.real) * (p.imag - a.imag) - (b.imag - a.imag) * (p.real - a.real)
        signs.append(cr)
    scale = max(max(abs(s) for s in signs), tol)
    return all(s >= -tol * scale for s in signs) or all(s <= tol * scale for s in signs)


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
    inverse map.  It bounds how far each screened value can be from the one
    the scalar expressions in `retract` compute: a few ulps of the terms
    summed, over what is left after cancellation.  Every edge with finite
    ends is a candidate, so the best edge height, less its bound, is a floor
    the carrier reaches.  A face or edge is dropped only when, within the
    bounds, it is surely no candidate or surely below that floor; a face
    whose image form the scalar path might reject is always kept.
    """
    A, B, C = hull.face_forms.T
    A, C = A.real, C.real
    fv, ev = hull.face_vertices, hull.edge_vertices
    eps = _EPS
    with np.errstate(all="ignore"):
        if z_inf:
            w, ok = hull.ideal, hull.finite
            Ap, Bp, Cp = A, B, C
            tA, tB = np.abs(A), np.abs(B)
        else:
            zc = complex(z)
            r2 = abs(zc) ** 2
            w = np.where(hull.finite, 1.0 / (hull.ideal - zc), 0.0)
            ok = np.ones(len(w), dtype=bool)
            Ap = A * r2 + 2.0 * (B.conjugate() * zc).real + C
            Bp = A * zc.conjugate() + B.conjugate()
            Cp = A
            tA = np.abs(A) * r2 + 2.0 * np.abs(B) * abs(zc) + np.abs(C)
            tB = np.abs(A) * abs(zc) + np.abs(B)
        aA, aB = np.abs(Ap), np.abs(Bp)

        # edges: height |a - b| / 2
        a, b = w[ev[:, 0]], w[ev[:, 1]]
        he = np.abs(a - b) / 2.0
        dhe = 16.0 * eps * (1.0 + (np.abs(a) + np.abs(b)) / (2.0 * he))
        edge_ok = ok[ev].all(axis=1)
        floor = np.where(edge_ok, he * (1.0 - dhe), -np.inf).max(initial=-np.inf)
        keep_edges = np.flatnonzero(edge_ok & ~(he * (1.0 + dhe) < floor))

        # faces: line test and height sqrt(D)/|A'|, D = |B'|^2 - A'C'
        D = aB * aB - Ap * Cp
        D_scale = aB * aB + np.abs(Ap * Cp) + tA * np.abs(Cp) + 2.0 * tB * aB
        sure_disc = D > 16.0 * eps * D_scale
        norm = np.sqrt(Ap * Ap + 2.0 * aB * aB + Cp * Cp)
        sure_line = (aA + 32.0 * eps * tA) / norm < 1e-12
        dh = 64.0 * eps * (1.0 + tA / aA + D_scale / D)
        high = ~(np.sqrt(D) / aA * (1.0 + dh) < floor)
        cand = np.flatnonzero(~sure_disc | (ok[fv].all(axis=1) & ~sure_line & high))

        # the few faces left: is the centre -B'/A' surely outside the polygon?
        c = -Bp[cand] / Ap[cand]
        c_err = (32.0 * eps * (tB[cand] + np.abs(c) * tA[cand]) / aA[cand]
                 + 8.0 * eps * np.abs(c))
        fw = w[fv[cand]]
        e = np.roll(fw, -1, axis=1) - fw
        q = c[:, None] - fw
        sgn = e.real * q.imag - e.imag * q.real
        E, Q = np.abs(e).max(axis=1, initial=0.0), np.abs(q).max(axis=1, initial=0.0)
        pos_err = c_err + 64.0 * eps * np.abs(fw).max(axis=1, initial=0.0)
        s_err = (E + Q + pos_err) * pos_err + 8.0 * eps * E * Q
        band = s_err + 1e-12 * np.maximum(np.abs(sgn).max(axis=1, initial=0.0) + s_err,
                                          1e-12)
        outside = ((sgn.max(axis=1, initial=0.0) > band)
                   & (sgn.min(axis=1, initial=0.0) < -band))
        keep_faces = cand[~sure_disc[cand] | ~outside]
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
    z_inf = is_inf(z)
    d2 = ((hull.sphere - boundary_to_sphere(z)) ** 2).sum(axis=1)
    for i in np.flatnonzero(~(d2 > _NEAR * _NEAR)):
        if chordal_distance(z, hull.config.points[i]) <= COINCIDE_TOL:
            raise PointNotInDomain(f"z coincides with ideal point {i}")
    m = MobiusMap.identity() if z_inf else MobiusMap(0, 1, 1, -z)
    faces, edges = _retraction_survivors(hull, z, z_inf)
    used = set(hull.face_vertices[faces].ravel().tolist())
    used.update(hull.edge_vertices[edges].ravel().tolist())
    pts_m = {v: m(hull.config.points[v]) for v in used}

    best = None  # (height, priority, point, carrier)
    for fi in faces:
        f = hull.faces[fi]
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
    for ei in edges:
        e = hull.edges[ei]
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


def retraction_certificate(hull: HullPolyhedron, z, result: RetractionResult,
                           n_samples: int = 200, seed: int = 0) -> float:
    """Smallest sampled hull Busemann value minus the retraction's value.

    Nonnegative (within tolerance) certifies that the open horoball through
    the contact point misses the hull.
    """
    rng = np.random.default_rng(seed)
    worst = math.inf
    for f in hull.faces:
        ids = f.vertices
        w = rng.dirichlet(np.ones(len(ids)), size=n_samples // max(len(hull.faces), 1) + 1)
        pts = w @ hull.sphere[ids]
        for p in pts:
            if np.linalg.norm(p) >= 1 - 1e-12:
                continue
            hp = ball_to_halfspace(p / (1.0 + math.sqrt(max(0.0, 1 - p @ p))))
            worst = min(worst, busemann(z, hp, BASEPOINT))
    return worst - result.busemann_value


# ---------------------------------------------------------------------------
# intrinsic development of the dome surface
# ---------------------------------------------------------------------------


class Dev2D:
    """Isometry of the upper half plane: real Mobius, possibly anti-holomorphic."""

    __slots__ = ("mat", "conj")

    def __init__(self, mat: np.ndarray, conj: bool):
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        self.mat = mat / math.sqrt(abs(det))
        self.conj = conj

    @staticmethod
    def identity() -> "Dev2D":
        return Dev2D(np.eye(2), False)

    @staticmethod
    def from_mobius(m: MobiusMap) -> "Dev2D":
        """Realify a Mobius map that preserves the real line."""
        mat = m.matrix()
        lead = mat.flat[int(np.argmax(np.abs(mat.flatten())))]
        mat = mat * (lead.conjugate() / abs(lead))
        imag = np.abs(mat.imag).max()
        if imag > 1e-7:
            raise DevelopmentFailed(
                f"gluing matrix not realifiable (imaginary part {imag:.3g})")
        real = mat.real
        det = real[0, 0] * real[1, 1] - real[0, 1] * real[1, 0]
        return Dev2D(real, det < 0)

    def compose(self, other: "Dev2D") -> "Dev2D":
        return Dev2D(self.mat @ other.mat, self.conj ^ other.conj)

    def apply(self, w: complex) -> complex:
        if self.conj:
            w = w.conjugate()
        a, b, c, d = self.mat.flat
        return (a * w + b) / (c * w + d)

    def apply_boundary(self, x):
        a, b, c, d = self.mat.flat
        if is_inf(x):
            return INF if abs(c) < 1e-300 else a / c
        den = c * x + d
        if den == 0:
            return INF
        return (a * x + b) / den

    def moves(self, w: complex, tol: float = 1e-9) -> bool:
        return abs(self.apply(w) - w) > tol


def _dist_uhp(w1: complex, w2: complex) -> float:
    return math.acosh(
        1.0 + abs(w1 - w2) ** 2 / (2.0 * w1.imag * w2.imag)
    )


def _dist_uhp_to_geodesic(w: complex, a, b) -> float:
    """Distance from an UHP point to the geodesic with real endpoints a, b."""
    if is_inf(a) or is_inf(b):
        x = b if is_inf(a) else a
        return math.asinh(abs(w.real - x) / w.imag)
    c = 0.5 * (a + b)
    r = 0.5 * abs(b - a)
    return math.asinh(abs(abs(w - c) ** 2 - r * r) / (2 * r * w.imag))


class SurfaceAtlas:
    """Per-face upper-half-plane charts of the dome and the gluing maps."""

    def __init__(self, hull: HullPolyhedron):
        self.hull = hull
        self.charts: list[MobiusMap] = []
        for f in hull.faces:
            v = [hull.config.points[i] for i in f.vertices[:3]]
            self.charts.append(MobiusMap.to_zero_one_inf(*v))
        self.face_edges: list[list[int]] = [[] for _ in hull.faces]
        for ei, e in enumerate(hull.edges):
            self.face_edges[e.faces[0]].append(ei)
            self.face_edges[e.faces[1]].append(ei)
        self._glue: dict[tuple[int, int], Dev2D] = {}

    def chart_point(self, face: int, p: PointH3) -> complex:
        q = poincare_extension(self.charts[face], p)
        if abs(q.y) > 1e-6:
            raise DevelopmentFailed(f"point is not on face {face} (y = {q.y})")
        return complex(q.x, q.t)

    def chart_edge(self, face: int, edge: int):
        e = self.hull.edges[edge]
        pa, pb = self.hull.edge_geodesic_endpoints(e)
        return self.charts[face](pa), self.charts[face](pb)

    def _unbend(self, face: int, edge: int) -> MobiusMap:
        """Rotation about the edge mapping the neighbor's plane onto face's."""
        e = self.hull.edges[edge]
        other = e.faces[0] if e.faces[1] == face else e.faces[1]
        pa, pb = self.hull.edge_geodesic_endpoints(e)
        target = self.hull.faces[face].circle
        source = self.hull.faces[other].circle
        for sign in (1.0, -1.0):
            rot = MobiusMap.rotation_about(pa, pb, sign * e.angle)
            if source.mobius_image(rot).close_to(target, tol=1e-7):
                return rot
        raise DevelopmentFailed(
            f"no unbending rotation aligns faces across edge {edge}")

    def gluing(self, face: int, edge: int) -> tuple[Dev2D, int]:
        """Development step crossing ``edge`` out of ``face``.

        Returns (g, neighbor) with g = chart_face o unbend o chart_neighbor^-1,
        so dev_child = dev_parent.compose(g).
        """
        e = self.hull.edges[edge]
        other = e.faces[0] if e.faces[1] == face else e.faces[1]
        key = (face, edge)
        if key not in self._glue:
            rho = self._unbend(face, edge)
            m = self.charts[face].compose(rho).compose(self.charts[other].inverse())
            self._glue[key] = Dev2D.from_mobius(m)
        return self._glue[key], other


@dataclass
class InjectivityEstimate:
    value: float                # half the shortest essential loop found
    exact: bool                 # search provably exhausted shorter loops
    loops_found: int
    depth: int


def dome_injectivity_radius(hull: HullPolyhedron, face: int, p: PointH3,
                            depth: int = 10) -> InjectivityEstimate:
    """Injectivity radius of the dome surface at a face point.

    Develops non-backtracking face paths into the chart of the starting
    face; each return to it yields a deck transformation W and a loop of
    length dist(p, W p).  Branches are pruned once the next edge geodesic
    is farther than half the current best loop, which also certifies
    exactness when the frontier empties before the depth cap.
    """
    atlas = SurfaceAtlas(hull)
    w0 = atlas.chart_point(face, p)
    best = math.inf
    loops = 0
    exhausted = True
    queue: deque = deque()
    queue.append((face, Dev2D.identity(), -1, 0))
    while queue:
        cur_face, dev, in_edge, d = queue.popleft()
        if d >= depth:
            exhausted = False
            continue
        for ei in atlas.face_edges[cur_face]:
            if ei == in_edge:
                continue
            a, b = atlas.chart_edge(cur_face, ei)
            da = dev.apply_boundary(a)
            db = dev.apply_boundary(b)
            gdist = _dist_uhp_to_geodesic(w0, da, db)
            if best < math.inf and gdist >= best / 2.0:
                continue
            g, nxt = atlas.gluing(cur_face, ei)
            ndev = dev.compose(g)
            if nxt == face and ndev.moves(w0):
                loops += 1
                best = min(best, _dist_uhp(w0, ndev.apply(w0)))
            queue.append((nxt, ndev, ei, d + 1))
    if not math.isfinite(best):
        raise DepthTooSmall(f"no essential loop closed within depth {depth}")
    return InjectivityEstimate(best / 2.0, exhausted, loops, depth)


@dataclass
class ArcTraceResult:
    measure: float
    crossings: list[tuple[int, float]]   # (edge id, arclength parameter)
    length: float


def trace_surface_arc(hull: HullPolyhedron, face: int, p: PointH3,
                      direction: float, length: float,
                      max_crossings: int = 1000) -> ArcTraceResult:
    """Develop a geodesic arc on the dome and sum crossed bending weights.

    ``direction`` is the Euclidean angle of the initial tangent in the
    starting face's chart.
    """
    atlas = SurfaceAtlas(hull)
    w0 = atlas.chart_point(face, p)
    # geodesic through w0 with tangent direction `direction`
    co = math.cos(direction)
    if abs(co) < 1e-12:
        e_back, e_fwd = (w0.real, INF) if math.sin(direction) > 0 else (INF, w0.real)
    else:
        c = w0.real + w0.imag * math.tan(direction)
        r = abs(w0 - c)
        if co > 0:
            e_back, e_fwd = c - r, c + r
        else:
            e_back, e_fwd = c + r, c - r
    T = MobiusMap.to_zero_inf(e_back, e_fwd)
    tau0 = abs(T(w0))

    crossings: list[tuple[int, float]] = []
    measure = 0.0
    cur_face, dev, in_edge = face, Dev2D.identity(), -1
    s_cur = 0.0
    while len(crossings) < max_crossings:
        nxt_hit = None
        for ei in atlas.face_edges[cur_face]:
            if ei == in_edge:
                continue
            a, b = atlas.chart_edge(cur_face, ei)
            da = T(dev.apply_boundary(a))
            db = T(dev.apply_boundary(b))
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
        dev = dev.compose(g)
        in_edge = ei
        s_cur = s
    return ArcTraceResult(measure, crossings, length)


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


def export_mesh(hull: HullPolyhedron, shrink: float = 0.98) -> str:
    """OBJ mesh of the dome in the Poincare ball, one fan per face."""
    lines = ["# domekit dome mesh (Poincare ball model)"]
    vert_lines = []
    face_lines = []
    count = 0

    def ball(x: np.ndarray) -> np.ndarray:
        n2 = float(x @ x)
        return x / (1.0 + math.sqrt(max(0.0, 1.0 - n2)))

    for f in hull.faces:
        pts = hull.sphere[f.vertices]
        c = pts.mean(axis=0)
        ring = [ball(c + shrink * (p - c)) for p in pts]
        center = ball(c)
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
