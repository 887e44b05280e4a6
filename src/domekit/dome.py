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
    sphere_xyz,
)
from .mobius import (
    HUGE,
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
from .spherehull import sphere_hull

COPLANAR_TOL = 1e-10
BASEPOINT = PointH3(0.0, 0.0, 1.0)
COINCIDE_TOL = 1e-9
#: Pairs of points closer than this on the sphere are screened in, and
#: ``chordal_distance`` decides whether they are within ``COINCIDE_TOL``.
_NEAR = 1e-6
_EPS = float(np.finfo(float).eps)
#: the precision of the face planes and angles before their one rounding:
#: a 64-bit mantissa where the platform's long double has one
_EXT = np.longdouble
#: Angles (rad) this close to the +-pi cut count as pi in `_order_cycle`,
#: and normal components this close to the least tie in `_ref_axis`.
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
            i, j = np.nonzero(v[i0:i0 + step] @ v[i0:].T >= 1.0 - 0.5 * _NEAR * _NEAR)
            i, j = i + i0, j + i0
            for i, j in zip(i[i < j].tolist(), j[i < j].tolist()):
                if chordal_distance(self.points[i], self.points[j]) <= COINCIDE_TOL:
                    raise NumericallyCoincident(
                        f"points {i} and {j} numerically coincide"
                    )

    @cached_property
    def sphere_vectors(self) -> np.ndarray:
        """(N, 3) read-only array of the points' unit vectors on the sphere."""
        v = np.array([sphere_xyz(p) for p in self.points])
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

    @cached_property
    def circle(self) -> CircleOrLine:
        """The face's boundary circle on the sphere, made on first use."""
        n1, n2, n3 = (float(x) for x in self.normal)
        return CircleOrLine(n3 - self.offset, complex(n1, n2), -(n3 + self.offset))


@dataclass(slots=True)
class Edge:
    v: tuple[int, int]
    faces: tuple[int, int]
    angle: float                # exterior dihedral angle in [0, pi]
    fold: bool = False          # angle pi edge of a doubled flat hull


class _FaceTable(NamedTuple):
    """A hull's face data for `retract` and the development; read-only.

    Face i's plane is normals[i] . x = offsets[i], and its circle on the unit
    sphere has Euclidean radius sqrt(|n|^2 - o^2), which lies in
    [radius_lo[i], radius_hi[i]].
    """

    normals: np.ndarray        # (F, 3)
    offsets: np.ndarray        # (F,)
    radius_lo: tuple           # (F,) floats
    radius_hi: tuple
    face_edges: tuple          # face i's edges, in index order


def _face_table(normals, offsets, pairs) -> _FaceTable:
    """The face table of faces with these planes, edge i joining the two
    faces pairs[i]."""
    normals = np.array(normals, dtype=float)
    offsets = np.array(offsets, dtype=float)
    nn, oo = _sum3(normals * normals), offsets * offsets
    # |n|^2 - o^2, shifted by err, rounds by at most 5u (|n|^2 + o^2), u =
    # eps / 2, which err = 8u (|n|^2 + o^2) covers; 1 -+ 4 eps covers the
    # rounding of the square root and of the scaling itself
    err = 4.0 * _EPS * (nn + oo)
    radius_lo = np.sqrt(np.maximum(nn - oo - err, 0.0)) * (1.0 - 4.0 * _EPS)
    radius_hi = np.sqrt(nn - oo + err) * (1.0 + 4.0 * _EPS)
    face_edges: list[list[int]] = [[] for _ in offsets]
    for ei, (f, g) in enumerate(pairs):
        face_edges[f].append(ei)
        face_edges[g].append(ei)
    normals.flags.writeable = offsets.flags.writeable = False
    return _FaceTable(normals, offsets, tuple(radius_lo.tolist()),
                      tuple(radius_hi.tolist()), tuple(map(tuple, face_edges)))


@dataclass
class HullPolyhedron:
    config: IdealConfiguration
    faces: list[Face]
    edges: list[Edge]
    degenerate: bool
    # built once with the hull
    face_table: _FaceTable = field(repr=False, compare=False)

    @property
    def sphere(self) -> np.ndarray:
        """The configuration's sphere vectors, (N, 3) and read-only."""
        return self.config.sphere_vectors

    @cached_property
    def atlas(self) -> "SurfaceAtlas":
        """The dome's development (charts and gluing maps), built on first use."""
        return SurfaceAtlas(self.config.points, self.faces, self.edges,
                            self.face_table.face_edges)

    def edge_geodesic_endpoints(self, e: Edge):
        return self.config.points[e.v[0]], self.config.points[e.v[1]]

    def convexity_violation(self) -> float:
        """Largest amount n . v - o by which an ideal point v sticks out of a
        face's half-space n . x <= o, in extended precision, rounded once.

        A float screen computes n . v - o within 8u (|n . v| + |o|) < 4e-15
        (u = 2^-53); each face's own vertices are within 4e-16 of its plane,
        so only the pairs above -5e-15 can hold the largest value, and
        those are evaluated again in extended precision.
        """
        t = self.face_table
        v = self.sphere
        step = max(1, (1 << 16) // len(v))
        worst = -math.inf
        for f0 in range(0, len(t.offsets), step):
            n, o = t.normals[f0:f0 + step], t.offsets[f0:f0 + step]
            gap = (v[:, None, 0] * n[:, 0] + v[:, None, 1] * n[:, 1]
                   + v[:, None, 2] * n[:, 2]) - o
            i, j = np.nonzero(gap > -5e-15)
            gap = _sum3(v[i].astype(_EXT) * n[j]) - o[j]
            worst = max(worst, float(gap.max(initial=-math.inf)))
        return worst

    def euler_characteristic(self) -> int:
        return len(self.config.points) - len(self.edges) + len(self.faces)


def _sum3(x):
    """Rows of an (M, 3) array summed left to right, without BLAS."""
    return x[:, 0] + x[:, 1] + x[:, 2]


def _sphere_ext(points: tuple, sphere: np.ndarray) -> np.ndarray:
    """The points' unit vectors on the sphere in extended precision, (N, 3).

    The inverse stereographic image (2x, 2y, n - 1) / (n + 1), n = x^2 +
    y^2, of the exact inputs; at INF and beyond |z| = HUGE, the float
    ``sphere`` vectors.
    """
    z = np.array(points, dtype=complex)
    exact = np.abs(z) <= HUGE
    x = np.where(exact, z.real, 0.0).astype(_EXT)
    y = np.where(exact, z.imag, 0.0).astype(_EXT)
    n = x * x + y * y
    v = np.column_stack([2 * x, 2 * y, n - 1]) / (n + 1)[:, None]
    v[~exact] = sphere[~exact]
    return v


def _planes(v: np.ndarray, tris: np.ndarray) -> tuple:
    """Outward unit normals and offsets of the planes of triangles (a, b, c)
    of rows of v, counterclockwise from outside, and the triangles' doubled
    areas |(b - a) x (c - a)|, in v's precision."""
    a = v[tris[:, 0]]
    u, w = v[tris[:, 1]] - a, v[tris[:, 2]] - a
    n = np.column_stack([u[:, 1] * w[:, 2] - u[:, 2] * w[:, 1],
                         u[:, 2] * w[:, 0] - u[:, 0] * w[:, 2],
                         u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]])
    size = np.sqrt(_sum3(n * n))
    n /= size[:, None]
    return n, _sum3(n * a), size


def _exterior_angles(n: np.ndarray, o: np.ndarray, f: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """Exterior dihedral angles between faces f[i] and g[i] with the planes
    (n, o), in their precision.

    With the unit polars u = (n, o) / sqrt(1 - o^2) and the Lorentz form
    <x, x> = x0^2 + x1^2 + x2^2 - x3^2, the angle theta between the faces
    has <u - w, u - w> = 4 sin^2(theta / 2) and <u + w, u + w> = 4
    cos^2(theta / 2), so theta = 2 atan2 of their square roots: no
    cancellation near 0 or pi, where acos of the cosine would lose half
    the digits.
    """
    u = np.column_stack([n, o]) / np.sqrt(1 - o * o)[:, None]

    def norm(x):
        x = x * x
        return np.sqrt(np.maximum(_sum3(x) - x[:, 3], 0))

    uf, ug = u[f], u[g]
    return 2 * np.arctan2(norm(uf - ug), norm(uf + ug))


def _ref_axis(normals: np.ndarray) -> np.ndarray:
    """Each plane's frame axis: the first axis whose |n_i| is within
    _ANGLE_TOL of the least, so a near tie does not depend on rounding."""
    m = np.abs(normals)
    return np.argmax(m <= m.min(axis=1, keepdims=True) + _ANGLE_TOL, axis=1)


def _order_cycle(vertex_ids: list[int], pts: np.ndarray, normal: np.ndarray) -> list[int]:
    """Order coplanar sphere points counterclockwise as seen from outside.

    The angles are taken about the centroid in the frame e1 = n x e_k /
    |n x e_k|, e2 = n x e1 (e_k the `_ref_axis`), from -pi; an angle within
    _ANGLE_TOL above -pi counts as pi, so a vertex on the cut comes last
    whichever side of it rounding puts it.
    """
    n0, n1, n2 = (float(x) for x in normal)
    k = _ref_axis(np.asarray(normal)[None])[0]
    # n x e_k, normalised, and n x e1
    a0, a1, a2 = ((0.0, n2, -n1), (-n2, 0.0, n0), (n1, -n0, 0.0))[k]
    r = math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    a0, a1, a2 = a0 / r, a1 / r, a2 / r
    b0, b1, b2 = n1 * a2 - n2 * a1, n2 * a0 - n0 * a2, n0 * a1 - n1 * a0
    q = pts - pts.mean(axis=0)
    ang = np.arctan2(np.einsum("ij,j->i", q, (b0, b1, b2)),
                     np.einsum("ij,j->i", q, (a0, a1, a2)))
    ang[ang < _ANGLE_TOL - math.pi] += 2.0 * math.pi
    return [vertex_ids[i] for i in np.argsort(ang)]


def _order_triangles(tris: np.ndarray, sphere: np.ndarray,
                     normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_order_cycle` of T triangles at once: (T, 3) cycles and an unsure mask.

    Each triangle comes counterclockwise from outside, so its cycle is the
    rotation that starts at its least angle: the vertex below e1's line (y
    < 0) after one on or above it.  For unit n, e2 = (n_k n - e_k) / |n x
    e_k|, so a vertex at q from the centroid, in the plane, has y = -q_k /
    |n x e_k| up to rounding: the sign of -q_k decides.  A triangle with a
    vertex within 4e-9 of e1's line is marked unsure, and the caller orders
    it with `_order_cycle`; every other cycle is the one `_order_cycle`
    gives.
    """
    c = sphere[tris, _ref_axis(normals)[:, None]]
    y = c.mean(axis=1)[:, None] - c
    first = np.argmax((y < 0) & (y[:, [2, 0, 1]] >= 0), axis=1)
    cycles = np.take_along_axis(tris, (first[:, None] + np.arange(3)) % 3, axis=1)
    return cycles, (np.abs(y) <= 4.0 * _ANGLE_TOL).any(axis=1)


def _build_degenerate(cfg: IdealConfiguration, sphere: np.ndarray) -> HullPolyhedron:
    c = sphere.mean(axis=0)
    _, _, vt = np.linalg.svd(sphere - c)
    normal = vt[-1]
    offset = float(normal @ c)
    if offset < 0:
        normal, offset = -normal, -offset
    cycle = _order_cycle(list(range(len(sphere))), sphere, normal)
    f_top = Face(normal, offset, cycle)
    f_bot = Face(-normal, -offset, cycle[::-1])
    edges = [
        Edge((cycle[i], cycle[(i + 1) % len(cycle)]), (0, 1), math.pi, fold=True)
        for i in range(len(cycle))
    ]
    table = _face_table([normal, -normal], [offset, -offset], [e.faces for e in edges])
    return HullPolyhedron(cfg, [f_top, f_bot], edges, True, table)


def _coplanar_groups(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label each of n triangles by the least triangle of its connected
    group, triangles a[i] and b[i] being joined."""
    label = list(range(n))
    nbrs: dict[int, list[int]] = {}
    for s, t in zip(a.tolist(), b.tolist()):
        nbrs.setdefault(s, []).append(t)
        nbrs.setdefault(t, []).append(s)
    for root in sorted(nbrs):
        if label[root] != root:
            continue
        stack = [root]
        while stack:
            for t in nbrs[stack.pop()]:
                if label[t] == t and t != root:
                    label[t] = root
                    stack.append(t)
    return np.array(label)


def build_hull(cfg: IdealConfiguration) -> HullPolyhedron:
    """Boundary of the hyperbolic convex hull of the ideal configuration.

    Concyclic configurations produce the doubled ideal polygon (two
    coincident faces, fold edges of exterior angle pi) flagged degenerate.
    Otherwise `spherehull.sphere_hull` triangulates the hull, and
    neighbouring triangles whose planes agree within COPLANAR_TOL merge
    into one face.  The planes and angles are computed in extended
    precision and rounded once.  Faces are numbered in the order of their
    sorted vertex ids, and edges in the order of their (smaller, larger)
    vertex ids.
    """
    sphere = cfg.sphere_vectors
    if cfg.is_concyclic():
        return _build_degenerate(cfg, sphere)
    tris, twin = sphere_hull(sphere)
    ext = _sphere_ext(cfg.points, sphere)
    n, o, size = _planes(ext, tris)
    normals = n.astype(float)
    # each edge once, as its half-edge h < twin[h]; merge across flat ones
    h = np.flatnonzero(np.arange(len(twin)) < twin)
    f, g = h // 3, twin[h] // 3
    flat = ((np.abs(_sum3(normals[f] * normals[g]) - 1.0) < COPLANAR_TOL)
            & (np.abs(o[f] - o[g]) < COPLANAR_TOL))
    label = _coplanar_groups(len(tris), f[flat], g[flat])
    single = np.flatnonzero(np.bincount(label, minlength=len(tris))[label] == 1)
    slot = np.full(len(tris), -1)
    slot[single] = np.arange(len(single))
    keys = [np.sort(tris[single], axis=1)]

    # triangles in one batch; unsure ones one by one
    cycles, unsure = _order_triangles(tris[single], sphere, normals[single])
    cycles = cycles.tolist()
    for i in np.flatnonzero(unsure).tolist():
        ids = sorted(cycles[i])
        cycles[i] = _order_cycle(ids, sphere[ids], normals[single[i]])
    # each face's plane is its triangle's, or a merged face's largest one's
    planes = single.tolist()
    # sorted(set()) rather than np.unique, which imports numpy.ma
    for root in sorted(set(label[slot < 0].tolist())):
        members = np.flatnonzero(label == root)
        best = int(members[np.argmax(size[members])])
        ids = sorted(set(tris[members].ravel().tolist()))
        slot[members] = len(cycles)
        cycles.append(_order_cycle(ids, sphere[ids], normals[best]))
        keys.append([ids[:3]])
        planes.append(best)
    n, o = n[planes], o[planes]
    # number the faces by their sorted vertex ids: two faces share at most
    # an edge, so their three least ids already tell them apart
    keys = np.concatenate(keys)
    order = np.lexsort(keys.T[::-1])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    n, o = n[order], o[order]

    # edges between distinct faces, in vertex order
    f, g = rank[slot[f]], rank[slot[g]]
    keep = f != g
    h, f, g = h[keep], f[keep], g[keep]
    va = tris.ravel()[h]
    vb = tris.ravel()[h - h % 3 + (h + 1) % 3]
    lo, hi = np.minimum(va, vb), np.maximum(va, vb)
    f, g = np.minimum(f, g), np.maximum(f, g)
    by = np.lexsort((hi, lo))
    lo, hi, f, g = lo[by], hi[by], f[by], g[by]
    angles = _exterior_angles(n, o, f, g).astype(float)
    f, g = f.tolist(), g.tolist()
    edges = [Edge((a, b), (s, t), ang) for a, b, s, t, ang in
             zip(lo.tolist(), hi.tolist(), f, g, angles.tolist())]
    table = _face_table(n.astype(float), o.astype(float), zip(f, g))
    faces = [Face(x, y, cycles[i]) for x, y, i in
             zip(table.normals, table.offsets.tolist(), order.tolist())]

    poly = HullPolyhedron(cfg, faces, edges, False, table)
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


#: bounds the error of g = n . v - o, computed for a face plane (n, o) and
#: the sphere vector v of z: see `retract`
_VISIBLE_TOL = 16.0 * _EPS
#: relative slack of the radius ranking: see `retract`
_RANK_TOL = 1e-9


def _cavity(hull: HullPolyhedron, v: np.ndarray) -> tuple[list[int], list[int]]:
    """The faces and edges that `retract` decides for z, v its sphere vector."""
    if hull.degenerate:
        return list(range(len(hull.faces))), list(range(len(hull.edges)))
    t = hull.face_table
    g = t.normals @ v - t.offsets
    cav = np.flatnonzero(g > -_VISIBLE_TOL).tolist()
    gaps = g[cav].tolist()
    radius_lo, radius_hi = t.radius_lo, t.radius_hi
    bound = min((radius_hi[f] / (x - _VISIBLE_TOL)
                 for f, x in zip(cav, gaps) if x > _VISIBLE_TOL), default=math.inf)
    bound *= 1.0 + _RANK_TOL
    faces = [f for f, x in zip(cav, gaps) if radius_lo[f] <= bound * (x + _VISIBLE_TOL)]
    edges = sorted({e for f in cav for e in t.face_edges[f]})
    return faces, edges


def retract(hull: HullPolyhedron, z) -> RetractionResult:
    """Nearest-point retraction of z onto the dome.

    Sends z to infinity by m(w) = 1/(w - z) (the identity for z = inf);
    there the smallest horoball at z is a half-space {t >= c}, so the
    contact point is the highest point of the transformed hull: the top of
    a face hemisphere when that top lies over the face polygon, or the top
    of an edge semicircle.  Candidates are compared by height; ties prefer
    the face carrier.  Raises NumericallyCoincident, naming the face, when
    a kept face's rounded plane or its image under m misses the sphere
    (points of a cluster far below the hull's scale give such faces).

    Only the faces and edges that `_cavity` keeps are decided, by the
    scalar expressions below, in the order faces then edges.  So the
    result is the one a loop over every face and edge gives, bit for bit,
    whenever the loop's winner is kept.  The rest of this docstring shows
    that it is; u = eps / 2 is the unit roundoff and tol = _VISIBLE_TOL.

    Visible faces.  Let v be z's unit vector on the sphere, and g_F =
    n_F . v - o_F for the plane (n_F, o_F) of face F.  F is visible from z
    when g_F > 0.  Then z lies in F's empty cap, so after m the hull lies
    inside F's hemisphere, and the hull's top height H* is at most F's
    image radius rho_F.  The carrier is a visible face or an edge of one:
    a support plane through an edge lies in the pencil of the edge's two
    faces, whose empty caps cover the pencil's caps.  A face that is not
    visible, or an edge neither of whose faces is, lies below the top by
    the hull's thickness there.  It can tie the top only on a hull thinner
    than rounding: the doubled polygon of a concyclic configuration, whose
    faces and edges are all decided.

    Margin 1, visibility.  `boundary_to_sphere` gives v to within 12u
    (|z|^2 and |z|^2 -+ 1 round by 3u relative, the quotients by 2u more),
    and the 3-term product and the difference add 5u.  So the computed
    g^_F is within 17u < tol = 32u of g_F, and every visible face has
    g^_F > -tol.  Every edge of such a face is decided.

    Margin 2, radius ranking.  F's polar is (n_F, o_F) / s_F with s_F =
    sqrt(|n_F|^2 - o_F^2), so rho_F = kappa(z) r_F with r_F = s_F / g_F,
    where kappa depends on z alone: the radii rank as the ratios r_F.
    - The loop's winning face W has its centre c in its polygon, within
      `_point_in_convex_polygon`'s band of 1e-12 relative.  If c lies
      outside by d, the polygon is at hemisphere height <= sqrt(rho_W^2 -
      d^2), which is at most H*.  The band admits d <= 2e-12 rho_W: the
      chord that separates c from the polygon is about 2 rho_W long, and
      every cross product is at most 4 rho_W^2.
    - Let d' be d plus the rounding of c and of the vertex images, and e
      the distance of W's vertices from its plane, both relative to rho_W.
      Then r_W <= (1 + delta) r_F for every visible F, with delta <= e +
      d'^2.  On `build_hull`'s planes e is below 1.2e-14 (sphere hulls of
      64 to 512 points), 8e-16 on thin annuli and 4.4e-16 on ring domes,
      merged k-gons included, so delta is below 1e-12 for moderate z.
    - s_F lies in the hull's [radius_lo, radius_hi], and g_F in g^_F -+
      tol.  So every visible face has r_F >= lo_F = radius_lo / (g^_F +
      tol), and r_F <= hi_F = radius_hi / (g^_F - tol) when g^_F > tol.
      Hence lo_W <= (1 + delta) min hi_F.
    A face is decided when lo_F <= (1 + _RANK_TOL) min hi_F: _RANK_TOL =
    1e-9 covers delta and the 6u of evaluating the test.  Where no face
    has g^_F > tol, min hi_F is inf and every face with g^_F > -tol is
    decided.  The image radius that `CircleOrLine.pullback` computes
    enters only through c; its own error, about u |z|^2 / s_F^2 relative
    for a query far from the hull, is compared nowhere.
    """
    if cmath.isnan(z):
        raise InvalidInput("z: a coordinate is NaN")
    pts = hull.config.points
    v = boundary_to_sphere(z)
    # |u - v|^2 = 2 - 2 u.v: the rounding of u.v, a few ulps, is far below the
    # gap between _NEAR and COINCIDE_TOL, and chordal_distance decides the
    # screened points in index order, so the first coincident point raises.
    near = hull.sphere @ v >= 1.0 - 0.5 * _NEAR * _NEAR
    for i in near.nonzero()[0]:
        if chordal_distance(z, pts[i]) <= COINCIDE_TOL:
            raise PointNotInDomain(f"z coincides with ideal point {i}")
    m = MobiusMap.to_inf(z)
    n = m.inverse()
    faces, edges = _cavity(hull, v)
    # every vertex of a kept face is an end of one of the kept edges
    ends = {i for ei in edges for i in hull.edges[ei].v}
    image = {i: m(pts[i]) for i in ends}

    best = None  # (height, priority, point, carrier)
    for fi in faces:
        f = hull.faces[fi]
        try:
            circ = f.circle.pullback(n)
        except ValueError:  # the rounded plane, or its image, misses the sphere
            raise NumericallyCoincident(
                f"face {fi}: its circle or the circle's image has no real locus") from None
        if circ.is_line:
            continue  # z on the face circle: contact cannot be interior
        c, rho = circ.center_radius()
        verts = [image[i] for i in f.vertices]
        if any(is_inf(w) for w in verts):
            continue
        if _point_in_convex_polygon(c, verts) and (best is None or (rho, 1) > best[:2]):
            best = (rho, 1, PointH3(c.real, c.imag, rho), ("face", fi))
    for ei in edges:
        e = hull.edges[ei]
        a, b = image[e.v[0]], image[e.v[1]]
        if is_inf(a) or is_inf(b):
            continue
        rho = abs(a - b) / 2.0
        if best is None or (rho, 0) > best[:2]:
            mid = (a + b) / 2.0
            best = (rho, 0, PointH3(mid.real, mid.imag, rho), ("edge", ei))
    if best is None:
        raise PointNotInDomain("no retraction candidate (degenerate input)")
    height, _, top, carrier = best
    point = poincare_extension(n, top)
    b_val = math.log(poincare_extension(m, BASEPOINT).t / height)
    return RetractionResult(point, carrier, b_val, None if is_inf(z) else complex(z))


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

    A hull builds one, as `HullPolyhedron.atlas`, so the charts, the chart
    images of the edges and the gluing maps computed for one query serve
    the next.  Each is computed on its first use: a development touches
    few of a large hull's faces.  The atlas keeps the hull's points, faces,
    edges and face edge lists, not the hull, so no reference cycle holds a
    hull alive.
    """

    def __init__(self, points: tuple, faces: list[Face], edges: list[Edge],
                 face_edges: tuple):
        self.points, self.faces, self.edges = points, faces, edges
        self.face_edges = face_edges
        self._charts: list[MobiusMap | None] = [None] * len(faces)
        self._images: list[dict[int, float] | None] = [None] * len(faces)
        self._chart_edges: list[list | None] = [None] * len(faces)
        self._glue: dict[tuple[int, int], tuple[tuple, int]] = {}

    def chart(self, face: int) -> MobiusMap:
        """The chart of ``face``."""
        got = self._charts[face]
        if got is None:
            got = self._charts[face] = MobiusMap.to_zero_one_inf(
                *(self.points[i] for i in self.faces[face].vertices[:3]))
        return got

    def chart_point(self, face: int, p: PointH3) -> complex:
        q = poincare_extension(self.chart(face), p)
        # |y| / t is sinh of the point's distance from the face's plane
        if abs(q.y) > 1e-6 * q.t:
            raise DevelopmentFailed(f"point is not on face {face} (y = {q.y})")
        return complex(q.x, q.t)

    def _vertex_images(self, face: int) -> dict[int, float]:
        """Image of each ideal vertex of ``face`` in its chart, a real or inf."""
        got = self._images[face]
        if got is None:
            chart = self.chart(face)
            got = self._images[face] = {}
            for i in self.faces[face].vertices:
                z = chart(self.points[i])
                got[i] = math.inf if is_inf(z) else z.real
        return got

    def chart_edges(self, face: int) -> list[tuple[int, float, float]]:
        """(edge, a, b) for each edge of ``face``, a and b the chart images
        of the edge's ends."""
        got = self._chart_edges[face]
        if got is None:
            images = self._vertex_images(face)
            got = self._chart_edges[face] = [
                (ei, *(images[i] for i in self.edges[ei].v))
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
            images = self._vertex_images(face)
            a, b, x = (images[i] for i in (*e.v, v))
            s_face = to_zero_inf(a, b)
            images = self._vertex_images(other)
            a, b, y = (images[i] for i in (*e.v, u))
            s_other = to_zero_inf(a, b)
            k = -r * apply(s_face, x) / apply(s_other, y)
            g = compose(inverse(s_face), compose((k, 0.0, 0.0, 1.0), s_other))
            det = g[0] * g[3] - g[1] * g[2]
            if not det > 0.0:  # gluings keep orientation: rounding moved a vertex image
                raise DevelopmentFailed(
                    f"gluing across edge {edge} out of face {face} has determinant {det}")
            n = math.sqrt(det)
            got = self._glue[key] = (tuple(c / n for c in g), other)
        return got


@dataclass
class InjectivityEstimate:
    value: float                # half the shortest essential loop found
    exact: bool                 # the frontier emptied: ``value`` is certified
    loops_found: int            # pairs of half-paths closed into a loop
    expanded: int               # nodes whose edges were developed
    pruned: int                 # edges skipped as farther than best / 2
    frontier: int               # nodes left at a finite depth; 0 iff exact


def dome_injectivity_radius(hull: HullPolyhedron, face: int, p: PointH3,
                            depth: float = math.inf) -> InjectivityEstimate:
    """Injectivity radius of the dome surface at a face point.

    Develops non-backtracking face paths (half-paths) out of the starting
    face, breadth first, and keeps for each face the base point w0 pulled
    back along every half-path that reaches it.  Two pull-backs in one face
    close a loop, of length their distance.  An edge is pruned once it is
    at least half the best loop from the pull-back: each half of a shortest
    loop stays within half its length of w0, and the two halves meet in the
    face of its midpoint, so an empty frontier certifies the value.

    The search needs no depth cap.  A half-path is a tile of the universal
    cover, whose dual graph is a tree, so two half-paths that reach one
    face close an essential loop; among the first (number of faces) + 1
    nodes some face repeats, and ``best`` is finite.  From then on every
    developed edge lies within best / 2 of w0, in a compact ball that meets
    finitely many tiles, so the frontier empties.  The value, best / 2 at
    the end, is at most acosh(N - 1) for N ideal points: a ball of radius
    r about p that embeds has area 2 pi (cosh r - 1), at most the dome's
    2 pi (N - 2).

    A finite ``depth`` leaves the nodes at that many crossings unexpanded;
    then ``exact`` is false if any was left, and the value only an upper
    bound.
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
    return InjectivityEstimate(best / 2.0, frontier == 0, loops, expanded,
                               pruned, frontier)


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
    return x / (1.0 + math.sqrt(max(0.0, 1.0 - float(x[0] * x[0] + x[1] * x[1]
                                                     + x[2] * x[2]))))


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
