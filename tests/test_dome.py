import cmath
import gc
import hashlib
import json
import math
import random
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from domekit import dome
from domekit.bounds import arc_for_radius
from domekit.dome import (
    IdealConfiguration,
    _dist_uhp,
    _order_cycle,
    _order_triangles,
    bending_lamination,
    build_hull,
    dome_injectivity_radius,
    export_mesh,
    hull_to_json,
    regular_ideal_tetrahedron,
    retract,
    retraction_certificate,
    trace_surface_arc,
)
from domekit.errors import (
    DepthTooSmall,
    DevelopmentFailed,
    DomekitError,
    InvalidInput,
    NumericallyCoincident,
    PointNotInDomain,
    TooFewPoints,
)
from domekit.hyperbolic import (
    PointH3,
    ball_to_halfspace,
    boundary_to_sphere,
    dist_h3,
    halfspace_to_ball,
    poincare_extension,
    sphere_to_boundary,
)
from domekit.mobius import INF, MobiusMap, chordal_distance, is_inf, to_zero_inf

from _oracles import (
    _RotationAtlas,
    dihedral_angle,
    face_cycles_oracle,
    hull_structure,
    sphere_hull_brute,
    sphere_hull_qhull,
    injectivity_radius_oracle,
    retract_oracle,
    ring_ruling_retraction,
    trace_surface_arc_oracle,
)


def face_point(hull, face_id) -> PointH3:
    """Interior point of a face: the Klein centroid of its vertices."""
    c = hull.sphere[hull.faces[face_id].vertices].mean(axis=0)
    b = c / (1.0 + math.sqrt(max(0.0, 1.0 - c @ c)))
    return ball_to_halfspace(b)


class TestConfiguration:
    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            IdealConfiguration([0, 1])

    def test_coincident(self):
        with pytest.raises(NumericallyCoincident):
            IdealConfiguration([0, 1e-12, 1.0])

    @pytest.mark.parametrize("bad", [complex("nan"), complex(1.0, math.nan),
                                     complex(math.inf, math.nan)])
    def test_nan_point_rejected(self, bad):
        with pytest.raises(InvalidInput, match="NaN"):
            IdealConfiguration([0, 1, bad, 1j])

    def test_infinite_point_is_inf(self):
        cfg = IdealConfiguration([0, 1, complex(-math.inf, 2.0), 1j])
        assert cfg.points[2] == INF

    @pytest.mark.parametrize("gap, raises", [(0.25e-9, True), (1e-9, False)])
    def test_near_coincident_pair(self, gap, raises):
        # near 0 the chordal distance is 2 * gap: 0.5e-9 and 2e-9
        pts = [1.0, INF, 1j, 0.0, gap]
        if raises:
            with pytest.raises(NumericallyCoincident,
                               match=r"^points 3 and 4 numerically coincide$"):
                IdealConfiguration(pts)
        else:
            IdealConfiguration(pts)

    @pytest.mark.parametrize("pts, pair", [
        ([2.0, 0.0, 2.0 + 1e-10, 1e-10j, INF], (0, 2)),
        ([INF, 0.0, 1.0, 4e9j, 1e-10], (0, 3)),
    ])
    def test_first_coincident_pair_is_reported(self, pts, pair):
        with pytest.raises(NumericallyCoincident,
                           match=rf"^points {pair[0]} and {pair[1]} numerically"):
            IdealConfiguration(pts)

    def test_coincidence_screen_matches_pairwise_loop(self, rng):
        for _ in range(30):
            v = rng.normal(size=(40, 3))
            pts = [sphere_to_boundary(x / np.linalg.norm(x)) for x in v]
            for _ in range(3):
                i = int(rng.integers(len(pts)))
                if not math.isinf(abs(pts[i])):
                    step = 10.0 ** rng.uniform(-11, -8) * cmath.exp(1j * rng.uniform(0, 6.3))
                    pts.insert(int(rng.integers(len(pts) + 1)), pts[i] + step)
            want = next(
                (f"points {i} and {j} numerically coincide"
                 for i in range(len(pts)) for j in range(i + 1, len(pts))
                 if chordal_distance(pts[i], pts[j]) <= 1e-9),
                None,
            )
            try:
                IdealConfiguration(pts)
                got = None
            except NumericallyCoincident as exc:
                got = str(exc)
            assert got == want

    def test_frozen_with_sphere_vectors_computed_once(self):
        cfg = IdealConfiguration([0, 1, INF, 1j])
        with pytest.raises(FrozenInstanceError):
            cfg.points = (0, 1, 2)
        assert cfg.points == (0j, 1 + 0j, INF, 1j)
        v = cfg.sphere_vectors
        assert v is cfg.sphere_vectors is build_hull(cfg).sphere
        assert not v.flags.writeable

    def test_face_table_built_once_and_read_only(self, monkeypatch):
        built = []
        make = dome._face_table
        monkeypatch.setattr(dome, "_face_table",
                            lambda *a: built.append(1) or make(*a))
        hull = build_hull(IdealConfiguration([0, 1, INF, 1j, 2 + 1j]))
        table = hull.face_table
        for z in (0.5j, INF, -2.0 + 1j, -math.inf):
            try:
                retract(hull, z)
            except PointNotInDomain:
                pass
        assert len(built) == 1 and hull.face_table is table
        assert hull.atlas.face_edges is table.face_edges
        assert not table.normals.flags.writeable and not table.offsets.flags.writeable
        with pytest.raises(ValueError):
            table.normals[0, 0] = 0.0
        assert all(type(x) is tuple for x in (table.radius_lo, table.radius_hi,
                                               table.face_edges, *table.face_edges))
        for fi, f in enumerate(hull.faces):
            assert table.face_edges[fi] == tuple(
                ei for ei, e in enumerate(hull.edges) if fi in e.faces)
            # the bracket holds sqrt(|n|^2 - o^2), in exact arithmetic
            n2 = sum(Fraction(x) ** 2 for x in f.normal) - Fraction(f.offset) ** 2
            assert Fraction(table.radius_lo[fi]) ** 2 <= n2 <= Fraction(table.radius_hi[fi]) ** 2

    def test_concyclic_detection(self):
        assert IdealConfiguration([0, 1, INF, -1]).is_concyclic()
        assert IdealConfiguration([1, 1j, -1, -1j]).is_concyclic()
        assert not IdealConfiguration([0, 1, INF, 1j * 0.8]).is_concyclic()


class TestBuildHull:
    def test_triangle_doubles(self):
        hull = build_hull(IdealConfiguration([0, 1, INF]))
        assert hull.degenerate
        assert len(hull.faces) == 2 and len(hull.edges) == 3
        assert all(e.fold and e.angle == pytest.approx(math.pi) for e in hull.edges)
        assert [e for e in bending_lamination(hull) if not e.fold] == []

    def test_generic_tetrahedron(self):
        hull = build_hull(IdealConfiguration([0, 1, INF, 0.8j]))
        assert not hull.degenerate
        assert len(hull.faces) == 4 and len(hull.edges) == 6
        assert all(0 < e.angle < math.pi for e in hull.edges)
        assert hull.euler_characteristic() == 2
        assert hull.convexity_violation() < 1e-10

    def test_concyclic_square_doubles(self):
        hull = build_hull(IdealConfiguration([0, 1, INF, -1]))
        assert hull.degenerate
        assert len(hull.faces) == 2 and len(hull.edges) == 4

    def test_cube_faces_merge(self):
        hull = build_hull(_cube())
        assert len(hull.faces) == 6 and len(hull.edges) == 12
        assert hull.euler_characteristic() == 2
        angles = [e.angle for e in hull.edges]
        assert max(angles) - min(angles) < 1e-9

    def test_dihedral_matches_tangent_oracle(self):
        hull = build_hull(IdealConfiguration([0, 1, INF, 0.8j]))
        for e in hull.edges:
            pa, pb = hull.edge_geodesic_endpoints(e)
            # foot: interior point of the edge from its Klein midpoint
            mid = 0.5 * (hull.sphere[e.v[0]] + hull.sphere[e.v[1]])
            foot = ball_to_halfspace(mid / (1 + math.sqrt(max(0, 1 - mid @ mid))))
            q1 = face_point(hull, e.faces[0])
            q2 = face_point(hull, e.faces[1])
            interior = dihedral_angle(pa, pb, foot, q1, q2)
            assert math.pi - interior == pytest.approx(e.angle, abs=1e-9)


def _cube():
    vs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                   for sz in (-1, 1)], float) / math.sqrt(3)
    return IdealConfiguration([sphere_to_boundary(v) for v in vs])


def _on_cut():
    """Four lattice directions whose hull has a triangle vertex on the cut."""
    vs = np.array([[2, -2, -1], [2, -2, 1], [0, 1, 0], [0, 2, 1]], float)
    return IdealConfiguration([sphere_to_boundary(v / np.linalg.norm(v)) for v in vs])


class TestFaceCycles:
    """`build_hull` orders triangles in one batch; its cycles equal the
    per-face `_order_cycle` loop's, start vertex included."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["sphere", "sphere_inf", "annulus"]),
           n=st.integers(4, 300), seed=st.integers(0, 2**32 - 1))
    @example(kind="sphere", n=300, seed=5)
    @example(kind="annulus", n=8, seed=6)  # two rings of 11: two merged faces
    def test_cycles_equal_per_face_loop(self, kind, n, seed):
        rng = np.random.default_rng(seed)
        hull = build_hull(IdealConfiguration(_retract_config(kind, n, rng)))
        assert [f.vertices for f in hull.faces] == face_cycles_oracle(hull)

    @pytest.mark.parametrize("cfg", [regular_ideal_tetrahedron(), _cube(), _on_cut()],
                             ids=["tetrahedron", "cube", "on_cut"])
    def test_symmetric_hulls_equal_per_face_loop(self, cfg):
        hull = build_hull(cfg)
        assert [f.vertices for f in hull.faces] == face_cycles_oracle(hull)

    def test_triangles_on_the_cut_are_sent_back(self):
        # a vertex of some face lies at angle +-pi of its frame, where the
        # batched angles may land on the other side of the cut
        hull = build_hull(_on_cut())
        tris = np.array([f.vertices[1:] + f.vertices[:1] for f in hull.faces])
        normals = np.array([f.normal for f in hull.faces])
        cycles, unsure = _order_triangles(tris, hull.sphere, normals)
        assert unsure.any()
        for tri, cycle, redo, normal in zip(tris, cycles, unsure, normals):
            if not redo:
                ids = sorted(tri.tolist())
                assert cycle.tolist() == _order_cycle(ids, hull.sphere[ids], normal)


class TestBendingLamination:
    def test_regular_tetrahedron_symmetric(self):
        hull = build_hull(regular_ideal_tetrahedron())
        ws = [e.weight for e in bending_lamination(hull)]
        assert len(ws) == 6
        assert max(ws) - min(ws) < 1e-9
        # regular ideal tetrahedron: interior dihedral pi/3
        assert ws[0] == pytest.approx(2 * math.pi / 3, abs=1e-9)

    def test_nearly_concyclic_fold_weights(self):
        # squashing the tetrahedron toward a circle drives the bends to pi
        prev = None
        for h in (0.5, 0.2, 0.05, 0.01):
            cfg = IdealConfiguration([1, -1, 1j, cmath.rect(1 + h, -math.pi / 2)])
            hull = build_hull(cfg)
            top = sorted(e.angle for e in hull.edges)[-2:]
            assert all(a < math.pi for a in top)
            if prev is not None:
                assert min(top) > prev
            prev = min(top)
        assert prev > math.pi - 0.25


class TestRetract:
    def test_rejects_ideal_points(self):
        hull = build_hull(IdealConfiguration([0, 1, INF]))
        with pytest.raises(PointNotInDomain):
            retract(hull, 1.0)

    @pytest.mark.parametrize("z", [math.nan, complex(math.nan, 0.0),
                                   complex(0.0, math.nan), complex(math.inf, math.nan)])
    def test_nan_query_rejected(self, z):
        hull = build_hull(regular_ideal_tetrahedron())
        with pytest.raises(InvalidInput, match=r"^z: a coordinate is NaN$"):
            retract(hull, z)

    def test_real_minus_inf_is_infinity(self):
        for points in ([0, 1, 1j, 2 + 1j], [1.0, -1.0, 1j, -1j]):
            hull = build_hull(IdealConfiguration(points))
            assert retract(hull, -math.inf) == retract(hull, INF)
        hull = build_hull(IdealConfiguration([0, 1, INF, 1j]))
        with pytest.raises(PointNotInDomain, match=r"^z coincides with ideal point 2$"):
            retract(hull, -math.inf)

    def test_doubled_disk_foot_of_perpendicular(self):
        # dense concyclic polygon approximates the doubled unit disk; the
        # retraction of z = 2 is the perpendicular foot, known in closed form
        n = 256
        hull = build_hull(
            IdealConfiguration([cmath.exp(2j * math.pi * k / n) for k in range(n)])
        )
        r = retract(hull, 2.0)
        want = PointH3(0.8, 0.0, 0.6)
        assert dist_h3(r.point, want) < 1e-3

    def test_vertical_plane_foot(self):
        # points on the real line: the hull sits in the plane over R and
        # the foot under x + iy is (x, 0, |y|) whenever it lands inside
        # the ideal polygon
        hull = build_hull(IdealConfiguration([-5.0, -1.0, 0.0, 1.0, 5.0]))
        for z in (0.4 + 0.7j, -0.5 + 2.0j, 0.5 - 1.2j):
            r = retract(hull, z)
            want = PointH3(z.real, 0.0, abs(z.imag))
            assert dist_h3(r.point, want) < 1e-9
        # a foot falling outside the polygon retracts onto the nearest edge
        r = retract(hull, -2.0 + 0.3j)
        assert r.carrier[0] == "edge"
        edge = hull.edges[r.carrier[1]]
        a = hull.config.points[edge.v[0]].real
        b = hull.config.points[edge.v[1]].real
        c, rad = 0.5 * (a + b), 0.5 * abs(b - a)
        assert abs(r.point.x - c) ** 2 + r.point.t**2 == pytest.approx(
            rad**2, rel=1e-9
        )

    def test_symmetry_axis(self):
        hull = build_hull(IdealConfiguration([1.0, -1.0, 1j, -1j]))
        r = retract(hull, 0.0)
        assert abs(r.point.x) < 1e-9 and abs(r.point.y) < 1e-9

    def test_equivariance_under_symmetry_group(self, rng):
        hull = build_hull(regular_ideal_tetrahedron())
        pts = hull.config.points
        maps = [
            MobiusMap.from_three_points((pts[0], pts[1], pts[2]),
                                        (pts[1], pts[2], pts[0])),
            MobiusMap.from_three_points((pts[0], pts[1], pts[2]),
                                        (pts[1], pts[0], pts[3])),
        ]
        for m in maps:
            imgs = sorted(
                min(range(4), key=lambda i: chordal_distance(m(p), pts[i]))
                for p in pts
            )
            assert imgs == [0, 1, 2, 3]
        for _ in range(100):
            z = complex(rng.normal(), rng.normal()) * 2
            try:
                r = retract(hull, z)
            except PointNotInDomain:
                continue
            for m in maps:
                r2 = retract(hull, m(z))
                assert dist_h3(poincare_extension(m, r.point), r2.point) < 1e-9

    def test_boundary_identity_limit(self):
        hull = build_hull(regular_ideal_tetrahedron())
        v = hull.config.points[0]
        vs = boundary_to_sphere(v)
        direction = cmath.exp(0.3j)
        for delta in (1e-2, 1e-3, 1e-4, 1e-5):
            z = v + delta * direction
            r = retract(hull, z)
            d_ball = float(np.linalg.norm(halfspace_to_ball(r.point) - vs))
            assert d_ball < 10 * chordal_distance(z, v)

    def test_minimizing_horoball_misses_hull(self, rng):
        hull = build_hull(regular_ideal_tetrahedron())
        for z in (0.3 + 0.2j, 2.0 - 1.0j, -0.5j):
            res = retract(hull, z)
            gap = retraction_certificate(hull, z, res, seed=5)
            assert gap >= -1e-9

    def test_carrier_kinds(self):
        hull = build_hull(regular_ideal_tetrahedron())
        kinds = set()
        for ang in np.linspace(0, 2 * math.pi, 40, endpoint=False):
            res = retract(hull, 1.5 * cmath.exp(1j * ang))
            kinds.add(res.carrier[0])
        assert "face" in kinds or "edge" in kinds


def _unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


#: fixed configurations for examples: in "five" the face (0, 1, 1j) has the
#: circle through 1 + 1j; in "kite", symmetric in the real axis, z = INF
#: sees two mirror faces with equal image radius
_FIXED_CONFIGS = {"five": [0, 1, 1j, -1j, 3 + 2j],
                  "kite": [-1, 1, 0.2 + 0.9j, 0.2 - 0.9j, -3j, 3j]}


def _retract_config(kind, n, rng):
    if kind in _FIXED_CONFIGS:
        return list(_FIXED_CONFIGS[kind])
    if kind == "ring":  # k = 3 to 192 aligned points on each circle
        return _ring(3 + n % 190, rng.uniform(0.5, 4.0))
    if kind == "sphere":
        return [sphere_to_boundary(x) for x in _unit_vectors(rng, n)]
    if kind == "sphere_inf":
        pts = [sphere_to_boundary(x) for x in _unit_vectors(rng, n)]
        pts[int(rng.integers(n))] = INF
        return pts
    k = 3 + n % 40
    turn = rng.uniform(0, 2 * math.pi, 2)
    base = 2 * math.pi * np.arange(k) / k
    if kind == "concyclic":  # the doubled polygon: two faces on one circle
        center, radius = complex(*rng.normal(0, 0.5, 2)), rng.uniform(0.5, 2.0)
        return [center + radius * cmath.exp(1j * (t + turn[0])) for t in base]
    # a thin annulus: two rings, radius ratio 1.5
    return ([cmath.exp(1j * (t + turn[0])) for t in base]
            + [1.5 * cmath.exp(1j * (t + turn[1])) for t in base])


def _near_face_circle(face, rng, rel):
    """A point off the face circle by a relative distance rel (either side)."""
    circ = face.circle
    side = rel * rng.choice([-1.0, 1.0])
    if circ.is_line:  # 2 Re(conj(B) z) + C = 0
        n = circ.B / abs(circ.B)
        foot = -circ.C * circ.B / (2 * abs(circ.B) ** 2)
        return foot + rng.normal() * 1j * n + side * n
    c, r = circ.center_radius()
    return c + r * (1 + side) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def _outcome(fn, hull, z):
    try:
        return fn(hull, z)
    except PointNotInDomain as exc:
        return str(exc)


class TestRetractMatchesOracle:
    """The retraction, which decides only faces and edges visible from z,
    equals the scalar loop over every face and edge exactly: point, carrier
    and Busemann value, or the same error."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["sphere", "sphere_inf", "concyclic", "annulus", "ring"]),
           n=st.integers(4, 512), seed=st.integers(0, 2**32 - 1),
           near=st.lists(st.integers(2, 15), min_size=3, max_size=3))
    @example(kind="sphere", n=512, seed=1, near=[4, 11, 13])
    @example(kind="sphere_inf", n=64, seed=2, near=[3, 8, 12])
    @example(kind="concyclic", n=24, seed=3, near=[2, 9, 14])
    @example(kind="annulus", n=32, seed=4, near=[5, 10, 12])
    @example(kind="ring", n=189, seed=5, near=[3, 9, 14])  # k = 192
    def test_retract_equals_scalar_loop(self, kind, n, seed, near):
        rng = np.random.default_rng(seed)
        hull = build_hull(IdealConfiguration(_retract_config(kind, n, rng)))
        queries = [INF] + [sphere_to_boundary(x) for x in _unit_vectors(rng, 6)]
        for k in near:  # z near a face circle: the image is almost a line
            face = hull.faces[int(rng.integers(len(hull.faces)))]
            queries.append(_near_face_circle(face, rng, 10.0 ** -k))
        vertex = hull.config.points[int(rng.integers(len(hull.config.points)))]
        if not math.isinf(abs(vertex)):
            queries += [vertex, vertex + 1e-6 * cmath.exp(1j * rng.uniform(0, 6.3))]
        for z in queries:
            assert _outcome(retract, hull, z) == _outcome(retract_oracle, hull, z)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["sphere", "sphere_inf"]), n=st.integers(4, 256),
           seed=st.integers(0, 2**32 - 1),
           z=st.one_of(st.just(INF), st.just(-math.inf),
                       st.complex_numbers(max_magnitude=10.0)))
    # a finite z with and without an INF ideal point, z = INF with and
    # without one, and z a real -inf; z on a face circle, so the face's g is
    # 0 to rounding, and 1e-12 off it; the doubled polygon, whose faces and
    # edges are all decided; and an exact tie of two visible faces' radii
    @example(kind="sphere", n=64, seed=5, z=0.3 - 0.8j)
    @example(kind="sphere_inf", n=64, seed=6, z=0.3 - 0.8j)
    @example(kind="sphere_inf", n=64, seed=6, z=INF)
    @example(kind="sphere", n=64, seed=7, z=INF)
    @example(kind="sphere", n=64, seed=7, z=-math.inf)
    @example(kind="sphere_inf", n=256, seed=8, z=-math.inf)
    @example(kind="five", n=5, seed=0, z=1 + 1j)
    @example(kind="five", n=5, seed=0, z=1 + 1e-12 + 1j)
    @example(kind="concyclic", n=24, seed=3, z=INF)
    @example(kind="concyclic", n=9, seed=4, z=0.1 + 0.2j)
    @example(kind="kite", n=6, seed=0, z=INF)
    def test_cavity_branches(self, kind, n, seed, z):
        rng = np.random.default_rng(seed)
        hull = build_hull(IdealConfiguration(_retract_config(kind, n, rng)))
        assert _outcome(retract, hull, z) == _outcome(retract_oracle, hull, z)

    def test_ideal_point_message(self):
        hull = build_hull(IdealConfiguration([0, 1, INF, 0.8j]))
        for i, z in enumerate(hull.config.points):
            with pytest.raises(PointNotInDomain,
                               match=rf"^z coincides with ideal point {i}$"):
                retract(hull, z)


def _carrier_vertices(hull, carrier):
    kind, i = carrier
    return set(hull.faces[i].vertices if kind == "face" else hull.edges[i].v)


def _edge_distance(hull, p: PointH3) -> float:
    """Hyperbolic distance from p to the nearest edge geodesic of the hull."""
    pts = hull.config.points
    best = math.inf
    for e in hull.edges:
        q = poincare_extension(MobiusMap(*to_zero_inf(pts[e.v[0]], pts[e.v[1]])), p)
        best = min(best, math.asinh(abs(q.z) / q.t))
    return best


_MOBIUS_COEF = st.complex_numbers(max_magnitude=2.0)
#: points of the two retractions may differ by this hyperbolic distance
_NATURAL_TOL = 1e-9
#: within this distance of an edge, one retraction may land on the edge and
#: the other on a face beside it
_EDGE_MARGIN = 1e-6


class TestConformalNaturality:
    """retract(hull(M cfg), M z) = M^(retract(hull(cfg), z)), M^ the Poincare
    extension of the Mobius map M: the retraction commutes with the conformal
    group.  M is moderate: it sends every point and query to INF or to a
    modulus of at most 1e5, below where `retract`'s `MobiusMap.to_inf(z)`
    turns degenerate.  The images keep the vertex indices, so carriers
    compare by their vertex sets."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["sphere", "sphere_inf", "concyclic", "annulus"]),
           n=st.integers(4, 48), seed=st.integers(0, 2**32 - 1),
           a=_MOBIUS_COEF, b=_MOBIUS_COEF, c=_MOBIUS_COEF, d=_MOBIUS_COEF)
    @example(kind="sphere_inf", n=12, seed=1, a=1.0, b=2j, c=0.5, d=1.0)
    @example(kind="annulus", n=8, seed=2, a=1j, b=0.0, c=1.0, d=0.3 + 0.2j)
    def test_retract_commutes_with_mobius(self, kind, n, seed, a, b, c, d):
        assume(abs(a * d - b * c) > 0.1)
        m = MobiusMap(a, b, c, d)

        def moderate(w):
            return is_inf(w) or abs(w) <= 1e5

        rng = np.random.default_rng(seed)
        pts = _retract_config(kind, n, rng)
        images = [m(p) for p in pts]
        assume(all(moderate(w) for w in images))
        hull = build_hull(IdealConfiguration(pts))
        hull_m = build_hull(IdealConfiguration(images))
        queries = [INF] + [sphere_to_boundary(x) for x in _unit_vectors(rng, 6)]
        for z in queries:
            if not moderate(m(z)) or min(chordal_distance(z, p) for p in pts) < 1e-6:
                continue
            r, r_m = retract(hull, z), retract(hull_m, m(z))
            assert dist_h3(poincare_extension(m, r.point), r_m.point) <= _NATURAL_TOL
            verts = _carrier_vertices(hull, r.carrier)
            verts_m = _carrier_vertices(hull_m, r_m.carrier)
            if _edge_distance(hull, r.point) > _EDGE_MARGIN or r.carrier[0] == r_m.carrier[0]:
                assert verts == verts_m
            else:  # a face's top within the margin of its edge: either may carry it
                assert min(verts, verts_m, key=len) <= max(verts, verts_m, key=len)


class TestInjectivityRadius:
    def test_cusp_monotone_on_doubled_triangle(self):
        hull = build_hull(IdealConfiguration([0.0, 1.0, INF]))
        prev = math.inf
        for x in (0.4, 0.2, 0.1, 0.05, 0.02):
            est = dome_injectivity_radius(hull, 0, PointH3(x, 0.0, x), depth=8)
            assert est.exact
            assert est.value < prev
            prev = est.value
        assert prev < 0.05

    def test_tetrahedron_stable_in_depth(self):
        hull = build_hull(regular_ideal_tetrahedron())
        fid = 0
        p = face_point(hull, fid)
        vals = [
            dome_injectivity_radius(hull, fid, p, depth=d).value
            for d in (6, 8, 10)
        ]
        assert abs(vals[0] - vals[1]) < 1e-6
        assert abs(vals[1] - vals[2]) < 1e-6

    def test_depth_too_small(self):
        hull = build_hull(regular_ideal_tetrahedron())
        with pytest.raises(DepthTooSmall):
            dome_injectivity_radius(hull, 0, face_point(hull, 0), depth=1)

    def test_loop_flags(self):
        hull = build_hull(regular_ideal_tetrahedron())
        est = dome_injectivity_radius(hull, 0, face_point(hull, 0), depth=8)
        assert est.exact and est.loops_found >= 1 and est.value > 0


class TestSurfaceArcs:
    def test_measure_counts_crossings(self):
        hull = build_hull(regular_ideal_tetrahedron())
        res = trace_surface_arc(hull, 0, face_point(hull, 0), 0.3, 1.0)
        assert res.measure == pytest.approx(
            len(res.crossings) * 2 * math.pi / 3, rel=1e-12
        )

    def test_unit_arcs_respect_dome_roundness_bound(self, rng):
        # aggregated small-bending bound: unit arcs cannot cross more than
        # 2 pi ceil(1/arc_for_radius(nu_hat)) of bending when nu_hat is a
        # valid local lower bound for the injectivity radius along the arc
        hull = build_hull(regular_ideal_tetrahedron())
        fid = 0
        p = face_point(hull, fid)
        est = dome_injectivity_radius(hull, fid, p, depth=10)
        assert est.exact
        for _ in range(40):
            direction = rng.uniform(0, 2 * math.pi)
            res = trace_surface_arc(hull, fid, p, float(direction), 1.0)
            # injectivity radius is 1-Lipschitz: points of the arc have
            # radius at least est.value - 1
            nu_hat = est.value - 1.0
            if nu_hat <= 0:
                continue
            bound = 2 * math.pi * math.ceil(1.0 / arc_for_radius(nu_hat))
            assert res.measure <= bound + 1e-9


class TestInjectivityCounters:
    def test_frontier_empty_iff_exact(self):
        hull = build_hull(regular_ideal_tetrahedron())
        p = face_point(hull, 0)
        seen = set()
        for depth in (2, 3, 8):
            est = dome_injectivity_radius(hull, 0, p, depth=depth)
            assert (est.frontier == 0) == est.exact
            seen.add(est.exact)
        assert seen == {False, True}

    def test_counts_add_up_on_triangles(self):
        # every face is a triangle: the root develops 3 edges, every other
        # expanded node 2; each is pruned or enqueued, and every enqueued
        # node is expanded or left at the cap
        hull = build_hull(regular_ideal_tetrahedron())
        for depth in (3, 6, 9):
            est = dome_injectivity_radius(hull, 0, face_point(hull, 0), depth=depth)
            developed = 3 + 2 * (est.expanded - 1)
            enqueued = est.expanded + est.frontier - 1
            assert developed == enqueued + est.pruned
            assert est.pruned > 0 and est.expanded > 1


class TestTruncation:
    def test_flag_at_max_crossings(self):
        hull = build_hull(regular_ideal_tetrahedron())
        p = face_point(hull, 0)
        full = trace_surface_arc(hull, 0, p, 0.3, 6.0)
        assert len(full.crossings) > 2 and not full.truncated
        capped = trace_surface_arc(hull, 0, p, 0.3, 6.0, max_crossings=2)
        assert capped.truncated
        assert capped.crossings == full.crossings[:2]
        assert capped.measure == sum(hull.edges[e].angle for e, _ in full.crossings[:2])
        # a cap the arc reaches without a further crossing truncates nothing
        exact = trace_surface_arc(hull, 0, p, 0.3, 6.0,
                                  max_crossings=len(full.crossings))
        assert not exact.truncated and exact.crossings == full.crossings


def _tetrahedron_queries(rng, n):
    """Points that retract near a face centre of the regular tetrahedron,
    jittered off the antipode of a vertex."""
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                     float) / math.sqrt(3.0)
    out = []
    for _ in range(n):
        d = -verts[rng.integers(4)] + rng.normal(0.0, 0.05, 3)
        out.append(sphere_to_boundary(d / np.linalg.norm(d)))
    return out


def _dev_outcome(fn, *args):
    try:
        return fn(*args)
    except (DevelopmentFailed, DepthTooSmall) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestDevelopmentMatchesOracle:
    """On one hull, whose atlas keeps its edge images and gluings from one
    query to the next, injectivity queries equal those on a fresh atlas bit
    for bit, and arc traces cross the edges that the rotation-route
    development on numpy matrices crosses, in any query order."""

    @pytest.mark.parametrize("kind, n, seed", [
        ("sphere", 64, 1), ("sphere", 256, 2), ("annulus", 32, 3),
        ("concyclic", 24, 4), ("tetrahedron", 4, 5)])
    def test_queries_equal_fresh_numpy_development(self, kind, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "tetrahedron":
            hull = build_hull(regular_ideal_tetrahedron())
            zs = _tetrahedron_queries(rng, 6)
        else:
            hull = build_hull(IdealConfiguration(_retract_config(kind, n, rng)))
            zs = [sphere_to_boundary(x) for x in _unit_vectors(rng, 30)]
        jobs = []
        for z in zs:
            res = retract(hull, z)
            if res.carrier[0] != "face":
                continue
            face, depth = res.carrier[1], int(rng.integers(4, 10))
            direction = float(rng.uniform(0.0, 2.0 * math.pi))
            jobs += [("inj", face, res.point, depth), ("arc", face, res.point, direction)]
            if len(jobs) >= 12:
                break
        assert len(jobs) >= 4
        random.Random(seed).shuffle(jobs)
        for what, face, p, arg in jobs:
            if what == "inj":
                got = _dev_outcome(dome_injectivity_radius, hull, face, p, arg)
                want = _dev_outcome(dome_injectivity_radius, build_hull(hull.config),
                                    face, p, arg)
                assert got == want
            else:
                _assert_arc_matches_oracle(hull, face, p, arg, 4.0)


def _assert_arc_matches_oracle(hull, face, p, direction, length):
    got = trace_surface_arc(hull, face, p, direction, length)
    measure, crossings = trace_surface_arc_oracle(hull, face, p, direction, length)
    assert [e for e, _ in got.crossings] == [e for e, _ in crossings]
    assert [s for _, s in got.crossings] == pytest.approx(
        [s for _, s in crossings], rel=1e-9, abs=1e-9)
    assert got.measure == pytest.approx(measure, rel=1e-12)


def _small_hull(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "tetrahedron":
        return build_hull(regular_ideal_tetrahedron()), rng
    if kind == "concyclic":  # _retract_config puts 3 + its n points on the circle
        return build_hull(IdealConfiguration(_retract_config(kind, n - 3, rng))), rng
    return build_hull(IdealConfiguration(_retract_config(kind, n, rng))), rng


def _inside_point(hull, face, rng) -> PointH3:
    """A point of the face well away from its ideal vertices."""
    ids = hull.faces[face].vertices
    w = rng.uniform(0.3, 1.0, len(ids))
    c = (w / w.sum()) @ hull.sphere[ids]
    return ball_to_halfspace(c / (1.0 + math.sqrt(max(0.0, 1.0 - c @ c))))


_SMALL_HULLS = dict(kind=st.sampled_from(["sphere", "sphere_inf", "concyclic",
                                          "tetrahedron"]),
                    n=st.integers(4, 6), seed=st.integers(0, 2**32 - 1))


def _assert_exact_value_is_oracle_minimum(hull, face, p):
    for depth in range(1, 9):
        est = _dev_outcome(dome_injectivity_radius, hull, face, p, depth)
        if not isinstance(est, str) and est.exact:
            break
    assert est.exact and est.frontier == 0
    # every half-path the search kept has at most depth - 1 crossings, so
    # if the certificate holds, both halves of a shortest loop do, and the
    # oracle's closed paths of up to 2 (depth - 1) crossings contain it; it
    # searches two crossings further, for loops an unsound search missed
    assert est.value == pytest.approx(
        injectivity_radius_oracle(hull, face, p, 2 * depth), rel=1e-9)


class TestDevelopmentOnSmallHulls:
    """The certificate, the arc trace and the gluings against the unpruned
    rotation-route development of `tests/_oracles.py`."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(**_SMALL_HULLS, face_draw=st.floats(0.0, 1.0, exclude_max=True))
    def test_exact_value_is_oracle_minimum(self, kind, n, seed, face_draw):
        hull, rng = _small_hull(kind, n, seed)
        face = int(face_draw * len(hull.faces))
        _assert_exact_value_is_oracle_minimum(hull, face,
                                              _inside_point(hull, face, rng))

    def test_exact_values_at_tetrahedron_retractions(self):
        # points all over the faces, near the ideal vertices too, where an
        # edge's far end in a chart is the chart's infinity
        hull = build_hull(regular_ideal_tetrahedron())
        for x in _unit_vectors(np.random.default_rng(2), 100):
            res = retract(hull, sphere_to_boundary(x))
            if res.carrier[0] == "face":
                _assert_exact_value_is_oracle_minimum(hull, res.carrier[1], res.point)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(**_SMALL_HULLS, face_draw=st.floats(0.0, 1.0, exclude_max=True),
           direction=st.floats(0.0, 2.0 * math.pi))
    def test_arc_crossings_are_oracle_crossings(self, kind, n, seed, face_draw,
                                                direction):
        hull, rng = _small_hull(kind, n, seed)
        face = int(face_draw * len(hull.faces))
        _assert_arc_matches_oracle(hull, face, _inside_point(hull, face, rng),
                                   direction, 5.0)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(**_SMALL_HULLS)
    def test_gluings_unbend_by_the_exterior_angle(self, kind, n, seed):
        hull, _ = _small_hull(kind, n, seed)
        _assert_gluings_unbend(hull)


def _assert_gluings_unbend(hull):
    """Each gluing has determinant 1 and is the oracle's rotation gluing;
    the cross-ratio (pa, pb; v, u) of the edge's ends and the two faces'
    off-edge vertices has argument +-(pi minus the exterior angle)."""
    pts = hull.config.points
    oracle = _RotationAtlas(hull)
    for ei, e in enumerate(hull.edges):
        pa, pb = pts[e.v[0]], pts[e.v[1]]
        for face in e.faces:
            g, other = hull.atlas.gluing(face, ei)
            a, b, c, d = g
            size = a * a + b * b + c * c + d * d
            assert a * d - b * c == pytest.approx(1.0, abs=1e-12 * size)
            want, _ = oracle.gluing(face, ei)
            got = np.array(g).reshape(2, 2)
            assert min(np.abs(got - want).max(), np.abs(got + want).max()) <= (
                1e-9 * np.abs(want).max())
            v = next(i for i in hull.faces[face].vertices if i not in e.v)
            u = next(i for i in hull.faces[other].vertices if i not in e.v)
            s = MobiusMap(*to_zero_inf(pa, pb))
            # as cosines: the phase keeps only about half the digits of
            # angles near 0 and pi
            assert -math.cos(cmath.phase(s(pts[u]) / s(pts[v]))) == pytest.approx(
                math.cos(e.angle), abs=1e-10)


# Nearly cocircular first four points: an edge of exterior angle 1.7e-7.
FLAT_EDGE = [-1.5773882307765996 + 0.17922113048169758j,
             -1.1554544164922362 + 0.07676559845439478j,
             -1.34548183335034 - 0.10563059977012569j,
             -1.1922140724590327 + 0.23572157895352278j,
             3 + 1j, -4 + 2j, 0.5 - 5j, 6 - 3j, -0.5 + 0.2j]
# An edge of exterior angle pi/2 + 7e-7, where rotating by either sign
# about the edge takes one face's plane onto the other's.
RIGHT_EDGE = [0.8859353559799235 + 0.39989052990172547j,
              0.7798149935002603 + 0.3343616165295419j,
              0.7158396668178753 + 0.4284355822619864j,
              0.6310316232649529 + 0.3558117112277896j,
              3 + 1j, -4 + 2j, 0.5 - 5j, 6 - 3j, -0.5 + 0.2j]


def _hull_config(kind, n, rng):
    """Inputs for the hull oracles: `_retract_config`'s kinds, a sphere set
    with a pair 2 COINCIDE_TOL apart (chordally), and the near-cocircular
    FLAT_EDGE and RIGHT_EDGE."""
    if kind == "flat_edge":
        return FLAT_EDGE
    if kind == "right_edge":
        return RIGHT_EDGE
    if kind != "near_pair":
        return _retract_config(kind, n, rng)
    pts = [sphere_to_boundary(x) for x in _unit_vectors(rng, n)]
    z = next(p for p in pts if not is_inf(p) and abs(p) < 1e3)
    step = dome.COINCIDE_TOL * (1 + abs(z) ** 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return pts + [z + step]


class TestHullMatchesOracles:
    """`build_hull`'s merged faces, their cycles (start vertex included) and
    edges equal those of the exact brute-force oracle (N <= 12) and of
    qhull with the union-find merge."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["sphere", "sphere_inf", "ring", "near_pair", "annulus"]),
           n=st.integers(4, 200), seed=st.integers(0, 2**32 - 1))
    @example(kind="flat_edge", n=0, seed=0)
    @example(kind="right_edge", n=0, seed=0)
    @example(kind="ring", n=3, seed=1)       # k = 6: 12 points, quads and hexagons
    @example(kind="ring", n=189, seed=2)     # k = 192
    @example(kind="near_pair", n=10, seed=3)
    @example(kind="sphere", n=9, seed=4)
    @example(kind="sphere_inf", n=11, seed=5)
    def test_equals_oracles(self, kind, n, seed):
        if kind in ("sphere", "sphere_inf", "near_pair"):
            n = 4 + n % 60 if seed % 2 else 4 + n % 8
        cfg = IdealConfiguration(_hull_config(kind, n, np.random.default_rng(seed)))
        hull = build_hull(cfg)
        faces, edges = hull_structure([(f.vertices, f.normal) for f in hull.faces])
        assert {e.v: {frozenset(hull.faces[i].vertices) for i in e.faces}
                for e in hull.edges} == edges
        assert hull_structure(sphere_hull_qhull(hull.sphere)) == (faces, edges)
        if len(cfg.points) <= 12:
            assert hull_structure(sphere_hull_brute(hull.sphere)) == (faces, edges)


#: sha256 of `hull_to_json` (sorted keys) for a seeded family: random sphere
#: sets, one with inf, a 32 + 32 thin annulus and two ring domes
HULL_SHA256 = {
    "sphere-64":
        "e640fa04190a65447dfe07b89f3f2683750f75d230176045668a48cbe8e02bdf",
    "sphere-256":
        "f0f65d7333f41fc0e22222090b63be25991ee05b30ac1a74292bb32c7a5955ca",
    "sphere_inf-512":
        "e9b2e0625e2d9857c39eaa0014cffd32e3d14faa824794c76b57bdfae2e58f2f",
    "annulus-32":
        "4be90ee601a0637e0194e9419f5f7e123889935b0f63b3a7862ec3243680e2e1",
    "ring-48":
        "ed90130d9723d189c4e4d37e3f299e3641d00a886422d8fbf5e2202bd815a534",
    "ring-192":
        "420db88238f12df452ec473e3ec8f9758727bc1ed18b9c6e8a4df4a7ba0e4bca",
}


def _pinned_config(name):
    kind, n = name.rsplit("-", 1)
    if kind == "ring":
        return _ring(int(n), 2.0 if n == "48" else 3.0)
    rng = np.random.default_rng(int(n))
    return _retract_config(kind, 29 if kind == "annulus" else int(n), rng)


class TestHullPinned:
    """The hull's faces, in order, and every digit of its values: `build_hull`
    of the family above, as `dome build` writes it."""

    @pytest.mark.parametrize("name", sorted(HULL_SHA256))
    def test_json_digest(self, name):
        hull = build_hull(IdealConfiguration(_pinned_config(name)))
        text = json.dumps(hull_to_json(hull), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == HULL_SHA256[name]


def _ring(k, s):
    """k equally spaced points on each of |z| = 1 and |z| = e^s, at the same
    angles; the dome approximates that of the round annulus of modulus s."""
    return [r * cmath.exp(2j * math.pi * j / k) for r in (1.0, math.exp(s))
            for j in range(k)]


def _start(hull, z):
    """The face under the retraction of z (the first face of an edge carrier)."""
    res = retract(hull, z)
    kind, i = res.carrier
    return (i if kind == "face" else hull.edges[i].faces[0]), res.point


class TestSoundValues:
    """Values the half-path search gets right where the search that pruned
    whole loops at best / 2 certified a longer loop, and where choosing the
    rotation sign under a tolerance glued the wrong way."""

    @pytest.mark.parametrize("depth", [14, 26, 36])
    def test_ring_reproducer(self, depth):
        hull = build_hull(IdealConfiguration(_ring(12, 2.0)))
        face, p = _start(hull, math.e * cmath.exp(0.37j))
        est = dome_injectivity_radius(hull, face, p, depth=depth)
        assert est.exact
        assert est.value == pytest.approx(2.62190, abs=1e-5)

    @pytest.mark.parametrize("points, z, depth, value", [
        ([0, 1, INF, -1j], 0.4 + 0.8j, 10, 1.19968),
        ([0, 1, 1j, -1j, 3 + 2j], 0.5 + 0.5j, 6, 1.33829),
    ], ids=["tetra", "five"])
    def test_readme_inputs(self, points, z, depth, value):
        hull = build_hull(IdealConfiguration(points))
        face, p = _start(hull, z)
        est = dome_injectivity_radius(hull, face, p, depth=depth)
        assert est.exact
        assert est.value == pytest.approx(value, abs=1e-5)

    @pytest.mark.parametrize("points, z", [(FLAT_EDGE, -1.35 + 0.1j),
                                           (RIGHT_EDGE, 0.79 + 0.4j)],
                             ids=["flat", "right"])
    def test_flat_and_right_edges_develop(self, points, z):
        hull = build_hull(IdealConfiguration(points))
        face, p = _start(hull, z)
        est = dome_injectivity_radius(hull, face, p, depth=12)
        assert est.exact
        assert dome_injectivity_radius(hull, face, p, depth=16).value == est.value
        _assert_gluings_unbend(hull)


class TestRingDomeRulings:
    """On the angles of its rulings a ring dome retracts like the round
    annulus's dome, onto the ruling, in closed form (`_oracles`).  Up to 80
    faces are visible from these queries, far more than on random hulls."""

    @pytest.mark.parametrize("s", [2.0, 4.0])
    @pytest.mark.parametrize("k", [6, 12, 48, 192])
    def test_ruling_queries_retract_to_closed_form(self, k, s):
        hull = build_hull(IdealConfiguration(_ring(k, s)))
        for j in range(0, k, max(1, k // 5)):
            theta = 2.0 * math.pi * j / k
            for lam in (0.1, 0.5, 0.83):
                r = math.exp(lam * s)
                res = retract(hull, r * cmath.exp(1j * theta))
                assert dist_h3(res.point, ring_ruling_retraction(r, theta, s)) <= 1e-12
                assert _carrier_vertices(hull, res.carrier) == {j, k + j}


class TestAnnulusConvergence:
    """Ring domes approach the round annulus, whose dome has injectivity
    radius pi / sinh(s / 2) on its core curve, with error O(k^-2)."""

    @pytest.mark.parametrize("s", [2.0, 3.0])
    def test_core_radius_converges(self, s):
        target = math.pi / math.sinh(s / 2.0)
        errors = []
        for k in (12, 24, 48):
            hull = build_hull(IdealConfiguration(_ring(k, s)))
            face, p = _start(hull, math.exp(s / 2.0) * cmath.exp(0.37j))
            est = dome_injectivity_radius(hull, face, p, depth=k)
            assert est.exact
            errors.append(target - est.value)
        assert 0.0 < errors[2] < errors[1] < errors[0]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5


class TestDefaultSearch:
    """With no depth given, the search runs until its frontier is empty."""

    @pytest.mark.parametrize("s, k", [(3.0, 48), (5.0, 96)])
    def test_exact_on_rings(self, s, k):
        # a loop about the core crosses k edges: a depth cap of 10 certified
        # 4.8685 and 6.6059 here, against the core loop's 1.4754 and 0.5193
        hull = build_hull(IdealConfiguration(_ring(k, s)))
        face, p = _start(hull, math.exp(s / 2.0) * cmath.exp(0.37j))
        est = dome_injectivity_radius(hull, face, p)
        assert est.exact and est.frontier == 0
        assert 0.0 < math.pi / math.sinh(s / 2.0) - est.value < 0.1 / k

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(4, 128), seed=st.integers(0, 2**32 - 1))
    def test_equals_depth_12_where_that_is_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        hull = build_hull(IdealConfiguration(_retract_config("sphere", n, rng)))
        for x in _unit_vectors(rng, 4):
            res = retract(hull, sphere_to_boundary(x))
            if res.carrier[0] != "face":
                continue
            capped = dome_injectivity_radius(hull, res.carrier[1], res.point, depth=12)
            full = dome_injectivity_radius(hull, res.carrier[1], res.point)
            assert full.exact
            if capped.exact:
                assert full == capped


def _clustered(seed, query):
    """16 points, 3 to 15 of them within a cluster of scale 1e-9 to 1e-3,
    and the query-th of 30 points drawn about the cluster."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-9, -3)
    center = complex(*rng.normal(0, 3, 2))
    k = int(rng.integers(3, 16))
    cluster = center + scale * (rng.normal(0, 1, k) + 1j * rng.normal(0, 1, k))
    spread = rng.normal(0, 1, 16 - k) + 1j * rng.normal(0, 1, 16 - k)
    zs = [center + scale * complex(*rng.normal(0, 1.5, 2)) for _ in range(30)]
    return list(cluster) + list(spread), zs[query]


class TestChartTolerance:
    """A point is on a face when its distance asinh(|y| / t) from the face's
    plane in the face's chart is within 1e-6; |y| alone grows with the chart."""

    @pytest.mark.parametrize("seed, query", [(64, 9), (318, 20), (557, 11)])
    def test_faces_of_an_edge_carrier_agree(self, seed, query):
        points, z = _clustered(seed, query)
        hull = build_hull(IdealConfiguration(points))
        res = retract(hull, z)
        assert res.carrier[0] == "edge"
        faces = hull.edges[res.carrier[1]].faces
        charted = [poincare_extension(hull.atlas.chart(f), res.point) for f in faces]
        assert max(abs(q.y) for q in charted) > 1e-6  # an absolute test rejects it
        a, b = (dome_injectivity_radius(hull, f, res.point) for f in faces)
        assert a.exact and b.exact
        assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_off_face_point_raises(self):
        hull = build_hull(regular_ideal_tetrahedron())
        chart = hull.atlas.chart(0)
        q = poincare_extension(chart, face_point(hull, 0))
        for d, on_face in ((1e-8, True), (1e-5, False)):
            p = poincare_extension(chart.inverse(), PointH3(q.x, q.t * math.sinh(d), q.t))
            if on_face:
                assert hull.atlas.chart_point(0, p) == pytest.approx(complex(q.x, q.t))
            else:
                with pytest.raises(DevelopmentFailed, match="not on face 0"):
                    hull.atlas.chart_point(0, p)

    def test_reversed_gluing_is_development_failed(self):
        # a face on three cluster points has rounded chart images, and the
        # gluing out of it a determinant < 0: an error, not a sqrt traceback
        points, z = _clustered(748, 18)
        hull = build_hull(IdealConfiguration(points))
        face, p = _start(hull, z)
        with pytest.raises(DevelopmentFailed, match="gluing across edge"):
            dome_injectivity_radius(hull, face, p)


class TestClusterScan:
    """Retraction, then the injectivity radius, on every seed 0-299 of
    `_clustered` at queries 0, 6, ..., 24: each failure is a DomekitError."""

    def test_every_failure_is_a_domekit_error(self):
        failures = {}
        for seed in range(300):
            for query in range(0, 30, 6):
                points, z = _clustered(seed, query)
                try:
                    hull = build_hull(IdealConfiguration(points))
                    dome_injectivity_radius(hull, *_start(hull, z))
                except DomekitError as e:
                    failures[seed, query] = e
        # these reach a face whose rounded plane, or its image under the
        # query's map, misses the sphere
        for key in [(44, 0), (152, 6), (172, 12), (185, 6), (273, 12)]:
            assert isinstance(failures[key], NumericallyCoincident)
            assert "no real locus" in str(failures[key])
        assert str(failures[44, 0]).startswith("face 0: ")


class TestDistance:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(-10.0, 10.0), y=st.floats(1e-3, 10.0),
           theta=st.floats(0.0, 2.0 * math.pi))
    def test_close_pairs_against_mpmath(self, x, y, theta):
        mpmath = pytest.importorskip("mpmath")
        w1 = complex(x, y)
        w2 = w1 + 1e-8 * y * cmath.exp(1j * theta)
        with mpmath.workdps(50):
            u = (mpmath.mpf(w1.real) - w2.real) ** 2 + (mpmath.mpf(w1.imag) - w2.imag) ** 2
            want = mpmath.acosh(1 + u / (2 * mpmath.mpf(w1.imag) * w2.imag))
            assert abs(_dist_uhp(w1, w2) - want) <= 1e-14 * want


class TestAtlasLifetime:
    def test_atlas_built_once_per_hull(self, monkeypatch):
        built = []
        init = dome.SurfaceAtlas.__init__
        monkeypatch.setattr(dome.SurfaceAtlas, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        hull = build_hull(regular_ideal_tetrahedron())
        p = face_point(hull, 0)
        for _ in range(2):
            dome_injectivity_radius(hull, 0, p, depth=6)
            trace_surface_arc(hull, 0, p, 0.3, 2.0)
        assert len(built) == 1

    def test_hull_freed_without_cycle_collection(self):
        hull = build_hull(regular_ideal_tetrahedron())
        p = face_point(hull, 0)
        dome_injectivity_radius(hull, 0, p, depth=6)
        trace_surface_arc(hull, 0, p, 0.3, 2.0)
        atlas = hull.atlas
        ref = weakref.ref(hull)
        gc.disable()
        try:
            del hull
            freed = ref() is None
        finally:
            gc.enable()
        assert freed
        assert atlas.chart(0)  # the atlas outlives the hull it was built from


class TestExports:
    def test_json_shape(self):
        hull = build_hull(IdealConfiguration([0, 1, INF, 0.8j]))
        data = hull_to_json(hull)
        assert data["n_points"] == 4
        assert len(data["faces"]) == 4 and len(data["edges"]) == 6
        assert data["euler_characteristic"] == 2

    def test_obj_mesh(self):
        hull = build_hull(regular_ideal_tetrahedron())
        obj = export_mesh(hull)
        lines = obj.strip().splitlines()
        n_v = sum(1 for l in lines if l.startswith("v "))
        n_f = sum(1 for l in lines if l.startswith("f "))
        assert n_v == 4 * 4 and n_f == 4 * 3
        for l in lines:
            if l.startswith("v "):
                x = np.array([float(t) for t in l.split()[1:]])
                assert np.linalg.norm(x) < 1.0
