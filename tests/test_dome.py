import cmath
import gc
import math
import random
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domekit import dome
from domekit.bounds import arc_for_radius
from domekit.dome import (
    IdealConfiguration,
    _dist_uhp,
    _exterior_angle,
    _klein_polars,
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
from domekit.mobius import INF, MobiusMap, chordal_distance

from _oracles import (
    _RotationAtlas,
    dihedral_angle,
    face_cycles_oracle,
    injectivity_radius_oracle,
    retract_oracle,
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
        assert bending_lamination(hull).interior == []

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
        tris = np.array([sorted(f.vertices) for f in hull.faces])
        normals = np.array([f.normal for f in hull.faces])
        cycles, unsure = _order_triangles(tris, hull.sphere, normals)
        assert unsure.any()
        for tri, cycle, redo, normal in zip(tris, cycles, unsure, normals):
            if not redo:
                assert cycle.tolist() == _order_cycle(tri.tolist(), hull.sphere[tri],
                                                      normal)


class TestBendingLamination:
    def test_regular_tetrahedron_symmetric(self):
        hull = build_hull(regular_ideal_tetrahedron())
        data = bending_lamination(hull)
        ws = data.weights()
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


def _retract_config(kind, n, rng):
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
    """The screened retraction equals the scalar loop over every face and
    edge exactly: point, carrier and Busemann value, or the same error."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["sphere", "sphere_inf", "concyclic", "annulus"]),
           n=st.integers(4, 512), seed=st.integers(0, 2**32 - 1),
           near=st.lists(st.integers(2, 15), min_size=3, max_size=3))
    @example(kind="sphere", n=512, seed=1, near=[4, 11, 13])
    @example(kind="sphere_inf", n=64, seed=2, near=[3, 8, 12])
    @example(kind="concyclic", n=24, seed=3, near=[2, 9, 14])
    @example(kind="annulus", n=32, seed=4, near=[5, 10, 12])
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

    def test_ideal_point_message(self):
        hull = build_hull(IdealConfiguration([0, 1, INF, 0.8j]))
        for i, z in enumerate(hull.config.points):
            with pytest.raises(PointNotInDomain,
                               match=rf"^z coincides with ideal point {i}$"):
                retract(hull, z)


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
    polars = _klein_polars(np.array([f.normal for f in hull.faces]),
                           np.array([f.offset for f in hull.faces]))
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
            s = MobiusMap.to_zero_inf(pa, pb)
            angle = _exterior_angle(polars[face], polars[other])
            # as cosines: the acos in `_exterior_angle` keeps only about
            # half the digits of angles near 0 and pi
            assert -math.cos(cmath.phase(s(pts[u]) / s(pts[v]))) == pytest.approx(
                math.cos(angle), abs=1e-10)


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
        assert atlas.charts  # the atlas outlives the hull it was built from


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
