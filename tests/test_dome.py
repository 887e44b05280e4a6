import cmath
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domekit.bounds import arc_for_radius
from domekit.dome import (
    IdealConfiguration,
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

from _oracles import dihedral_angle, retract_oracle


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
        vs = (
            np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                      for sz in (-1, 1)], float) / math.sqrt(3)
        )
        hull = build_hull(
            IdealConfiguration([sphere_to_boundary(v) for v in vs])
        )
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
            gap = retraction_certificate(hull, z, res, n_samples=200, seed=5)
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
