import cmath
import hashlib
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from domekit import laminations
from domekit.errors import NonpositiveInput, NotTransverse, OutOfDomain, UnknownGap
from domekit.hyperbolic import (
    GeodesicH2,
    PointH2,
    dist_h2,
    dist_h3,
    disk_to_halfspace,
    foot_on_geodesic,
    geodesic_polar,
    poincare_extension,
    side_of,
)
from domekit.laminations import (
    ON_LEAF_TOL,
    FiniteLamination,
    GeodesicArc,
    random_lamination,
    scale,
    transverse_measure,
)
from domekit.mobius import MobiusMap
from domekit.pleating import (
    CircleMap,
    GapComplex,
    T0Region,
    complex_earthquake,
    earthquake,
    embedding_check,
    in_T0,
    pleat,
    shear_reach,
)

from _oracles import dihedral_angle, embedding_check_oracle
from test_laminations import (
    cusp_lamination,
    fan_lamination,
    matching_lamination,
    turned_to_zero,
)


def ratio_tolerance(plane, radius: float, least: float) -> float:
    """Relative distance allowed between `embedding_check`'s ratios and the
    pair-by-pair oracle's: 1e-14 (S^2 e^radius / least + least^-2).

    numpy's complex products, quotients, abs and arccosh round differently
    from Python's complex arithmetic and math in the last bits.  That moves
    an image point by about 1e-16 S^2 e^radius, S the largest gap-map
    coefficient, and acosh(1 + u) turns a last-bit change of u into a
    1e-16 / d^2 relative change of a short distance d; ``least`` is the
    least source distance of a compared pair.
    """
    size = max(abs(c) for m in plane.gap_maps for c in (m.a, m.b, m.c, m.d))
    return 1e-14 * (size ** 2 * math.exp(radius) / least + least ** -2)


def disk_points(rng: np.random.Generator, n: int, rmax: float) -> np.ndarray:
    """n points uniform by Euclidean area in the disk |z| < rmax."""
    r = rmax * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * math.pi * rng.uniform(size=n))


@st.composite
def laminations_upto_64(draw):
    """Empty, nested (matching, cusp), ideal-polygon (fan) and
    turned-to-angle-0 laminations of up to 64 leaves."""
    kind = draw(st.sampled_from(["empty", "matching", "random", "cusp", "fan", "zero"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "empty":
        return FiniteLamination([], [])
    if kind == "matching":
        return matching_lamination(rng, draw(st.integers(1, 64)))
    if kind == "random":
        return random_lamination(rng, draw(st.integers(1, 12)))
    if kind == "cusp":
        return cusp_lamination(draw(st.integers(1, 16)),
                               draw(st.sampled_from([0.01, 0.1, 1.0])), seed)
    spokes = draw(st.integers(1, 32))
    fan = fan_lamination(rng, spokes, draw(st.integers(0, spokes - 1)))
    return turned_to_zero(fan) if kind == "zero" else fan


@st.composite
def pleated_planes(draw):
    """`pleat` or a complex earthquake's plane, from the default or a drawn
    base gap."""
    lam = draw(laminations_upto_64())
    base = draw(st.one_of(st.none(), st.integers(0, len(lam))))
    # complex_earthquake can raise DegenerateMobius on leaves ending at
    # angle 0, a separate defect: the earthquake pushes that endpoint to
    # ~6e-17 rad, and the bend about its Cayley image ~3e16 fails
    # MobiusMap's determinant test
    if draw(st.booleans()) or any(g.a.angle == 0.0 for g in lam.leaves):
        return pleat(lam, base=base)
    t = complex(draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6)))
    return complex_earthquake(lam, t, base=base).plane


def exterior_angle_at_leaf(plane, leaf_idx: int) -> float:
    """Independent dihedral oracle: tangent vectors at a point of the bent edge."""
    lam = plane.lamination
    g = lam.leaves[leaf_idx]
    parent, child = plane.complex_.tree_paths(plane.base_gap)[1][leaf_idx]
    w_par = plane.gap_maps[parent]
    w_chi = plane.gap_maps[child]
    cay = MobiusMap.cayley_disk_to_uhp()
    edge_a = w_par.compose(cay)(g.a.z)
    edge_b = w_par.compose(cay)(g.b.z)
    zf = foot_on_geodesic(plane.complex_.gaps[parent].sample, geodesic_polar(g))
    foot3 = poincare_extension(w_par, disk_to_halfspace(zf))
    q1 = poincare_extension(
        w_par, disk_to_halfspace(plane.complex_.gaps[parent].sample)
    )
    q2 = poincare_extension(
        w_chi, disk_to_halfspace(plane.complex_.gaps[child].sample)
    )
    return math.pi - dihedral_angle(edge_a, edge_b, foot3, q1, q2)


class TestGapComplex:
    def test_one_nesting_and_gap_tree_per_lamination(self, monkeypatch):
        # the loader, roundness, pleat, earthquake and complex_earthquake
        # share the nesting and the gap tree of each lamination they meet
        built = {laminations.Nesting: [], GapComplex: []}
        for cls, log in built.items():
            def counted(self, source, _init=cls.__init__, _log=log):
                _log.append(source)
                _init(self, source)
            monkeypatch.setattr(cls, "__init__", counted)
        doc = random_lamination(np.random.default_rng(8), 6).to_json()
        lam = FiniteLamination.from_json(doc)
        laminations.roundness(lam)
        plane, quake = pleat(lam), earthquake(lam)
        ce = complex_earthquake(lam, 0.4 + 0.3j)
        pushed = ce.plane.lamination
        assert pushed is not lam
        assert [id(x) for x in built[laminations.Nesting]] == [id(lam.leaves),
                                                               id(pushed.leaves)]
        assert [id(x) for x in built[GapComplex]] == [id(lam), id(pushed)]
        assert plane.complex_ is quake.complex_ is ce.quake.complex_ is lam.gaps

    def test_empty(self):
        gc = FiniteLamination([], []).gaps
        assert len(gc) == 1 and gc.gap_of(0.3 + 0.1j) == 0

    def test_counts(self, rng):
        for n in (1, 2, 5, 9):
            lam = random_lamination(rng, n)
            assert len(lam.gaps) == n + 1

    def test_unknown_gap(self, rng):
        lam = random_lamination(rng, 2)
        gc = lam.gaps
        with pytest.raises(UnknownGap):
            gc.resolve(99)

    def test_tree_paths_cross_separating_leaves(self, rng):
        lam = random_lamination(rng, 6)
        gc = lam.gaps
        base = gc.gap_of(0j)
        paths, crossing = gc.tree_paths(base)
        for g, path in enumerate(paths):
            assert len(set(path)) == len(path)
            for leaf_idx in path:
                par, chi = crossing[leaf_idx]
                assert leaf_idx in paths[chi]


    def test_ideal_triangle_gap(self):
        # the middle gap touches the circle only at three ideal points
        lam = FiniteLamination([GeodesicH2.from_angles(a, b)
                                for a, b in [(0.0, 2.0), (2.0, 4.0), (0.0, 4.0)]],
                               [0.3, 0.4, 0.5])
        gc = lam.gaps
        assert len(gc) == 4
        tri = next(g for g, gap in enumerate(gc.gaps) if not gap.arcs)
        assert gc.gap_of(gc.gaps[tri].sample) == tri == gc.gap_of(0j)
        paths, _ = gc.tree_paths(tri)
        assert sorted(len(p) for p in paths) == [0, 1, 1, 1]
        assert len(pleat(lam).gap_maps) == 4


    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(lam=laminations_upto_64(), seed=st.integers(0, 2**32 - 1))
    @example(lam=matching_lamination(np.random.default_rng(64), 64), seed=1)
    def test_batched_lookup_equals_scalar(self, lam, seed):
        # every gap's sample, points on both sides of each leaf within a few
        # ON_LEAF_TOL of it, and random points: more than one block of 2^16
        # (point, leaf) entries when there are many leaves
        rng = np.random.default_rng(seed)
        gc = lam.gaps
        zs = [gap.sample for gap in gc.gaps]
        near = []  # (leaf, point) within a few ON_LEAF_TOL of the leaf
        for k, pol in enumerate(gc.polars):
            for c in disk_points(rng, 3, 0.9):
                foot = foot_on_geodesic(complex(c), pol)
                # side-value gradient at the foot, numerically
                h = 1e-7
                grad = complex(side_of(foot + h, pol) - side_of(foot - h, pol),
                               side_of(foot + 1j * h, pol)
                               - side_of(foot - 1j * h, pol)) / (2 * h)
                for s in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0):
                    near.append((k, foot + s * ON_LEAF_TOL * grad / abs(grad) ** 2))
        zs += [z for _, z in near]
        zs += list(disk_points(rng, 1200, 0.99))
        batched = gc.gaps_of(np.array(zs))
        assert batched.tolist() == [gc.gap_of(z) for z in zs]
        # a point is on the side of leaf k holding its arc from a to b when
        # its side value is below -ON_LEAF_TOL, and on the other side else;
        # side values carry rounding errors that grow toward the circle
        # (2e-13 at |z| = 0.97), so points that close to -ON_LEAF_TOL may
        # go either way
        for (k, z), got in zip(near, batched[len(gc.gaps):]):
            s = float(side_of(z, gc.polars[k]))
            assert abs(s) < 1e-7
            if abs(abs(s) - ON_LEAF_TOL) > 0.1 * ON_LEAF_TOL:
                arc = gc.arc_side(k)
                other = gc.inner[k] + gc.outer[k] - arc
                assert got == (arc if s < -ON_LEAF_TOL else other)
        # transverse_measure reads the lookup's side values, bit for bit: the
        # zero-length arc at a near point is refused exactly when one of them
        # is within ON_LEAF_TOL of zero
        sides = side_of(np.array([z for _, z in near])[:, None], gc.polars)
        for (_, z), row in zip(near, sides):
            try:
                transverse_measure(lam, GeodesicArc(PointH2(z), PointH2(z)))
                refused = False
            except NotTransverse:
                refused = True
            assert refused == bool((np.abs(row) < ON_LEAF_TOL).any())

    def test_endpoint_shared_across_angle_zero(self):
        # 2*pi - 1e-13 and 0 are one ideal point, so leaf 1 bounds the arc
        # (0, 1), not the arc from its first endpoint to its second
        lam = FiniteLamination([GeodesicH2.from_angles(0.0, 2.0),
                                GeodesicH2.from_angles(1.0, 2 * math.pi - 1e-13)],
                               [0.5, 0.7])
        gc = lam.gaps
        assert len(gc) == 3
        for angle in (0.5, 1.5, 4.0):
            arcs = gc.gaps[gc.gap_of(0.9 * cmath.exp(1j * angle))].arcs
            assert any(a < angle < b for a, b in arcs)
        assert len(earthquake(lam).gap_maps) == 3


def gap_map_digest(lam: FiniteLamination, base) -> str:
    """sha256 of every gap-map coefficient of pleat, earthquake and
    complex_earthquake(0.4+0.3i), as float.hex."""
    ce = complex_earthquake(lam, 0.4 + 0.3j, base=base)
    h = hashlib.sha256()
    for surface in (pleat(lam, base=base), earthquake(lam, base=base), ce.quake, ce.plane):
        for m in surface.gap_maps:
            for c in (m.a, m.b, m.c, m.d):
                h.update(f"{c.real.hex()},{c.imag.hex()};".encode())
    return h.hexdigest()


class TestGapMapsPinned:
    # digests of the gap maps as built before the gap tree was read from the
    # leaf nesting; composing each map from its neighbour's must keep them
    CASES = [
        ("random", 1, 5, None,
         "16d81a991e99a2d4cecb053cc16f130138c5931379bc4be072cd636fbac8f666"),
        ("random", 2, 9, 4,
         "5b6f7d93a4d892f74edc63f3bffef5dd0f3612a395cd67c74430c13f6857cb70"),
        ("random", 3, 7, PointH2(0.3 - 0.4j),
         "e6f646cd2464c66ad04f3fa2832acefbe5a7ffad5ab15b9a71fe8ca574399120"),
        ("matching", 4, 16, None,
         "fa8798fb71bdcad9145f84414b246f15ece3aab62f8d1f59dacbe58dbcd8c43f"),
        ("matching", 5, 32, 7,
         "3399c3975ae3ed60945958383a6af84dff06600bd2dbcf2f20dad8bdf10f5c32"),
        ("matching", 6, 64, PointH2(-0.2 + 0.5j),
         "c8b23fe996b3af13a4967b443bd5fe4bcd579286493c10640759e5019f97ecc7"),
        ("zero", 7, 8, None,
         "e82b7227774063b9853b0b4fb4727f60a3bc1b4dc2c8c700242e573a62f1f2f9"),
        ("zero", 8, 12, 3,
         "f8d4876c308b1b35baa2df6399849cbaa1c766af85dd32e35972722f7031402b"),
        ("zero", 9, 6, PointH2(0.1j),
         "795883715bddc372035e57ccce0aabb89664d4b3566b5ca16272b7d0478330a7"),
    ]

    @pytest.mark.parametrize("kind, seed, n, base, digest", CASES)
    def test_bit_identical(self, kind, seed, n, base, digest):
        rng = np.random.default_rng(seed)
        if kind == "random":
            lam = random_lamination(rng, n)
        else:
            lam = matching_lamination(rng, n)
            if kind == "zero":
                lam = turned_to_zero(lam)
                assert lam.leaves[0].a.angle == 0.0
        assert gap_map_digest(lam, base) == digest


class TestPleat:
    def test_empty_is_flat_embedding(self):
        plane = pleat(FiniteLamination([], []))
        for z in (0j, 0.3 + 0.1j, -0.7j):
            assert dist_h3(plane.apply(PointH2(z)), disk_to_halfspace(z)) < 1e-12

    def test_single_leaf_dihedral_equals_weight(self, rng):
        for _ in range(25):
            t = np.sort(rng.uniform(0, 2 * math.pi, 2))
            if t[1] - t[0] < 0.3 or t[1] - t[0] > 2 * math.pi - 0.3:
                continue
            w = rng.uniform(0.05, math.pi - 0.05)
            lam = FiniteLamination([GeodesicH2.from_angles(*t)], [w])
            plane = pleat(lam)
            assert exterior_angle_at_leaf(plane, 0) == pytest.approx(w, abs=1e-9)

    def test_two_leaf_composition(self):
        lam = FiniteLamination(
            [GeodesicH2.from_angles(0.2, 1.2), GeodesicH2.from_angles(0.4, 1.0)],
            [0.8, 0.5],
        )
        base = PointH2(-0.5)
        plane = pleat(lam, base=base)
        # both exterior angles match their weights
        assert exterior_angle_at_leaf(plane, 0) == pytest.approx(0.8, abs=1e-9)
        assert exterior_angle_at_leaf(plane, 1) == pytest.approx(0.5, abs=1e-9)
        # middle gap moved by the first rotation only: relative map elliptic
        # with angle = first weight
        paths, _ = plane.complex_.tree_paths(plane.base_gap)
        mid = next(g for g, p in enumerate(paths) if len(p) == 1)
        far = next(g for g, p in enumerate(paths) if len(p) == 2)
        rel_mid = plane.gap_maps[mid].compose(plane.gap_maps[plane.base_gap].inverse())
        assert abs(abs(rel_mid.trace()) - 2 * math.cos(0.8 / 2)) < 1e-12
        rel_far = plane.gap_maps[far].compose(plane.gap_maps[mid].inverse())
        assert abs(abs(rel_far.trace()) - 2 * math.cos(0.5 / 2)) < 1e-12

    def test_short_leaf(self):
        # a leaf 5.4e-6 rad long, its inner gap too thin for the sample walk
        lam = FiniteLamination.from_json({
            "leaves": [[0.2615783073418358, 3.9115665392460244],
                       [5.77457104549709, 5.774576430010188]],
            "weights": [0.5, 0.5]})
        cay = MobiusMap.cayley_disk_to_uhp()
        for surface, trace, to_plane in ((pleat(lam), 2 * math.cos(0.25), cay),
                                         (earthquake(lam), 2 * math.cosh(0.25),
                                          MobiusMap.identity())):
            _, crossing = surface.complex_.tree_paths(surface.base_gap)
            for i, g in enumerate(lam.leaves):
                par, chi = crossing[i]
                w_par, w_chi = surface.gap_maps[par], surface.gap_maps[chi]
                rel = w_par.inverse().compose(w_chi)
                # the short leaf's map has coefficients ~1e5, and its trace
                # cancels them: allow a few ulps of their square
                size = max(abs(c) for m in (w_par, w_chi) for c in m.matrix().ravel())
                tol = 1e-15 * size * size
                assert abs(abs(rel.trace()) - trace) < tol
                for p in (to_plane(g.a.z), to_plane(g.b.z)):
                    assert abs(rel(p) - p) < tol * max(1.0, abs(p)) ** 2

    def test_gap_relative_rotation_angle(self, rng):
        lam = random_lamination(rng, 5)
        plane = pleat(lam)
        _, crossing = plane.complex_.tree_paths(plane.base_gap)
        for i, w in enumerate(lam.weights):
            par, chi = crossing[i]
            rel = plane.gap_maps[chi].compose(plane.gap_maps[par].inverse())
            assert abs(abs(rel.trace()) - 2 * math.cos(w / 2)) < 1e-12

    def test_isometric_on_gaps(self, rng):
        lam = random_lamination(rng, 3)
        plane = pleat(lam)
        gc = plane.complex_
        for gap in gc.gaps:
            base = gap.sample
            for _ in range(30):
                z = base + 0.03 * (rng.normal() + 1j * rng.normal())
                if abs(z) > 0.995 or gc.gap_of(z) != gc.gap_of(base):
                    continue
                d2 = dist_h2(base, z)
                d3 = dist_h3(plane.apply(PointH2(base)), plane.apply(PointH2(z)))
                assert abs(d3 - d2) < 1e-12

    def test_never_expands(self, rng):
        lam = scale(random_lamination(rng, 4), 0.1)
        plane = pleat(lam)
        for _ in range(500):
            z1 = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
            z2 = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
            d2 = dist_h2(z1, z2)
            if d2 < 1e-6:
                continue
            d3 = dist_h3(plane.apply(PointH2(z1)), plane.apply(PointH2(z2)))
            assert d3 <= d2 + 1e-12


class TestEarthquake:
    def test_empty_identity(self):
        q = earthquake(FiniteLamination([], []))
        z = 0.4 - 0.2j
        assert abs(q.apply(PointH2(z)).z - z) < 1e-15

    def test_single_leaf_translation_length(self, rng):
        for _ in range(20):
            t = np.sort(rng.uniform(0, 2 * math.pi, 2))
            if t[1] - t[0] < 0.3 or t[1] - t[0] > 2 * math.pi - 0.3:
                continue
            s = rng.uniform(0.1, 2.0)
            lam = FiniteLamination([GeodesicH2.from_angles(*t)], [s])
            q = earthquake(lam)
            far = 1 - q.base_gap
            rel = q.gap_maps[far].compose(q.gap_maps[q.base_gap].inverse())
            assert abs(abs(rel.trace()) - 2 * math.cosh(s / 2)) < 1e-12
            # fixed points of the relative map are the leaf endpoints
            g = lam.leaves[0]
            for p in (g.a.z, g.b.z):
                assert abs(rel(p) - p) < 1e-9

    def test_doubling_weights_squares_relative_maps(self, rng):
        # per-leaf shear factor in flat coordinates: W_parent^-1 W_child;
        # doubling every weight squares each factor
        lam = random_lamination(rng, 4)
        q1 = earthquake(lam, base=0)
        q2 = earthquake(scale(lam, 2.0), base=0)
        _, crossing = q1.complex_.tree_paths(q1.base_gap)
        for i in range(len(lam)):
            par, chi = crossing[i]
            t1 = q1.gap_maps[par].inverse().compose(q1.gap_maps[chi])
            t2 = q2.gap_maps[par].inverse().compose(q2.gap_maps[chi])
            sq = t1.compose(t1)
            assert sq.compose(t2.inverse()).is_identity(tol=1e-9)

    def test_boundary_map_monotone(self, rng):
        lam = random_lamination(rng, 5)
        bm = earthquake(lam).boundary_map()
        angles = rng.uniform(0, 2 * math.pi, 10**4)
        imgs = np.array([bm(a) for a in angles])
        order_in = np.argsort(angles)
        # cyclic order preserved: image sequence has exactly one wraparound
        seq = imgs[order_in]
        drops = np.sum(np.diff(seq) < 0)
        assert drops <= 1

    def test_boundary_continuity_at_endpoints(self, rng):
        lam = random_lamination(rng, 4)
        bm = earthquake(lam).boundary_map()
        for g in lam.leaves:
            for t in g.angles():
                lo = bm(t - 1e-12)
                hi = bm(t + 1e-12)
                gap = abs((hi - lo + math.pi) % (2 * math.pi) - math.pi)
                assert gap < 1e-9

    def test_disk_preserved(self, rng):
        lam = random_lamination(rng, 3)
        q = earthquake(lam)
        for m in q.gap_maps:
            for ang in rng.uniform(0, 2 * math.pi, 50):
                assert abs(abs(m(cmath.exp(1j * ang))) - 1.0) < 1e-12


class TestComplexEarthquake:
    def test_zero_parameter_is_flat(self, rng):
        lam = random_lamination(rng, 3)
        ce = complex_earthquake(lam, 0j)
        for _ in range(50):
            z = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
            assert dist_h3(ce.apply(PointH2(z)), disk_to_halfspace(z)) < 1e-12

    def test_pure_bend_equals_pleat(self, rng):
        lam = random_lamination(rng, 3)
        y = 0.45
        ce = complex_earthquake(lam, complex(0, y))
        pl = pleat(scale(lam, y))
        for _ in range(1000):
            z = 0.85 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
            assert dist_h3(ce.apply(PointH2(z)), pl.apply(PointH2(z))) < 1e-12

    def test_real_parameter_is_plane_earthquake(self, rng):
        lam = random_lamination(rng, 3)
        x = 0.6
        ce = complex_earthquake(lam, complex(x, 0))
        qk = earthquake(scale(lam, x))
        for _ in range(200):
            z = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
            img = ce.apply(PointH2(z))
            assert abs(img.y) < 1e-12
            want = disk_to_halfspace(qk.apply(PointH2(z)).z)
            assert dist_h3(img, want) < 1e-10

    def test_boundary_trace_matches_pleat(self, rng):
        lam = random_lamination(rng, 2)
        for y in (0.2, 0.5, 0.9):
            ce = complex_earthquake(lam, complex(0, y))
            pl = pleat(scale(lam, y))
            for ang in rng.uniform(0, 2 * math.pi, 60):
                a = ce.boundary(float(ang))
                b = pl.boundary(float(ang))
                from domekit.mobius import chordal_distance

                assert chordal_distance(a, b) < 1e-9


class TestCircleMapBuiltOnce:
    def test_boundary_trace_equals_fresh_circle_map(self):
        # the old path: a CircleMap built afresh on every call
        cay = MobiusMap.cayley_disk_to_uhp()

        def fresh_plane(plane, angle):
            maps = [m.compose(cay) for m in plane.gap_maps]
            return CircleMap.from_gap_maps(plane.complex_, maps).apply_complex(angle)

        def fresh_quake(quake, angle):
            return CircleMap.from_gap_maps(quake.complex_, quake.gap_maps)(angle)

        def bits(z):
            return (z.real.hex(), z.imag.hex())

        lam = matching_lamination(np.random.default_rng(11), 16)
        plane = pleat(lam, base=3)
        ce = complex_earthquake(lam, 0.4 + 0.3j)
        angles = np.linspace(0.0, 2 * math.pi, 256, endpoint=False).tolist()
        for a in angles:
            assert bits(plane.boundary(a)) == bits(fresh_plane(plane, a))
            want = fresh_plane(ce.plane, fresh_quake(ce.quake, a))
            assert bits(ce.boundary(a)) == bits(want)
        assert plane.boundary_map() is plane.boundary_map()
        assert ce.quake.boundary_map() is ce.quake.boundary_map()

    def test_maps_are_frozen(self):
        lam = random_lamination(np.random.default_rng(2), 3)
        ce = complex_earthquake(lam, 0.2 + 0.1j)
        for surface in (pleat(lam), earthquake(lam), ce.quake, ce.plane):
            with pytest.raises(FrozenInstanceError):
                surface.gap_maps = []
        with pytest.raises(FrozenInstanceError):
            ce.z = 1j


class TestT0:
    def test_origin_inside(self):
        assert in_T0(0)

    def test_shear_reach_at_origin(self):
        assert shear_reach(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_pure_bend_values(self):
        assert in_T0(0.3j)
        assert not in_T0(0.8j, c2=0.73)
        assert in_T0(0.8j, c2=0.948)

    def test_symmetry(self, rng):
        region = T0Region()
        for _ in range(100):
            t = complex(rng.normal(), rng.normal())
            assert region.contains(t) == region.contains(t.conjugate())
            assert region.contains(t) == region.contains(-t)

    def test_shrinks_with_shear(self):
        # more real shear means less bending allowed
        y = 0.4
        assert in_T0(complex(0.0, y))
        assert not in_T0(complex(3.0, y))


class TestEmbeddingCheck:
    def test_flat_plane_ratio_one(self):
        rep = embedding_check(pleat(FiniteLamination([], [])), samples=300, seed=1)
        assert rep.min_ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_near_fold_small_but_positive(self):
        lam = FiniteLamination([GeodesicH2.from_angles(0.5, 2.5)], [math.pi - 0.01])
        rep = embedding_check(pleat(lam), samples=3000, seed=2)
        assert 0 < rep.min_ratio < 0.05
        assert rep.near_collisions == 0

    def test_small_roundness_no_collisions(self, rng):
        lam = random_lamination(rng, 4)
        from domekit.laminations import roundness

        lam = scale(lam, 0.5 / roundness(lam))
        rep = embedding_check(pleat(lam), samples=10**4, seed=3)
        assert rep.near_collisions == 0
        assert rep.min_ratio > 0.05


class TestEmbeddingMatchesOracle:
    def _check(self, plane, samples, seed, radius):
        got = embedding_check(plane, samples=samples, seed=seed, radius=radius)
        want, least = embedding_check_oracle(plane, samples=samples, seed=seed,
                                             radius=radius)
        assert (got.samples, got.near_collisions, got.skipped) == (
            want.samples, want.near_collisions, want.skipped)
        if math.isinf(want.min_ratio):
            assert (got.min_ratio, got.max_ratio) == (math.inf, 0.0)
            return got
        tol = ratio_tolerance(plane, radius, least)
        for g, w in ((got.min_ratio, want.min_ratio), (got.max_ratio, want.max_ratio)):
            assert abs(g - w) <= tol * w, (g, w, least)
        return got

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(plane=pleated_planes(), seed=st.integers(0, 2**32 - 1),
           radius=st.sampled_from([1e-6, 1e-3, 0.5, 3.0, 8.0]))
    @example(plane=complex_earthquake(
        matching_lamination(np.random.default_rng(64), 64), 0.4 + 0.3j).plane,
        seed=7, radius=3.0)
    def test_equals_pair_loop(self, plane, seed, radius):
        self._check(plane, 200, seed, radius)

    def test_skipped_pairs_counted_alike(self):
        # at radius 1e-6 some pairs fall under the 1e-6 cut and some not
        rep = self._check(pleat(FiniteLamination([], [])), 500, 4, 1e-6)
        assert 0 < rep.skipped < 500

    def test_full_fold(self):
        lam = FiniteLamination([GeodesicH2.from_angles(0.5, 2.5)], [math.pi])
        assert self._check(pleat(lam), 2000, 5, 3.0).min_ratio < 0.05


class TestEmbeddingInputs:
    plane = pleat(FiniteLamination([GeodesicH2.from_angles(0.5, 2.5)], [1.0]))

    @pytest.mark.parametrize("samples", [0, -1])
    def test_needs_a_sample(self, samples):
        with pytest.raises(NonpositiveInput, match="samples"):
            embedding_check(self.plane, samples=samples)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, 40.0, 22.0, 1e3])
    def test_radius_in_the_disk(self, radius):
        # tanh(22 / 2) is already within BOUNDARY_TOL of 1
        with pytest.raises(OutOfDomain, match=f"radius = {radius}"):
            embedding_check(self.plane, samples=10, radius=radius)

    def test_largest_radius_accepted(self):
        rep = embedding_check(self.plane, samples=10, radius=21.0)
        assert 0 < rep.min_ratio <= rep.max_ratio


class TestGlobalConvexity:
    def test_branched_pleats_stay_on_one_side_of_every_face(self, rng):
        # every gap image plane supports the whole surface: folds across
        # different branches of the gap tree all tip the same way
        from domekit.mobius import CircleOrLine

        for _ in range(5):
            lam = random_lamination(rng, 6)
            lam = scale(lam, 0.6 / max(lam.weights))
            plane = pleat(lam)
            pts = []
            for gid, gap in enumerate(plane.complex_.gaps):
                for _ in range(40):
                    z = gap.sample + 0.02 * (rng.normal() + 1j * rng.normal())
                    if abs(z) > 0.995 or plane.complex_.gap_of(z) != gid:
                        continue
                    p = plane.apply(PointH2(z))
                    pts.append((p.z, p.t))
            for m in plane.gap_maps:
                circ = CircleOrLine.real_line().mobius_image(m)
                vals = []
                for z, t in pts:
                    if circ.is_line:
                        vals.append(circ.evaluate(z))
                    else:
                        c, r = circ.center_radius()
                        vals.append(abs(z - c) ** 2 + t * t - r * r)
                vals = np.array(vals)
                assert vals.max() <= 1e-9 or vals.min() >= -1e-9
