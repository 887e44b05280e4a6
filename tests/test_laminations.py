import cmath
import json
import math
import os
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from domekit.errors import (
    CrossingLeaves,
    InvalidInput,
    NonpositiveInput,
    NonpositiveScale,
    NonpositiveWeight,
    NotTransverse,
    TooManyLeaves,
)
from domekit.hyperbolic import GeodesicH2, PointH2
from domekit import laminations
from domekit.laminations import (
    FiniteLamination,
    GeodesicArc,
    Nesting,
    pushforward,
    random_lamination,
    roundness,
    roundness_brute_force,
    scale,
    transverse_measure,
    validate,
)
from domekit.mobius import random_disk_mobius
from domekit.pleating import earthquake

from _oracles import angles_interleave, arc_walk_crossing_count, roundness_oracle
from test_hyperbolic import leaf_from_uhp


def two_leaves_at_distance(d: float, w1: float, w2: float) -> FiniteLamination:
    """Leaves orthogonal to a common axis at perpendicular distance d."""
    return FiniteLamination(
        [leaf_from_uhp(-1.0, 1.0),
         leaf_from_uhp(-math.exp(d), math.exp(d))],
        [w1, w2],
    )


class TestValidate:
    def test_frozen_with_derived_structures_computed_once(self, rng):
        lam = random_lamination(rng, 5)
        for name, value in (("leaves", ()), ("weights", ()), ("polars", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(lam, name, value)
        assert isinstance(lam.leaves, tuple) and isinstance(lam.weights, tuple)
        assert validate(lam) is lam.nesting is lam.gaps.nesting
        assert lam.polars is lam.gaps.polars and not lam.polars.flags.writeable

    def test_empty_ok(self):
        validate(FiniteLamination([], []))

    def test_interleaved_rejected(self):
        lam = FiniteLamination(
            [GeodesicH2.from_angles(0.0, 2.0), GeodesicH2.from_angles(1.0, 3.0)],
            [1.0, 1.0],
        )
        with pytest.raises(CrossingLeaves) as err:
            validate(lam)
        assert (err.value.i, err.value.j) == (0, 1)

    def test_nonpositive_weight(self):
        lam = FiniteLamination([GeodesicH2.from_angles(0.0, 2.0)], [0.0])
        with pytest.raises(NonpositiveWeight):
            validate(lam)

    def test_shared_endpoint_allowed(self):
        lam = FiniteLamination(
            [GeodesicH2.from_angles(0.0, 2.0), GeodesicH2.from_angles(0.0, 4.0)],
            [1.0, 1.0],
        )
        validate(lam)

    def test_random_nested_leaves_against_interleave_oracle(self, rng):
        lam = random_lamination(rng, 50, min_gap=0.01)
        validate(lam)
        n = len(lam)
        for i in range(n):
            for j in range(i + 1, n):
                assert not angles_interleave(lam.leaves[i], lam.leaves[j])

    def test_leaf_cap(self):
        leaves = [GeodesicH2.from_angles(i * 0.01, 6.0 + i * 0.001) for i in range(65)]
        with pytest.raises(TooManyLeaves):
            FiniteLamination(leaves, [1.0] * 65)

    def test_first_crossing_pair_in_double_loop_order(self, rng):
        for _ in range(20):
            lam = FiniteLamination(
                [GeodesicH2.from_angles(*rng.uniform(0, 2 * math.pi, 2))
                 for _ in range(8)], [1.0] * 8)
            pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)
                     if angles_interleave(lam.leaves[i], lam.leaves[j])]
            if not pairs:
                continue
            with pytest.raises(CrossingLeaves) as err:
                validate(lam)
            assert (err.value.i, err.value.j) == pairs[0]

    def test_asymptotic_leaves_of_a_thin_cusp_do_not_cross(self):
        # one endpoint shared exactly, the other ends 0.024 and 4.5 rad away
        lam = FiniteLamination.from_json({
            "leaves": [[0.09019287570422038, 0.11374093045640561],
                       [0.09019287570422038, 4.604257452622092]],
            "weights": [1, 1]})
        assert validate(lam).parent.tolist() == [1, -1]

    def test_identical_leaves(self):
        lam = FiniteLamination(
            [GeodesicH2.from_angles(0.0, 2.0), GeodesicH2.from_angles(1.0, 1.5),
             GeodesicH2.from_angles(2.0, 0.0)], [1.0] * 3)
        with pytest.raises(InvalidInput, match="leaves 0 and 2 are identical"):
            validate(lam)
        with pytest.raises(ValueError):
            validate(lam)

    def test_endpoints_shared_across_angle_zero(self):
        # 2*pi - 1e-13 and 0 are one point: a fan from angle 0, not a crossing
        lam = FiniteLamination(
            [GeodesicH2.from_angles(0.0, 2.0),
             GeodesicH2.from_angles(1.0, 2 * math.pi - 1e-13)], [1.0, 1.0])
        nest = validate(lam)
        assert nest.parent.tolist() == [-1, 0]
        assert nest.flipped.tolist() == [False, True]
        with pytest.raises(InvalidInput, match="leaf 0 has coincident endpoints"):
            Nesting([GeodesicH2.from_angles(2 * math.pi - 1e-13, 1e-13)])

    def test_nesting_parents(self):
        # 0 holds 1 and 2, and 2 holds 3; 4 is outermost; 1 and 2 touch
        lam = FiniteLamination(
            [GeodesicH2.from_angles(a, b) for a, b in
             [(0.5, 3.0), (0.6, 1.2), (1.2, 2.9), (1.5, 2.0), (4.0, 5.0)]],
            [1.0] * 5)
        nest = validate(lam)
        assert nest.parent.tolist() == [-1, 0, 0, 2, -1]
        assert nest.depth.tolist() == [0, 1, 1, 2, 0]


class TestTransverseMeasure:
    def test_disjoint_arc(self):
        lam = FiniteLamination([GeodesicH2.from_angles(0.0, math.pi)], [2.0])
        arc = GeodesicArc(PointH2(0.3 + 0.4j), PointH2(0.1 + 0.5j))
        assert transverse_measure(lam, arc) == 0.0

    def test_single_crossing(self):
        lam = FiniteLamination([leaf_from_uhp(-1.0, 1.0)], [0.7])
        # the leaf separates 0.5i-ish region; cross it radially
        g = lam.leaves[0]
        arc = GeodesicArc(PointH2(0.5 * cmath.exp(1j * (g.a.angle + 0.3))),
                          PointH2(0.5 * cmath.exp(1j * (g.b.angle + 2.0))))
        got = transverse_measure(lam, arc)
        assert got in (0.0, 0.7)

    def test_endpoint_on_leaf_raises(self):
        lam = FiniteLamination([GeodesicH2.from_angles(0.0, math.pi)], [1.0])
        with pytest.raises(NotTransverse):
            transverse_measure(lam, GeodesicArc(PointH2(0j), PointH2(0.5j)))

    def test_matches_walk_oracle(self, rng):
        for _ in range(20):
            lam = random_lamination(rng, 10)
            p = 0.7 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
            q = 0.7 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 7))
            try:
                got = transverse_measure(lam, GeodesicArc(PointH2(p), PointH2(q)))
            except NotTransverse:
                continue
            want = arc_walk_crossing_count(lam, p, q)
            assert got == pytest.approx(want, abs=1e-12)


class TestRoundness:
    def test_single_leaf(self):
        lam = FiniteLamination([GeodesicH2.from_angles(0.5, 2.0)], [1.7])
        assert roundness(lam) == 1.7

    def test_two_leaves_far(self):
        assert roundness(two_leaves_at_distance(1.5, 2.0, 3.0)) == 3.0

    def test_two_leaves_close(self):
        assert roundness(two_leaves_at_distance(0.4, 2.0, 3.0)) == 5.0

    def test_distance_one_is_excluded(self):
        # strict inequality: chains need perpendicular distance < 1
        assert roundness(two_leaves_at_distance(1.0 + 1e-9, 2.0, 3.0)) == 3.0
        assert roundness(two_leaves_at_distance(1.0 - 1e-9, 2.0, 3.0)) == 5.0

    def test_asymptotic_leaves_co_crossable(self):
        lam = FiniteLamination(
            [GeodesicH2.from_angles(0.0, 2.0), GeodesicH2.from_angles(0.0, 4.0)],
            [1.0, 2.5],
        )
        assert roundness(lam) == 3.5

    def test_nested_chain(self):
        lam = FiniteLamination(
            [leaf_from_uhp(-math.exp(0.3 * k), math.exp(0.3 * k)) for k in range(4)],
            [1.0, 1.0, 1.0, 1.0],
        )
        # extremes at distance 0.9 < 1: all four leaves crossable
        assert roundness(lam) == 4.0

    def test_brute_force_never_exceeds_and_attains(self, rng):
        for _ in range(10):
            lam = random_lamination(rng, 5)
            exact = roundness(lam)
            brute = roundness_brute_force(lam, n_arcs=120000, seed=11)
            assert brute <= exact + 1e-12
            assert exact - brute <= 1e-6

    def test_scale_linearity(self, rng):
        lam = random_lamination(rng, 4)
        r = roundness(lam)
        assert roundness(scale(lam, 2.0)) == pytest.approx(2 * r, abs=1e-12)
        assert roundness(scale(lam, 1.0)).__eq__(r)

    def test_unit_normalization(self, rng):
        lam = random_lamination(rng, 5)
        unit = scale(lam, 1.0 / roundness(lam))
        assert roundness(unit) == pytest.approx(1.0, abs=1e-12)

    def test_scale_rejects_nonpositive(self, rng):
        lam = random_lamination(rng, 2)
        with pytest.raises(NonpositiveScale):
            scale(lam, 0.0)

    def test_mobius_conjugation_invariance(self, rng):
        for _ in range(5):
            lam = random_lamination(rng, 4)
            m = random_disk_mobius(rng)
            moved = pushforward(lambda a: cmath.phase(m(cmath.exp(1j * a))), lam)
            assert roundness(moved) == pytest.approx(roundness(lam), abs=1e-9)

    def test_sampled_arcs_never_beat_roundness(self, rng):
        lam = random_lamination(rng, 6)
        r = roundness(lam)
        brute = roundness_brute_force(lam, n_arcs=10**5, seed=3, targeted=False)
        assert brute <= r + 1e-9


def cusp_lamination(n: int, width: float, seed: int) -> FiniteLamination:
    """n nested leaves with endpoints in one boundary arc of the given width.

    Few uniformly sampled arcs reach so far out, so which leaves the best
    of them crosses, and hence the sampler's untargeted maximum, depends on
    the exact sample drawn.
    """
    rng = np.random.default_rng(seed)
    half = np.sort(rng.uniform(0.05, 1.0, n))[::-1] * width / 2
    c = rng.uniform(0, 2 * math.pi)
    return FiniteLamination([GeodesicH2.from_angles(c - h, c + h) for h in half],
                            rng.uniform(0.5, 2.0, n).tolist())


def matching_lamination(rng: np.random.Generator, n: int) -> FiniteLamination:
    """Random non-crossing matching of 2n stratified boundary angles.

    One angle in the middle 80% of each of 2n equal sectors, all turned by
    one random angle; the sorted angles are paired as a random
    balanced-parentheses word.  Weights are uniform in [0.1, 1).
    """
    sectors = np.arange(2 * n) + rng.uniform(0.1, 0.9, 2 * n)
    turn = rng.uniform(0.0, 2.0 * math.pi)
    angles = np.sort(np.mod(turn + math.pi * sectors / n, 2.0 * math.pi))
    coins = rng.random(2 * n)
    stack, pairs = [], []
    for k in range(2 * n):
        if not stack or (len(stack) + len(pairs) < n and coins[k] < 0.5):
            stack.append(k)
        else:
            pairs.append((stack.pop(), k))
    return FiniteLamination(
        [GeodesicH2.from_angles(angles[a], angles[b]) for a, b in pairs],
        rng.uniform(0.1, 1.0, n).tolist())


def turned_to_zero(lam: FiniteLamination) -> FiniteLamination:
    """The lamination turned so that its first endpoint lies at angle 0."""
    t0 = lam.leaves[0].a.angle
    return FiniteLamination(
        [GeodesicH2.from_angles((g.a.angle - t0) % (2 * math.pi),
                                (g.b.angle - t0) % (2 * math.pi)) for g in lam.leaves],
        list(lam.weights))


def fan_lamination(rng: np.random.Generator, spokes: int, rims: int) -> FiniteLamination:
    """Leaves from one hub angle to stratified ends, plus leaves joining
    consecutive ends (ideal triangles): every shared endpoint is exact."""
    hub = rng.uniform(0.0, 2.0 * math.pi)
    ends = hub + 2.0 * math.pi * (np.arange(1, spokes + 1)
                                  + rng.uniform(-0.4, 0.4, spokes)) / (spokes + 1)
    pairs = [(hub, e) for e in ends]
    chosen = rng.permutation(spokes - 1)[:rims]
    pairs += [(ends[i], ends[i + 1]) for i in sorted(chosen)]
    return FiniteLamination([GeodesicH2.from_angles(a, b) for a, b in pairs],
                            rng.uniform(0.1, 2.0, len(pairs)).tolist())


@st.composite
def oracle_laminations(draw):
    kind = draw(st.sampled_from(["matching", "random", "cusp", "fan", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "matching":
        return matching_lamination(rng, draw(st.integers(1, 32)))
    if kind == "random":
        return random_lamination(rng, draw(st.integers(1, 12)))
    if kind == "cusp":
        return cusp_lamination(draw(st.integers(1, 12)),
                               draw(st.sampled_from([0.005, 0.01, 0.1, 1.0])),
                               draw(st.integers(0, 2**32 - 1)))
    spokes = draw(st.integers(1, 24))
    fan = fan_lamination(rng, spokes, draw(st.integers(0, spokes - 1)))
    return turned_to_zero(fan) if kind == "zero" else fan


class TestRoundnessMatchesOracle:
    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(lam=oracle_laminations())
    @example(lam=matching_lamination(np.random.default_rng(64), 64))
    @example(lam=turned_to_zero(fan_lamination(np.random.default_rng(5), 40, 24)))
    def test_equals_triple_loop(self, lam):
        assert roundness(lam).hex() == roundness_oracle(lam).hex()


class TestSampler:
    # cusp_lamination(n, width, seed), arc seed, then roundness_brute_force
    # (n_arcs=300000) with and without targeted arcs, as returned before the
    # sampler was chunked; the chunked kernel must reproduce them bit for bit
    PINNED = [
        (6, 0.01, 3, 8, "0x1.c102b09f91eebp+1", "0x1.163b4bc92d9dep+0"),
        (8, 0.01, 4, 6, "0x1.26176bc18dc0ep+3", "0x1.d46f65b653f2fp+1"),
        (8, 0.005, 5, 8, "0x1.2941f26fa7094p+3", "0x1.150fb2bda8a53p+2"),
    ]

    @pytest.mark.parametrize("n, width, lam_seed, arc_seed, targeted, untargeted",
                             PINNED)
    def test_pinned_and_identical_across_thread_counts(
            self, n, width, lam_seed, arc_seed, targeted, untargeted):
        lam = cusp_lamination(n, width, lam_seed)
        assert 300_000 > 4 * laminations._CHUNK_ARCS
        for threads in (None, 1, 2, 3):
            for with_targets, expected in ((True, targeted), (False, untargeted)):
                got = roundness_brute_force(lam, n_arcs=300_000, seed=arc_seed,
                                            targeted=with_targets, threads=threads)
                assert got.hex() == expected, (with_targets, threads)

    @pytest.mark.parametrize("n_arcs", [0, -5])
    def test_nonpositive_n_arcs_rejected(self, n_arcs):
        lam = random_lamination(np.random.default_rng(1), 3)
        for targeted in (True, False):
            with pytest.raises(NonpositiveInput):
                roundness_brute_force(lam, n_arcs=n_arcs, targeted=targeted)

    def test_worker_count_clamp(self, monkeypatch):
        wc = laminations._worker_count
        if hasattr(os, "sched_getaffinity"):
            assert wc(10**9, 10**9) == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        assert wc(10**9, 10**9) == 64
        assert wc(10**9, 3) == 3
        assert wc(5, 10**9) == 5
        assert wc(None, 10**9) == 64 and wc(None, 10) == 10
        for requested in (0, -3, 1):
            assert wc(requested, 10) == 1
        assert wc(8, 0) == 1

    def test_executor_gets_clamped_workers(self, monkeypatch):
        started = []

        class SerialExecutor:
            """Stands in for ThreadPoolExecutor without starting threads."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(laminations, "ThreadPoolExecutor", SerialExecutor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        lam = random_lamination(np.random.default_rng(2), 4)
        n_arcs = 4 * laminations._CHUNK_ARCS + 1  # five chunks
        got = roundness_brute_force(lam, n_arcs=n_arcs, seed=4, targeted=False,
                                    threads=10**6)
        assert started == [5]
        assert got == roundness_brute_force(lam, n_arcs=n_arcs, seed=4,
                                            targeted=False, threads=1)
        assert started == [5]


class TestPushforward:
    def test_identity(self, rng):
        lam = random_lamination(rng, 5)
        out = pushforward(lambda a: a, lam)
        for g1, g2 in zip(lam.leaves, out.leaves):
            assert g1.angles() == pytest.approx(g2.angles(), abs=1e-15)
        assert out.weights == lam.weights

    def test_mobius_moves_leaves(self, rng):
        lam = random_lamination(rng, 4)
        m = random_disk_mobius(rng)
        out = pushforward(lambda a: cmath.phase(m(cmath.exp(1j * a))), lam)
        for g_in, g_out in zip(lam.leaves, out.leaves):
            imgs = sorted(cmath.phase(m(p.z)) % (2 * math.pi)
                          for p in (g_in.a, g_in.b))
            assert imgs == pytest.approx(sorted(g_out.angles()), abs=1e-12)

    def test_single_leaf_earthquake_piecewise(self):
        # a leaf disjoint from the fault moves by the Mobius of its side
        fault = FiniteLamination([GeodesicH2.from_angles(0.0, math.pi)], [0.9])
        quake = earthquake(fault, base=PointH2(-0.5j))
        lam = FiniteLamination([GeodesicH2.from_angles(1.0, 2.0)], [1.0])
        out = pushforward(quake.boundary_map(), lam)
        side_map = quake.gap_maps[quake.complex_.gap_of(0.5j)]
        want = sorted(
            cmath.phase(side_map(cmath.exp(1j * t))) % (2 * math.pi)
            for t in (1.0, 2.0)
        )
        assert want == pytest.approx(sorted(out.angles() for out in [out.leaves[0]])[0],
                                     abs=1e-12)


class TestJson:
    def test_roundtrip(self, rng, tmp_path):
        lam = random_lamination(rng, 3)
        path = tmp_path / "lam.json"
        path.write_text(json.dumps(lam.to_json()))
        back = FiniteLamination.load(path)
        assert back.weights == lam.weights
        for g1, g2 in zip(lam.leaves, back.leaves):
            assert g1.angles() == g2.angles()

    def test_reader_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"leaves": [[0.0, 2.0], [1.0, 3.0]],
                                    "weights": [1.0, 1.0]}))
        with pytest.raises(CrossingLeaves):
            FiniteLamination.load(path)
