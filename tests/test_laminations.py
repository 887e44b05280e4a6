import cmath
import concurrent.futures
import json
import math
import os
import tracemalloc
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
from domekit.hyperbolic import (
    ASYMPTOTIC_TOL,
    GeodesicH2,
    PointH2,
    geodesic_distance,
    point_along,
    side_of,
)
from domekit import laminations
from domekit.laminations import (
    ON_LEAF_TOL,
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

import _oracles
from _oracles import (
    angles_interleave,
    arc_end_sides,
    arc_walk_crossing_count,
    roundness_brute_force_oracle,
    roundness_oracle,
)
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


def short_leaves(rng: np.random.Generator, n: int, width: float) -> FiniteLamination:
    """n leaves whose endpoints lie ``width`` rad apart, at stratified angles:
    each close to the boundary, about asinh(2 / width) from the origin."""
    starts = 2.0 * math.pi * (np.arange(n) + rng.uniform(0.0, 0.5, n)) / n
    return FiniteLamination([GeodesicH2.from_angles(t, t + width) for t in starts],
                            rng.uniform(0.1, 2.0, n).tolist())


def scored_arcs(module, run) -> tuple[float, dict]:
    """run() while ``module._crossings`` records what it scores: run's result
    and {an arc's x, y, |c|^2 and direction: the leaves it crosses}, as
    bytes."""
    arcs = {}
    crossings = module._crossings

    def recording(polars_t, x, y, r2, dirs, scratch):
        rows = np.stack([x, y, r2, dirs], axis=1)
        mask = crossings(polars_t, x, y, r2, dirs, scratch)
        arcs.update(zip((row.tobytes() for row in rows), (m.tobytes() for m in mask)))
        return mask

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_crossings", recording)
        return run(), arcs


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


def zero_fan(rng: np.random.Generator, spokes: int) -> FiniteLamination:
    """Leaves from the ideal point at angle 0 to stratified ends; each hub is
    written as 0 or as -1e-13, which is the same point across angle 0."""
    ends = 2.0 * math.pi * (np.arange(1, spokes + 1)
                            + rng.uniform(-0.4, 0.4, spokes)) / (spokes + 1)
    hubs = rng.choice([0.0, -1e-13], spokes)
    return FiniteLamination([GeodesicH2.from_angles(h, e) for h, e in zip(hubs, ends)],
                            [1.0] * spokes)


@st.composite
def near_pair_laminations(draw):
    """`oracle_laminations`, fans at angle 0, and leaves 1e-3 rad wide, apart
    or nested."""
    kind = draw(st.sampled_from(["oracle", "zero_fan", "short", "short_nested"]))
    if kind == "oracle":
        return draw(oracle_laminations())
    seed, n = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 24))
    if kind == "zero_fan":
        return zero_fan(np.random.default_rng(seed), n)
    if kind == "short":
        return short_leaves(np.random.default_rng(seed), n, 1e-3)
    return cusp_lamination(n, 1e-3, seed)


class TestNearPairs:
    """`FiniteLamination.near_pairs` lists the pairs that a double loop over
    `geodesic_distance` finds below distance 1, asymptotic pairs at 0.  Two
    fan leaves whose hubs lie 1e-13 apart across angle 0 share an end for
    the nesting, but their polars may cross: such a pair counts as 0 too."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(lam=near_pair_laminations())
    def test_equals_geodesic_distance_loop(self, lam):
        want = []
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                try:
                    d = geodesic_distance(lam.leaves[i], lam.leaves[j])[0]
                except CrossingLeaves:
                    d = 0.0
                if d < 1.0:
                    want.append((i, j, d))
        got = [(i, j, math.acosh(c) if c >= 1.0 + ASYMPTOTIC_TOL else 0.0)
               for i, j, c in lam.near_pairs]
        assert got == want


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
        assert 300_000 > 4 * laminations._CHUNK_ARCS
        self.check_pinned(cusp_lamination(n, width, lam_seed), arc_seed,
                          targeted, untargeted)

    @staticmethod
    def check_pinned(lam, arc_seed, targeted, untargeted):
        for threads in (None, 1, 2, 3):
            for with_targets, expected in ((True, targeted), (False, untargeted)):
                got = roundness_brute_force(lam, n_arcs=300_000, seed=arc_seed,
                                            targeted=with_targets, threads=threads)
                assert got.hex() == expected, (with_targets, threads)

    # fan_lamination(default_rng(seed), spokes, rims), turned to angle 0 or
    # not, arc seed, then roundness_brute_force(n_arcs=300000) with and
    # without targeted arcs, as returned when the sampler found each arc's
    # ends by a complex Mobius map.  Every spoke ends at the hub, so the cusp
    # probes reach centres with 1 - |c| = 2.7e-6, where the pulled-back
    # forms' alpha = g(c) cancels most.
    PINNED_SHARED = [
        (5, 6, 3, False, 1, "0x1.08b4a4cc827f4p+3", "0x1.08b4a4cc827f4p+3"),
        (3, 5, 2, True, 2, "0x1.29eba0b0ae134p+2", "0x1.29eba0b0ae134p+2"),
    ]

    @pytest.mark.parametrize("seed, spokes, rims, zero, arc_seed, targeted, untargeted",
                             PINNED_SHARED)
    def test_shared_endpoints_pinned(self, seed, spokes, rims, zero, arc_seed,
                                     targeted, untargeted):
        lam = fan_lamination(np.random.default_rng(seed), spokes, rims)
        self.check_pinned(turned_to_zero(lam) if zero else lam, arc_seed,
                          targeted, untargeted)

    # the benchmark's scale, 10**6 arcs, on matching_lamination(default_rng(n),
    # n) and on cusp_lamination(12, 0.01, 7), whose untargeted maximum
    # depends on the exact sample (arc seeds 1, 2 and 3 give three values);
    # as returned when the random arcs were drawn as three full-length arrays
    PINNED_MILLION = [
        ("matching", 1, 91, "0x1.ec89a3c854180p-2", "0x1.ec89a3c854180p-2"),
        ("matching", 4, 94, "0x1.9586ef84bbd9cp+0", "0x1.9586ef84bbd9cp+0"),
        ("matching", 8, 98, "0x1.fcca3af3fb0a4p+0", "0x1.fcca3af3fb0a4p+0"),
        ("cusp", 12, 3, "0x1.8d5760f1629a2p+3", "0x1.5b50fadc83a8bp+3"),
    ]

    @pytest.mark.parametrize("kind, n, arc_seed, targeted, untargeted", PINNED_MILLION)
    def test_pinned_at_a_million_arcs(self, kind, n, arc_seed, targeted, untargeted):
        lam = (matching_lamination(np.random.default_rng(n), n) if kind == "matching"
               else cusp_lamination(n, 0.01, 7))
        for threads in (1, 2):
            for with_targets, expected in ((True, targeted), (False, untargeted)):
                got = roundness_brute_force(lam, n_arcs=10**6, seed=arc_seed,
                                            targeted=with_targets, threads=threads)
                assert got.hex() == expected, (with_targets, threads)

    def test_pinned_wide_with_a_short_last_chunk(self):
        # 64 leaves make the widest products; the fourth chunk holds 5 arcs
        lam = matching_lamination(np.random.default_rng(64), 64)
        n_arcs = 3 * laminations._CHUNK_ARCS + 5
        for threads in (1, 2):
            got = roundness_brute_force(lam, n_arcs=n_arcs, seed=64, targeted=False,
                                        threads=threads)
            assert got.hex() == "0x1.57b544f703e17p+1", threads

    def test_cos_sin_from_half_angle(self):
        angles = np.concatenate([np.linspace(-4.0, 8.0, 120_001),
                                 [math.pi, -math.pi, 3 * math.pi, math.pi / 2]])
        cos, sin = laminations._cos_sin(angles, np.empty((4, len(angles))))
        assert np.isfinite(cos).all() and np.isfinite(sin).all()
        assert np.abs(cos - np.cos(angles)).max() <= 2.3e-16
        assert np.abs(sin - np.sin(angles)).max() <= 2.3e-16

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(lam=oracle_laminations(), seed=st.integers(0, 2**32 - 1))
    def test_crossings_match_the_arc_ends(self, lam, seed):
        """The pulled-back forms decide every crossing that the arc's ends,
        found by the complex Mobius map, put at least ON_LEAF_TOL off both
        sides of the leaf."""
        rng = np.random.default_rng(seed)
        # random centres as the sampler draws them, out to |c| = 0.999
        rad2 = np.append(rng.uniform(0, 0.999**2, 400), 0.999**2)
        cos_t, sin_t = laminations._cos_sin(rng.uniform(0, 2 * math.pi, len(rad2)),
                                            np.empty((4, len(rad2))))
        x, y = np.sqrt(rad2) * cos_t, np.sqrt(rad2) * sin_t
        # and the cusp probes at every endpoint, out to depth 13.5
        ends = [t for g in lam.leaves for t in g.angles()]
        depths = np.arange(1.0, 14.0, 0.5)
        probes = np.array([point_along(0j, t, s) for t in ends for s in depths])
        x, y = np.append(x, probes.real), np.append(y, probes.imag)
        r2 = np.append(rad2, probes.real**2 + probes.imag**2)
        sampled = np.append(rng.uniform(0, 2 * math.pi, len(rad2)),
                            np.repeat(ends, len(depths)) + math.pi / 2)
        scratch = laminations._Scratch(len(lam), len(x))
        for dirs in (sampled, 0.0, math.pi, -math.pi, math.pi / 2):
            dirs = np.broadcast_to(dirs, x.shape)
            got = laminations._crossings(np.ascontiguousarray(lam.polars.T),
                                         x, y, r2, dirs, scratch)
            sp, sq = arc_end_sides(lam, x + 1j * y, dirs)
            sure = (np.abs(sp) >= ON_LEAF_TOL) & (np.abs(sq) >= ON_LEAF_TOL)
            assert sure.mean() > 0.9
            assert np.array_equal(got[sure], (sp * sq < 0)[sure])

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(lam=oracle_laminations(), seed=st.integers(0, 2**32 - 1),
           extra=st.integers(1, laminations._CHUNK_ARCS - 1), targeted=st.booleans())
    @example(lam=matching_lamination(np.random.default_rng(64), 64), seed=64,
             extra=5, targeted=True)
    @example(lam=cusp_lamination(12, 0.01, 7), seed=3, extra=777, targeted=False)
    @example(lam=short_leaves(np.random.default_rng(2), 8, 1e-3), seed=2, extra=1,
             targeted=True)
    def test_equals_unfiltered_oracle(self, lam, seed, extra, targeted):
        """Dropping the random arcs that reach no leaf, and scoring the rest in
        full batches, returns the unfiltered per-chunk maximum bit for bit,
        and scores every arc that crosses a leaf, with the same crossings."""
        n_arcs = 4 * laminations._CHUNK_ARCS + extra
        want, oracle_arcs = scored_arcs(
            _oracles, lambda: roundness_brute_force_oracle(lam, n_arcs, seed, targeted))
        none = bytes(8 * len(lam))
        crossing = {arc: m for arc, m in oracle_arcs.items() if m != none}
        for threads in (1, 2):
            got, arcs = scored_arcs(laminations, lambda: roundness_brute_force(
                lam, n_arcs=n_arcs, seed=seed, targeted=targeted, threads=threads))
            assert got.hex() == want.hex(), threads
            assert {arc: m for arc, m in arcs.items() if m != none} == crossing, threads
            assert arcs.keys() <= oracle_arcs.keys(), threads

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(lam=oracle_laminations(), seed=st.integers(0, 2**32 - 1))
    @example(lam=short_leaves(np.random.default_rng(1), 12, 1e-3), seed=1)
    @example(lam=short_leaves(np.random.default_rng(3), 1, 1e-3), seed=3)
    def test_dropped_arcs_cross_nothing(self, lam, seed):
        """Every arc that `_reaching` drops has an all-zero `_crossings` row,
        for centres out to |c| = 0.999, near short leaves too."""
        rng = np.random.default_rng(seed)
        # centres as the sampler draws them, and as many within 0.05 rad of
        # an endpoint and out at |c|^2 in [0.99^2, 0.999^2]
        m = laminations._CHUNK_ARCS
        ends = np.array([t for g in lam.leaves for t in g.angles()])
        rad2 = np.concatenate([rng.uniform(0, 0.999**2, m // 2),
                               rng.uniform(0.99**2, 0.999**2, m // 2 - 1), [0.999**2]])
        theta = np.concatenate([rng.uniform(0, 2 * math.pi, m // 2),
                                rng.choice(ends, m // 2) + rng.uniform(-0.05, 0.05, m // 2)])
        scratch = laminations._Scratch(len(lam), m)
        x, y, r2 = scratch.vec[5:]
        r2[:] = rad2
        cos_t, sin_t = laminations._cos_sin(theta, np.empty((4, m)))
        x[:] = np.sqrt(rad2) * cos_t
        y[:] = np.sqrt(rad2) * sin_t
        polars_a = lam.polars[:, [2, 0, 1]] * np.array([-1.0, 2.0, 2.0])
        kept = laminations._reaching(polars_a, m, scratch)
        dropped = np.ones(m, dtype=bool)
        dropped[kept] = False
        assert dropped.any()
        # kept exactly when sinh of the centre's distance from the nearest
        # leaf, by `side_of`, is at most _NEAR, outside a band of rounding
        near = np.abs(side_of((x + 1j * y)[:, None], lam.polars)).min(axis=1)
        assert not dropped[near < laminations._NEAR * (1 - 1e-6)].any()
        assert dropped[near > laminations._NEAR * (1 + 1e-6)].all()
        mask = laminations._crossings(np.ascontiguousarray(lam.polars.T), x, y, r2,
                                      rng.uniform(0, 2 * math.pi, m), scratch)
        assert not mask[dropped].any()

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

    def test_memory_does_not_grow_with_n_arcs(self):
        # tracemalloc sees numpy's data buffers; drawing the arcs as three
        # full-length arrays made the peak grow by 24 bytes per arc
        lam = matching_lamination(np.random.default_rng(8), 8)
        peaks = []
        for n_arcs in (10**5, 10**6):
            tracemalloc.start()
            try:
                roundness_brute_force(lam, n_arcs=n_arcs, seed=1, targeted=False,
                                      threads=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 1 << 20, peaks
        # the unfiltered sampler's scratch, rows of one chunk: 9 of vec, 6 of
        # rows and 2 per leaf of prod (31 here, 4.1 MB traced); the filter
        # may add no more than the 4 rows of the candidates, and 64 KiB
        row = 8 * laminations._CHUNK_ARCS
        assert max(peaks) <= (9 + 6 + 2 * len(lam) + 4) * row + (1 << 16), peaks

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

        # roundness_brute_force imports the pool from here when it starts one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialExecutor)
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
