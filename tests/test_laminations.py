import cmath
import concurrent.futures
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

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
    _mink_dot,
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
    fixed_order_measures,
    roundness_brute_force_oracle,
    roundness_oracle,
)
from test_hyperbolic import leaf_from_uhp

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


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

    def test_adds_in_increasing_leaf_index(self):
        # summed by BLAS's dot product, 783 of these had another last bit
        for lam, arcs in fan_arcs():
            polars = lam.polars
            for arc in arcs:
                sp, sq = side_of(arc.p.z, polars), side_of(arc.q.z, polars)
                want = fixed_order_measures((sp * sq < 0)[:, None], lam.weights)[0]
                assert transverse_measure(lam, arc).hex() == want.hex()


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
            assert brute <= exact
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
        assert brute <= r


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


def fan_arcs():
    """(lamination, arcs) for `fan_lamination(default_rng(k), 40, 20)`, k =
    0..39, each with 50 random arcs whose ends lie in |z| < 0.95: 2000
    arcs."""
    for k in range(40):
        rng = np.random.default_rng(k)
        lam = fan_lamination(rng, 40, 20)
        ends = 0.95 * np.sqrt(rng.uniform(size=(50, 2))) * np.exp(
            2j * math.pi * rng.uniform(size=(50, 2)))
        yield lam, [GeodesicArc(PointH2(p), PointH2(q)) for p, q in ends.tolist()]


def exact_measures() -> list[str]:
    """The hex of `roundness` on every lamination that `TestSampler` pins
    and that `fan_arcs` makes, and of `transverse_measure` on each fan's
    arcs."""
    out = [roundness(lam).hex() for lam, *_ in TestSampler.pinned_runs()]
    for lam, arcs in fan_arcs():
        out += [roundness(lam).hex()] + [transverse_measure(lam, a).hex() for a in arcs]
    return out


def scored_arcs(module, run) -> tuple[float, dict]:
    """run() while ``module._crossings`` records what it scores: run's result
    and {an arc's x, y, |c|^2 and direction: the leaves it crosses}, as
    bytes."""
    arcs = {}
    crossings = module._crossings

    def recording(polars_t, x, y, r2, dirs, scratch):
        rows = np.stack([x, y, r2, dirs], axis=1)
        mask = crossings(polars_t, x, y, r2, dirs, scratch)
        arcs.update(zip((row.tobytes() for row in rows), (m.tobytes() for m in mask.T)))
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


@st.composite
def floor_laminations(draw):
    """`oracle_laminations` (fans sharing endpoints among them), fans at
    angle 0, leaves 1e-3 rad wide and 64 leaves, each also with all its
    weights equal."""
    kind = draw(st.sampled_from(["oracle", "zero_fan", "short", "wide"]))
    seed, n = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 24))
    lam = {"oracle": lambda: draw(oracle_laminations()),
           "zero_fan": lambda: zero_fan(np.random.default_rng(seed), n),
           "short": lambda: short_leaves(np.random.default_rng(seed), n, 1e-3),
           "wide": lambda: matching_lamination(np.random.default_rng(seed), 64)}[kind]()
    if draw(st.booleans()):
        return FiniteLamination(lam.leaves, [lam.weights[0]] * len(lam))
    return lam


class TestNearPairs:
    """`FiniteLamination.near_pairs` lists the pairs that a double loop over
    `geodesic_distance` finds below distance 1, asymptotic pairs at 0.  Both
    call a pair asymptotic when it shares an endpoint rank of the nesting,
    as do two fan leaves whose hubs lie 1e-13 apart across angle 0, so
    `geodesic_distance` raises on none of these valid laminations."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(lam=near_pair_laminations())
    def test_equals_geodesic_distance_loop(self, lam):
        want = []
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                d = geodesic_distance(lam.leaves[i], lam.leaves[j])[0]
                if d < 1.0:
                    want.append((i, j, d))
        got = [(i, j, math.acosh(c) if c >= 1.0 + ASYMPTOTIC_TOL else 0.0)
               for i, j, c in lam.near_pairs]
        assert got == want

    def test_shared_rank_across_angle_zero_is_asymptotic(self):
        # the hubs 2 pi - 1e-13 and 0.0 share a rank, though the polars give
        # |<u, v>| = 1 - 1.3e-12 < 1 - ASYMPTOTIC_TOL, a crossing by c alone
        g1 = GeodesicH2.from_angles(0.4563676969712828, 2 * math.pi - 1e-13)
        g2 = GeodesicH2.from_angles(0.0, 6.06145210214022)
        lam = FiniteLamination([g1, g2], [0.8, 1.1])
        assert lam.nesting.ranks[0, 1] == lam.nesting.ranks[1, 0] == 0
        assert geodesic_distance(g1, g2) == (0.0, None, None)
        assert geodesic_distance(g2, g1) == (0.0, None, None)
        assert lam.near_pairs == ((0, 1, 1.0),)


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
    # sampler was chunked; the chunked kernel must reproduce them bit for bit.
    # [8-0.01-4-6] moved in its last bit when the side values and measures
    # took a fixed order instead of BLAS products
    PINNED = [
        (6, 0.01, 3, 8, "0x1.c102b09f91eebp+1", "0x1.163b4bc92d9dep+0"),
        (8, 0.01, 4, 6, "0x1.26176bc18dc0fp+3", "0x1.d46f65b653f2fp+1"),
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
    # as returned when the random arcs were drawn as three full-length
    # arrays; cusp-12's untargeted value moved in its last bit when the side
    # values and measures took a fixed order instead of BLAS products
    PINNED_MILLION = [
        ("matching", 1, 91, "0x1.ec89a3c854180p-2", "0x1.ec89a3c854180p-2"),
        ("matching", 4, 94, "0x1.9586ef84bbd9cp+0", "0x1.9586ef84bbd9cp+0"),
        ("matching", 8, 98, "0x1.fcca3af3fb0a4p+0", "0x1.fcca3af3fb0a4p+0"),
        ("cusp", 12, 3, "0x1.8d5760f1629a2p+3", "0x1.5b50fadc83a8ap+3"),
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

    # 64 leaves make the widest products; the fourth chunk holds 5 arcs
    PINNED_WIDE = "0x1.57b544f703e17p+1"

    def test_pinned_wide_with_a_short_last_chunk(self):
        lam = matching_lamination(np.random.default_rng(64), 64)
        n_arcs = 3 * laminations._CHUNK_ARCS + 5
        for threads in (1, 2):
            got = roundness_brute_force(lam, n_arcs=n_arcs, seed=64, targeted=False,
                                        threads=threads)
            assert got.hex() == self.PINNED_WIDE, threads

    @classmethod
    def pinned_runs(cls):
        """(lamination, n_arcs, arc seed, targeted, pinned hex) of every pin
        above."""
        for n, width, lam_seed, arc_seed, *hexes in cls.PINNED:
            for targeted, want in zip((True, False), hexes):
                yield cusp_lamination(n, width, lam_seed), 300_000, arc_seed, targeted, want
        for seed, spokes, rims, zero, arc_seed, *hexes in cls.PINNED_SHARED:
            lam = fan_lamination(np.random.default_rng(seed), spokes, rims)
            for targeted, want in zip((True, False), hexes):
                yield (turned_to_zero(lam) if zero else lam), 300_000, arc_seed, targeted, want
        for kind, n, arc_seed, *hexes in cls.PINNED_MILLION:
            lam = (matching_lamination(np.random.default_rng(n), n) if kind == "matching"
                   else cusp_lamination(n, 0.01, 7))
            for targeted, want in zip((True, False), hexes):
                yield lam, 10**6, arc_seed, targeted, want
        yield (matching_lamination(np.random.default_rng(64), 64),
               3 * laminations._CHUNK_ARCS + 5, 64, False, cls.PINNED_WIDE)

    def test_pins_independent_of_blas_kernel(self):
        # OpenBLAS picks its kernel by CPU unless OPENBLAS_CORETYPE names one;
        # the sampler's side values and measures, and the exact measures, use
        # no BLAS call
        script = ("from domekit.laminations import roundness_brute_force as f\n"
                  "from test_laminations import TestSampler, exact_measures\n"
                  "for lam, n_arcs, seed, targeted, _ in TestSampler.pinned_runs():\n"
                  "    print(f(lam, n_arcs, seed, targeted, threads=1).hex())\n"
                  "print(*exact_measures())\n")
        want = "".join(run[-1] + "\n" for run in self.pinned_runs())
        want += " ".join(exact_measures()) + "\n"
        for coretype in (None, "Haswell", "Prescott", "SkylakeX"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS, env.get("PYTHONPATH", "")])
            env["OPENBLAS_NUM_THREADS"] = "1"
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=300).stdout
            assert out == want, coretype

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
                                         x, y, r2, dirs, scratch).T
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
    # perpendiculars with midpoints past 0.999, whose jittered copies B does
    # not bound
    @example(lam=cusp_lamination(8, 0.001, 5), seed=5, extra=9, targeted=True)
    def test_equals_unfiltered_oracle(self, lam, seed, extra, targeted):
        """Scoring only the random arcs whose near leaves can outweigh the
        best measure so far, in full batches, returns the unfiltered
        per-chunk maximum bit for bit.  Every scored arc has the unfiltered
        crossings, and every crossing arc left unscored measures at most
        the result."""
        n_arcs = 4 * laminations._CHUNK_ARCS + extra
        want, oracle_arcs = scored_arcs(
            _oracles, lambda: roundness_brute_force_oracle(lam, n_arcs, seed, targeted))
        none = bytes(len(lam))
        crossing = {arc: m for arc, m in oracle_arcs.items() if m != none}
        for threads in (1, 2):
            got, arcs = scored_arcs(laminations, lambda: roundness_brute_force(
                lam, n_arcs=n_arcs, seed=seed, targeted=targeted, threads=threads))
            assert got.hex() == want.hex(), threads
            unscored = [np.frombuffer(m, dtype=bool) for arc, m in crossing.items()
                        if arc not in arcs]
            if unscored:
                measures = fixed_order_measures(np.array(unscored).T, lam.weights)
                assert (measures <= got).all(), threads
            assert arcs.keys() <= oracle_arcs.keys(), threads
            assert arcs.items() <= oracle_arcs.items(), threads

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(lam=floor_laminations(), seed=st.integers(0, 2**32 - 1))
    # the sampler exceeded roundness on the fans and fell below it on the
    # matching when roundness added w_i + w_j first
    @example(lam=fan_lamination(np.random.default_rng(1), 12, 5), seed=1)
    @example(lam=fan_lamination(np.random.default_rng(5), 40, 20), seed=5)
    @example(lam=matching_lamination(np.random.default_rng(3), 64), seed=3)
    def test_equals_roundness_when_the_random_arcs_are_skipped(self, lam, seed):
        """The sampler never exceeds `roundness`, which adds a chain's weights
        in its order.  When the targeted arcs reach the bound on the random
        ones, so that no random arc is filtered, it returns `roundness`
        bit for bit."""
        calls = []
        reaching = laminations._reaching

        def counting(*args):
            calls.append(args[3])
            return reaching(*args)

        exact = roundness(lam)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laminations, "_reaching", counting)
            got = roundness_brute_force(lam, n_arcs=10**5, seed=seed, threads=1)
        assert got <= exact
        if not calls:
            assert got.hex() == exact.hex()

    @pytest.mark.parametrize("leaf, weight", [((0.4, 2.9), 1.7), ((5.0, 5.001), 0.3),
                                              ((6.0, 2 * math.pi - 1e-13), 2.5)])
    def test_one_leaf_skips_the_random_arcs(self, monkeypatch, leaf, weight):
        # the arcs through the leaf's foot measure its weight, which bounds
        # every arc's measure, so no random arc is drawn or filtered
        lam = FiniteLamination([GeodesicH2.from_angles(*leaf)], [weight])
        want = roundness_brute_force_oracle(lam, 10**5, 3, True)
        monkeypatch.setattr(laminations, "_reaching", self.not_called)
        for threads in (1, 2):
            got = roundness_brute_force(lam, n_arcs=10**5, seed=3, threads=threads)
            assert got == weight == want, threads

    @staticmethod
    def not_called(*args):
        raise AssertionError("_reaching called")

    @staticmethod
    def bound(lam):
        return laminations._random_arc_bound(lam.polars, np.asarray(lam.weights))

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(lam=oracle_laminations(), seed=st.integers(0, 2**32 - 1),
           targeted=st.booleans())
    @example(lam=short_leaves(np.random.default_rng(4), 12, 1e-3), seed=4, targeted=True)
    @example(lam=fan_lamination(np.random.default_rng(6), 12, 5), seed=6, targeted=True)
    @example(lam=cusp_lamination(12, 0.01, 7), seed=3, targeted=False)
    def test_every_scored_arc_measures_at_most_the_bound(self, lam, seed, targeted):
        """Every arc that the unfiltered oracle scores, targeted ones too,
        measures at most `_random_arc_bound`."""
        bound = self.bound(lam)
        _, arcs = scored_arcs(_oracles, lambda: roundness_brute_force_oracle(
            lam, 2 * laminations._CHUNK_ARCS + 7, seed, targeted))
        masks = np.array([np.frombuffer(m, dtype=bool) for m in arcs.values()])
        assert (fixed_order_measures(masks.T, lam.weights) <= bound).all()

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(lam=oracle_laminations(), seed=st.integers(0, 2**32 - 1))
    @example(lam=short_leaves(np.random.default_rng(5), 8, 1e-3), seed=5)
    @example(lam=fan_lamination(np.random.default_rng(5), 6, 3), seed=5)
    @example(lam=turned_to_zero(cusp_lamination(5, 0.01, 2)), seed=2)
    def test_floor_at_the_bound_skips_the_random_arcs(self, lam, seed):
        """When the targeted arcs' maximum reaches the bound, no random arc
        is drawn or filtered, and the result is still the unfiltered
        oracle's, bit for bit."""
        n_arcs = 2 * laminations._CHUNK_ARCS + 5
        want = roundness_brute_force_oracle(lam, n_arcs, seed, True)
        floor = roundness_brute_force_oracle(lam, 1, seed, True)  # targeted arcs only
        with pytest.MonkeyPatch.context() as mp:
            if floor >= self.bound(lam):
                mp.setattr(laminations, "_reaching", self.not_called)
            for threads in (1, 2):
                got = roundness_brute_force(lam, n_arcs=n_arcs, seed=seed, threads=threads)
                assert got.hex() == want.hex(), threads

    @pytest.mark.parametrize("kind", ["matching", "random"])
    def test_bound_takes_the_chains_of_the_nesting(self, kind):
        # with no two near leaves within 1 + 1e-6 of asymptotic, the leaves
        # between a near pair are those with exactly one of the pair inside
        for seed in range(40):
            rng = np.random.default_rng(seed)
            lam = (matching_lamination(rng, 1 + seed % 32) if kind == "matching"
                   else random_lamination(rng, 1 + seed % 12))
            weights, inside = np.asarray(lam.weights), validate(lam).inside
            dots = np.abs(_mink_dot(lam.polars[:, None], lam.polars[None, :]))
            i, j = np.nonzero(np.triu(dots <= 1.5431, 1))
            assert (dots[i, j] > 1.0 + 1e-6).all()
            k = np.arange(len(lam))[:, None]
            between = inside[:, i] ^ inside[:, j] | (k == i) | (k == j)
            sums = laminations._fixed_sums(weights, between, np.empty(len(i)))
            want = max(weights.max(), sums.max(initial=0.0))
            assert self.bound(lam) == want, seed

    @pytest.mark.parametrize("n", range(1, 9))
    def test_floor_reaches_the_bound_on_stratified_leaves(self, n):
        # the benchmark's laminations: the targeted arcs cross the best
        # chain, so the random arcs never run
        for seed in range(12):
            lam = matching_lamination(np.random.default_rng(seed), n)
            floor = roundness_brute_force_oracle(lam, 1, seed, True)  # targeted only
            assert floor == self.bound(lam), seed

    def test_bound_above_the_floor_runs_the_random_arcs(self, monkeypatch):
        # leaves 1 + 1e-6 apart are near by the bound's cut, which leaves
        # room for rounding, but no unit arc crosses both: the roundness,
        # which the targeted arcs attain, is the heavier weight
        lam = two_leaves_at_distance(1.0 + 1e-6, 2.0, 3.0)
        floor = roundness_brute_force_oracle(lam, 1, 4, True)
        assert floor == roundness(lam) == 3.0
        assert self.bound(lam) == 5.0
        calls = []
        reaching = laminations._reaching

        def counting(*args):
            calls.append(args[3])
            return reaching(*args)

        monkeypatch.setattr(laminations, "_reaching", counting)
        n_arcs = 2 * laminations._CHUNK_ARCS + 5
        got = roundness_brute_force(lam, n_arcs=n_arcs, seed=4, threads=1)
        assert got.hex() == roundness_brute_force_oracle(lam, n_arcs, 4, True).hex()
        # the floor is the roundness already, so no batch raises it
        assert calls and set(calls) == {floor}

    def test_cusp_probes_across_angle_zero(self):
        # the leaves share the ideal point at angle 0, written as 2 pi - 1e-13
        # and 0.0, and |<u, v>| = 1 - 1.3e-12 lies below 1 - ASYMPTOTIC_TOL:
        # the shared rank, not c, sends the pair to the cusp probes
        lam = FiniteLamination([GeodesicH2.from_angles(0.4563676969712828,
                                                       2 * math.pi - 1e-13),
                                GeodesicH2.from_angles(0.0, 6.06145210214022)],
                               [0.8, 1.1])
        c = abs(float(lam.polars[0] @ (lam.polars[1] * [1.0, 1.0, -1.0])))
        assert c < 1.0 - ASYMPTOTIC_TOL
        t = lam.leaves[0].b.angle
        probes = np.array([point_along(0j, t, s) for s in np.arange(1.0, 14.0, 0.5)])
        rows = np.stack([probes.real, probes.imag, probes.real**2 + probes.imag**2,
                         np.full(len(probes), t + math.pi / 2)], axis=1)
        n_arcs = 2 * laminations._CHUNK_ARCS + 3
        want = roundness_brute_force_oracle(lam, n_arcs, 5, True)
        for threads in (1, 2):
            got, arcs = scored_arcs(laminations, lambda: roundness_brute_force(
                lam, n_arcs=n_arcs, seed=5, threads=threads))
            assert len(rows) == 26 and all(row.tobytes() in arcs for row in rows)
            assert got <= roundness(lam) and got.hex() == want.hex(), threads

    @staticmethod
    def chunk_near_leaves(lam, rng):
        """A scratch holding in rows 5-7 a chunk of centres as the sampler
        draws them, and as many within 0.05 rad of an endpoint and out at
        |c|^2 in [0.99^2, 0.999^2]; and the rows `_reaching` takes."""
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
        tally = np.stack([lam.weights, np.ones(len(lam))])
        return scratch, polars_a, tally

    @staticmethod
    def dropped(lam, rng, floor):
        """The scratch's chunk, the mask of the arcs `_reaching` drops at
        ``floor``, and the `_crossings` rows of the chunk's arcs."""
        scratch, polars_a, tally = TestSampler.chunk_near_leaves(lam, rng)
        m = laminations._CHUNK_ARCS
        x, y, r2 = scratch.vec[5:].copy()
        kept = laminations._reaching(polars_a, tally, m, floor, scratch)
        dropped = np.ones(m, dtype=bool)
        dropped[kept] = False
        mask = laminations._crossings(np.ascontiguousarray(lam.polars.T), x, y, r2,
                                      rng.uniform(0, 2 * math.pi, m), scratch)
        return x, y, dropped, mask.T

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(lam=oracle_laminations(), seed=st.integers(0, 2**32 - 1))
    @example(lam=short_leaves(np.random.default_rng(1), 12, 1e-3), seed=1)
    @example(lam=short_leaves(np.random.default_rng(3), 1, 1e-3), seed=3)
    def test_dropped_arcs_cross_nothing(self, lam, seed):
        """At floor 0, every arc that `_reaching` drops has an all-zero
        `_crossings` row, for centres out to |c| = 0.999, near short leaves
        too."""
        rng = np.random.default_rng(seed)
        x, y, dropped, mask = self.dropped(lam, rng, 0.0)
        assert dropped.any()
        # kept exactly when sinh of the centre's distance from the nearest
        # leaf, by `side_of`, is at most _NEAR, outside a band of rounding
        near = np.abs(side_of((x + 1j * y)[:, None], lam.polars)).min(axis=1)
        assert not dropped[near < laminations._NEAR * (1 - 1e-6)].any()
        assert dropped[near > laminations._NEAR * (1 + 1e-6)].all()
        assert not mask[dropped].any()

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(lam=floor_laminations(), seed=st.integers(0, 2**32 - 1),
           floor=st.sampled_from(["leaf", "below a leaf", "two leaves", "share"]),
           pick=st.integers(0, 2**16), share=st.floats(0.0, 1.0))
    @example(lam=short_leaves(np.random.default_rng(1), 12, 1e-3), seed=1,
             floor="leaf", pick=0, share=0.0)
    @example(lam=matching_lamination(np.random.default_rng(64), 64), seed=64,
             floor="share", pick=0, share=0.3)
    @example(lam=zero_fan(np.random.default_rng(5), 12), seed=5, floor="two leaves",
             pick=3, share=0.0)
    @example(lam=random_lamination(np.random.default_rng(7), 6), seed=7,
             floor="below a leaf", pick=2, share=0.0)
    def test_dropped_arcs_cannot_beat_the_floor(self, lam, seed, floor, pick, share):
        """At a floor above 0, every arc that `_reaching` drops crosses
        leaves of exact weight sum at most the floor, and its measure by
        `fixed_order_measures` is at most the floor too; ties at the floor count
        as dropped."""
        n, weights = len(lam), np.asarray(lam.weights)
        i, j = pick % n, (pick + 1 + pick // n) % n
        floor = {"leaf": weights[i], "below a leaf": np.nextafter(weights[i], 0.0),
                 "two leaves": weights[i] + weights[j] if i != j else weights[i],
                 "share": max(share, 1e-3) * weights.sum()}[floor]
        rng = np.random.default_rng(seed)
        _, _, dropped, mask = self.dropped(lam, rng, float(floor))
        assert dropped.any()
        assert (fixed_order_measures(mask[dropped].T, weights) <= floor).all()
        for row in np.unique(mask[dropped], axis=0):
            assert sum(Fraction(w) for w, hit in zip(lam.weights, row) if hit) <= floor

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
        # the targeted arcs are scored first on the calling thread: the pool
        # gets a worker per random chunk, four here, at most; on these
        # leaves they stay below the bound on the random arcs
        lam = two_leaves_at_distance(1.0 + 1e-6, 2.0, 3.0)
        for threads, workers in ((10**6, 4), (3, 3)):
            started.clear()
            got = roundness_brute_force(lam, n_arcs=n_arcs, seed=4, threads=threads)
            assert started == [workers]
            assert got == roundness_brute_force(lam, n_arcs=n_arcs, seed=4, threads=1)
            assert started == [workers]


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
        out = pushforward(quake.boundary_angle, lam)
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
