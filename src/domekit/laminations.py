"""Finite measured geodesic laminations on the hyperbolic plane.

A finite lamination is a set of pairwise-disjoint complete geodesics of the
disk with strictly positive weights.  The central quantity is the roundness:
the supremum of the transverse measure over open geodesic arcs of unit
length.  For finite laminations the supremum is a combinatorial maximum over
chains of leaves, which this module computes exactly; a sampling estimator
(`roundness_brute_force`) provides the independent cross-check.
"""
from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (
    CrossingLeaves,
    InvalidInput,
    MismatchedLengths,
    NonpositiveInput,
    NonpositiveScale,
    NonpositiveWeight,
    NotTransverse,
    TooManyLeaves,
    UnknownGap,
    finite_float,
    input_field,
    read_json,
)
from .hyperbolic import (
    GeodesicH2,
    PointH2,
    dist_h2,
    foot_on_geodesic,
    geodesic_distance,
    geodesic_polar,
    geodesic_polars,
    point_along,
    point_vec,
    side_of,
    _mink_dot,
)

MAX_LEAVES = 64
ON_LEAF_TOL = 1e-9
#: endpoint angles this close, also across angle 0, are one ideal point
SHARED_TOL = 1e-12
# arcs per sampler chunk; fastest per arc when measured at 1-8 leaves, where
# 2**15 took twice as long per arc (its temporaries no longer stay in cache)
_CHUNK_ARCS = 1 << 14


@dataclass(frozen=True)
class GeodesicArc:
    """Open geodesic arc between two interior points of the disk."""

    p: PointH2
    q: PointH2


@dataclass(frozen=True)
class FiniteLamination:
    """Pairwise-disjoint geodesics with positive weights; frozen."""

    leaves: tuple[GeodesicH2, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.leaves) != len(self.weights):
            raise MismatchedLengths(
                f"{len(self.leaves)} leaves but {len(self.weights)} weights"
            )
        if len(self.leaves) > MAX_LEAVES:
            raise TooManyLeaves(f"{len(self.leaves)} leaves exceeds cap {MAX_LEAVES}")
        object.__setattr__(self, "leaves", tuple(self.leaves))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    def __len__(self):
        return len(self.leaves)

    @cached_property
    def polars(self) -> np.ndarray:
        """(n, 3) read-only array of unit polar vectors."""
        polars = geodesic_polars([g.angles() for g in self.leaves])
        polars.flags.writeable = False
        return polars

    @cached_property
    def nesting(self) -> "Nesting":
        return Nesting(self.leaves)

    @cached_property
    def gaps(self) -> "GapComplex":
        return GapComplex(self)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "leaves": [[g.a.angle, g.b.angle] for g in self.leaves],
            "weights": list(self.weights),
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteLamination":
        leaves = input_field(data, "leaves", lambda v: [
            GeodesicH2.from_angles(finite_float(t1), finite_float(t2))
            for t1, t2 in v])
        weights = input_field(data, "weights", lambda v: [finite_float(w) for w in v])
        lam = FiniteLamination(leaves, weights)
        validate(lam)
        return lam

    @staticmethod
    def load(path) -> "FiniteLamination":
        return FiniteLamination.from_json(read_json(path))


def _deepest(depths: np.ndarray) -> np.ndarray:
    """Per row, the index of the largest entry, or -1 where the row is empty
    or every entry is -1 (none marked)."""
    if not depths.shape[-1]:
        return np.full(depths.shape[:-1], -1)
    return np.where(depths.max(axis=-1) >= 0, depths.argmax(axis=-1), -1)


class Nesting:
    """How the leaves nest, from one sort of their endpoint angles.

    Endpoints within SHARED_TOL around the circle share a rank; ranks count
    from angle 0, a cluster straddling angle 0 being rank 0.  Leaf i spans
    the ranks ``lo[i]..hi[i]``, and its *inside* is the side holding that
    boundary arc; ``flipped[i]`` marks the leaves (second endpoint in the
    rank-0 cluster) whose inside is not their arc from a to b.  Leaves cross
    exactly when their spans interleave strictly, so asymptotic leaves
    never do.  ``inside[m, k]``: leaf k lies inside leaf m (k != m);
    ``depth[k]`` counts those m and ``parent[k]`` is the innermost, or -1.

    Raises InvalidInput for a leaf whose endpoints share a rank, then, for
    the first pair (i, j) in double-loop order that cross or are identical,
    CrossingLeaves(i, j) or InvalidInput.
    """

    def __init__(self, leaves: tuple[GeodesicH2, ...]):
        n = len(leaves)
        angles = np.array([g.angles() for g in leaves], dtype=float).reshape(2 * n)
        order = np.argsort(angles, kind="stable")
        ranks = np.zeros(2 * n, dtype=int)
        if n:
            sorted_ = angles[order]
            ranks[order] = np.concatenate(
                ([0], np.cumsum(np.diff(sorted_) > SHARED_TOL)))
            if sorted_[0] + 2 * math.pi - sorted_[-1] <= SHARED_TOL:
                ranks[ranks == ranks[order[-1]]] = 0
        self.ranks = ranks.reshape(n, 2)
        self.flipped = self.ranks[:, 0] > self.ranks[:, 1]
        self.lo, self.hi = self.ranks.min(axis=1), self.ranks.max(axis=1)
        if (self.lo == self.hi).any():
            i = int(np.argmax(self.lo == self.hi))
            raise InvalidInput(f"leaf {i} has coincident endpoints")
        lo_m, hi_m = self.lo[:, None], self.hi[:, None]
        lo_k, hi_k = self.lo[None, :], self.hi[None, :]
        crossing = (lo_m < lo_k) & (lo_k < hi_m) & (hi_m < hi_k)
        crossing |= crossing.T
        identical = (lo_m == lo_k) & (hi_m == hi_k)
        bad = np.argwhere(np.triu(crossing | identical, 1))
        if len(bad):
            i, j = (int(x) for x in bad[0])
            if crossing[i, j]:
                raise CrossingLeaves(i, j)
            raise InvalidInput(f"leaves {i} and {j} are identical")
        self.inside = (lo_m <= lo_k) & (hi_k <= hi_m) & ~identical
        self.depth = self.inside.sum(axis=0)
        deepest = np.where(self.inside, self.depth[:, None], -1).T
        self.parent = _deepest(deepest)


def validate(lam: FiniteLamination) -> Nesting:
    """Check weight positivity and pairwise disjointness; return the nesting.

    Shared endpoints are allowed; strictly interleaved endpoint pairs are
    not.  Raises NonpositiveWeight(i), then as `Nesting` does.
    """
    for i, w in enumerate(lam.weights):
        if not w > 0:
            raise NonpositiveWeight(i)
    return lam.nesting


def transverse_measure(lam: FiniteLamination, arc: GeodesicArc) -> float:
    """Sum of weights of leaves crossed by the open arc.

    Open-arc semantics: a leaf through an arc endpoint is not counted, and
    an endpoint lying on a leaf (within tolerance) raises NotTransverse.
    The side values are those `GapComplex.gaps_of` reads, bit for bit.
    """
    if not lam.leaves:
        return 0.0
    sp, sq = side_of(np.array([[arc.p.z], [arc.q.z]]), lam.polars)
    if np.any(np.abs(sp) < ON_LEAF_TOL) or np.any(np.abs(sq) < ON_LEAF_TOL):
        raise NotTransverse("arc endpoint lies on a leaf")
    crossed = (sp * sq) < 0
    return float(np.dot(crossed, lam.weights))


def roundness(lam: FiniteLamination) -> float:
    """Exact supremum of the transverse measure over open unit arcs.

    The crossed set of any geodesic segment is an interval in the
    separation order, so the supremum is the best interval [i..j] whose
    extreme leaves lie at perpendicular distance < 1 (asymptotic pairs
    count as distance 0).  Single leaves are always crossable.  The leaves
    strictly between i and j are those with exactly one of i, j inside:
    the symmetric difference of their ancestor sets.  Their weights are
    added in increasing index, one vectorised pass over all pairs per leaf.
    """
    nest = validate(lam)
    n = len(lam)
    if n == 0:
        return 0.0
    weights = np.asarray(lam.weights)
    best = float(weights.max())
    i, j = np.triu_indices(n, 1)
    cs = np.abs(_mink_dot(lam.polars[i], lam.polars[j])).tolist()
    near = [c < 1.0 + 1e-12 or math.acosh(c) < 1.0 for c in cs]
    i, j = i[near], j[near]
    if len(i) == 0:
        return best
    between = nest.inside[:, i] ^ nest.inside[:, j]
    pairs = np.arange(len(i))
    between[i, pairs] = False
    between[j, pairs] = False
    total = weights[i] + weights[j]
    for m in range(n):
        np.add(total, weights[m], out=total, where=between[m])
    return max(best, float(total.max()))


def scale(lam: FiniteLamination, c: float) -> FiniteLamination:
    """Same leaves, weights multiplied by c > 0."""
    if not c > 0:
        raise NonpositiveScale(f"scale factor {c} must be positive")
    return FiniteLamination(lam.leaves, [w * c for w in lam.weights])


def pushforward(circle_map, lam: FiniteLamination) -> FiniteLamination:
    """Map each leaf's endpoints through a circle homeomorphism.

    ``circle_map`` is a callable angle -> angle (e.g. an earthquake boundary
    map, or a Mobius map restricted to the circle).  Weights are unchanged;
    the result is re-validated, so a numerically broken image surfaces as
    CrossingLeaves.
    """
    out = FiniteLamination([GeodesicH2.from_angles(float(circle_map(g.a.angle)),
                                                   float(circle_map(g.b.angle)))
                            for g in lam.leaves], lam.weights)
    validate(out)
    return out


# ---------------------------------------------------------------------------
# the tree of gaps
# ---------------------------------------------------------------------------


@dataclass
class Gap:
    sample: complex
    arcs: list  # boundary arcs (start, end) with end > start, possibly > 2pi


class GapComplex:
    """Complement components of a lamination's leaves.

    The gaps are the vertices of a tree whose edges are the leaves: the gap
    just inside leaf k hangs from the gap just inside its parent leaf, or
    from the outermost gap.  Gap ids are indices into ``gaps``, ordered by
    each gap's first boundary arc; gaps with no boundary arc (ideal
    polygons) come last, in leaf order.
    """

    def __init__(self, lam: FiniteLamination):
        self.leaves = lam.leaves
        self.polars = lam.polars
        nest = self.nesting = lam.nesting
        n = len(self.leaves)
        # each boundary arc lies inside the leaves whose rank interval spans it
        slots = np.arange(2 * n)[:, None]
        covered = np.where((nest.lo <= slots) & (slots < nest.hi), nest.depth, -1)
        owner = _deepest(covered).tolist()
        rank = {t: r for g, rs in zip(self.leaves, nest.ranks.tolist())
                for t, r in zip(g.angles(), rs)}
        ends = sorted(rank) or [0.0]
        arcs: dict[int, list] = {}  # innermost leaf (-1: none) -> gap arcs
        mids = []  # middle of each gap's first arc
        for start, end in zip(ends, ends[1:] + [ends[0] + 2 * math.pi]):
            key = owner[rank[start]] if n else -1
            if key not in arcs:
                arcs[key] = []
                mids.append(0.5 * (start + end))
            arcs[key].append((start, end))
        samples = self._samples(list(arcs), mids)
        self.gaps = [Gap(z, a) for z, a in zip(samples, arcs.values())]
        gap_id = {key: i for i, key in enumerate(arcs)}
        for k in range(n):
            if k not in gap_id:
                gap_id[k] = len(self.gaps)
                self.gaps.append(Gap(self._polygon_sample(k), []))
        ids = [gap_id[k] for k in range(-1, n)]
        self._gap_id = np.array(ids)
        # the gaps on either side of each leaf
        self.inner = ids[1:]
        self.outer = [ids[p + 1] for p in nest.parent]

    def _leaves_of(self, zs) -> np.ndarray:
        """Deepest leaf containing each disk point (-1 for none); on-leaf
        points count as outside the leaf's arc from a to b.

        One sign product against the polars, taken over blocks of about
        2^16 (point, leaf) entries so that its temporaries stay small.
        """
        zs = np.asarray(zs, dtype=complex).ravel()
        out = np.full(len(zs), -1)
        n = len(self.leaves)
        if not n:
            return out
        step = max(1, (1 << 16) // n)
        for i0 in range(0, len(zs), step):
            s = side_of(zs[i0:i0 + step, None], self.polars)
            within = (s < -ON_LEAF_TOL) != self.nesting.flipped
            out[i0:i0 + step] = _deepest(np.where(within, self.nesting.depth, -1))
        return out

    def _samples(self, keys: list[int], mids: list[float]) -> list[complex]:
        """Interior points of the gaps inside leaves ``keys``: the first of a
        walk inward from the boundary angle ``mids[i]`` that lands there."""
        radii = (0.9, 0.99, 0.999, 0.9999, 0.99999)
        edges = [cmath.exp(1j * mid) for mid in mids]
        walks = [[r * e for r in radii] for e in edges]
        leaves = self._leaves_of(walks).reshape(-1, len(radii))
        found = leaves == np.array(keys)[:, None]
        return [walk[row.argmax()] if row.any() else 0.999999 * e
                for walk, row, e in zip(walks, found, edges)]

    def _polygon_sample(self, k: int) -> complex:
        """Centroid of an ideal polygon's vertices, taken in the Klein model."""
        sides = [k] + list(np.flatnonzero(self.nesting.parent == k))
        c = np.mean([p.z for i in sides for p in (self.leaves[i].a, self.leaves[i].b)])
        return complex(c / (1.0 + math.sqrt(1.0 - abs(c) ** 2)))

    def __len__(self):
        return len(self.gaps)

    def gaps_of(self, zs) -> np.ndarray:
        """Gap containing each disk point of a complex array; on-leaf points
        go to the + side."""
        return self._gap_id[self._leaves_of(zs) + 1]

    def gap_of(self, z: complex | PointH2) -> int:
        """Gap containing a disk point: `gaps_of` at one point."""
        if isinstance(z, PointH2):
            z = z.z
        return int(self.gaps_of(z)[0])

    def resolve(self, base) -> int:
        if base is None:
            return self.gap_of(0j)
        if isinstance(base, (PointH2, complex)):
            return self.gap_of(base)
        base = int(base)
        if not 0 <= base < len(self.gaps):
            raise UnknownGap(f"gap id {base} out of range")
        return base

    def arc_side(self, i: int) -> int:
        """Gap on the side of leaf i that holds its boundary arc from a to b."""
        return self.outer[i] if self.nesting.flipped[i] else self.inner[i]

    def walk(self, base: int):
        """Tree edges (leaf, near gap, far gap) breadth first from the base."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.gaps]
        for i, (g, h) in enumerate(zip(self.outer, self.inner)):
            adj[g].append((i, h))
            adj[h].append((i, g))
        seen, queue = {base}, [base]
        for g in queue:
            for i, h in adj[g]:
                if h not in seen:
                    seen.add(h)
                    queue.append(h)
                    yield i, g, h

    def tree_paths(self, base: int) -> tuple[list[list[int]], dict[int, tuple[int, int]]]:
        """Paths of leaf indices from the base gap to every gap.

        Returns (paths, crossing) where paths[g] lists the separating leaf
        indices ordered from the base outward, and crossing[i] = (parent
        gap, child gap) for the tree edge of leaf i (child on the far side
        of the base).
        """
        paths: list[list[int]] = [[] for _ in self.gaps]
        crossing: dict[int, tuple[int, int]] = {}
        for i, g, h in self.walk(base):
            paths[h] = paths[g] + [i]
            crossing[i] = (g, h)
        return paths, crossing


# ---------------------------------------------------------------------------
# sampling estimator (independent route used to cross-check `roundness`)
# ---------------------------------------------------------------------------

def _arc_endpoint_vectors(centers: np.ndarray, directions: np.ndarray, half: float):
    """Minkowski vectors of endpoints of arcs of length 2*half around centers."""
    step = math.tanh(half / 2.0) * np.exp(1j * directions)
    cs = np.conj(centers) * step
    p = (step + centers) / (1.0 + cs)
    q = (-step + centers) / (1.0 - cs)
    return point_vec(p), point_vec(q)


def _max_measure(pu: np.ndarray, weights: np.ndarray, centers: np.ndarray,
                 dirs: np.ndarray) -> float:
    """Largest transverse measure over the unit arcs with these centres."""
    vp, vq = _arc_endpoint_vectors(centers, dirs, 0.5)
    # Not `side_of`, which `transverse_measure` and `GapComplex.gaps_of` share:
    # through it the sampler took 20-40% longer at 6-8 leaves.  This product
    # against the polars with t negated (``pu``) is not batch-invariant (under
    # `gaps_of` a point near a leaf fell in one gap in a batch and in the next
    # alone); the sampler reads only signs, so its rounding need not match.
    sp = vp @ pu.T
    sq = vq @ pu.T
    return float((((sp * sq) < 0) @ weights).max())


def _chunks(n: int) -> list[slice]:
    return [slice(a, min(a + _CHUNK_ARCS, n)) for a in range(0, n, _CHUNK_ARCS)]


def _worker_count(requested: int | None, n_chunks: int) -> int:
    """Threads to start: no more than requested (None: the usable CPUs),
    usable CPUs or chunks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus if requested is None else requested, cpus, n_chunks))


def roundness_brute_force(lam: FiniteLamination, n_arcs: int = 10**6,
                          seed: int = 0, targeted: bool = True,
                          threads: int | None = None) -> float:
    """Maximum transverse measure over sampled open unit arcs.

    Samples random unit-length arcs (midpoint + direction), plus — when
    ``targeted`` — arcs aligned with the common perpendicular of each leaf
    pair, which witness every crossable chain.  Crossing is decided by the
    strict side-sign predicate, independent of the chain enumeration in
    `roundness`, so this estimator never exceeds the exact value and
    attains it when the sample pool contains a witnessing arc.

    The arcs are scored in fixed-size chunks on up to ``threads`` threads
    (by default the usable CPUs; never more than those or the chunks); the
    result, a maximum over chunks, does not depend on the thread count.
    """
    if n_arcs < 1:
        raise NonpositiveInput(f"n_arcs must be at least 1, got {n_arcs}")
    validate(lam)
    if not lam.leaves:
        return 0.0
    rng = np.random.default_rng(seed)
    n = len(lam)

    centers_list = []
    dirs_list = []

    if targeted:
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    # arcs through the point of the leaf closest to the origin
                    onleaf = foot_on_geodesic(0j, lam.polars[i])
                    centers_list.append(np.full(64, onleaf))
                    dirs_list.append(rng.uniform(0, 2 * math.pi, 64))
                    continue
                try:
                    d, f1, f2 = geodesic_distance(lam.leaves[i], lam.leaves[j])
                except CrossingLeaves:
                    continue
                if d >= 1.0:
                    continue
                if f1 is None:
                    # asymptotic pair: probe ever deeper into the shared cusp
                    t_shared = _shared_angle(lam.leaves[i], lam.leaves[j])
                    if t_shared is None:
                        continue
                    depths = np.arange(1.0, 14.0, 0.5)
                    zs = np.array([point_along(0j, t_shared, s) for s in depths])
                    centers_list.append(zs)
                    dirs_list.append(np.full(len(zs), t_shared + math.pi / 2.0))
                    continue
                mid = _geodesic_midpoint(f1.z, f2.z)
                direction = _initial_direction(mid, f2.z)
                # exact witness plus jittered copies
                centers_list.append(np.array([mid]))
                dirs_list.append(np.array([direction]))
                jn = 120
                jz = mid + (rng.normal(0, 0.02, jn) + 1j * rng.normal(0, 0.02, jn))
                jz = np.where(np.abs(jz) < 0.995, jz, mid)
                centers_list.append(jz)
                dirs_list.append(direction + rng.normal(0, 0.05, jn))

    pu = lam.polars @ np.diag([1.0, 1.0, -1.0])
    weights = np.asarray(lam.weights)
    jobs = []
    if centers_list:
        t_centers = np.concatenate(centers_list)
        t_dirs = np.concatenate(dirs_list)
        jobs += [partial(_max_measure, pu, weights, t_centers[sl], t_dirs[sl])
                 for sl in _chunks(len(t_centers))]
    n_random = max(n_arcs - sum(len(c) for c in centers_list), 0)
    if n_random:
        # sample centers within the hyperbolic radius that covers all feet;
        # the three draws keep the order and length of one unchunked sample
        rmax = 0.999
        rad2 = rng.uniform(0, rmax**2, n_random)
        theta = rng.uniform(0, 2 * math.pi, n_random)
        dirs = rng.uniform(0, 2 * math.pi, n_random)

        def random_chunk(sl):
            centers = np.sqrt(rad2[sl]) * np.exp(1j * theta[sl])
            return _max_measure(pu, weights, centers, dirs[sl])

        jobs += [partial(random_chunk, sl) for sl in _chunks(n_random)]

    workers = _worker_count(threads, len(jobs))
    if workers == 1:
        return max(job() for job in jobs)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return max(ex.map(lambda job: job(), jobs))


def _shared_angle(g1: GeodesicH2, g2: GeodesicH2):
    for t in g1.angles():
        for s in g2.angles():
            if abs((t - s + math.pi) % (2 * math.pi) - math.pi) < 1e-12:
                return t
    return None


def _geodesic_midpoint(z1: complex, z2: complex) -> complex:
    d = dist_h2(z1, z2)
    if d < 1e-14:
        return z1
    # move half the distance from z1 toward z2
    direction = _initial_direction(z1, z2)
    return point_along(z1, direction, d / 2.0)


def _initial_direction(z: complex, w: complex) -> float:
    """Euclidean angle of the initial tangent of the geodesic z -> w."""
    u = (w - z) / (1.0 - z.conjugate() * w)
    return math.atan2(u.imag, u.real)


def random_lamination(rng: np.random.Generator, n_leaves: int,
                      min_gap: float = 0.05) -> FiniteLamination:
    """Random pairwise-disjoint lamination with a separation margin, weights in [0.5, 2)."""
    leaves: list[GeodesicH2] = []
    polars: list[np.ndarray] = []
    attempts = 0
    while len(leaves) < n_leaves:
        attempts += 1
        if attempts > 10000:
            raise RuntimeError("could not place disjoint leaves")
        t1, t2 = rng.uniform(0, 2 * math.pi, 2)
        if abs(t1 - t2) < 0.2 or abs(abs(t1 - t2) - 2 * math.pi) < 0.2:
            continue
        g = GeodesicH2.from_angles(t1, t2)
        u = geodesic_polar(g)
        ok = True
        for v in polars:
            if abs(float(_mink_dot(u, v))) < math.cosh(min_gap):
                ok = False
                break
        if ok:
            leaves.append(g)
            polars.append(u)
    weights = rng.uniform(0.5, 2.0, n_leaves).tolist()
    return FiniteLamination(leaves, weights)
