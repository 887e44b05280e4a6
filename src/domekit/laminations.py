"""Finite measured geodesic laminations on the hyperbolic plane.

A finite lamination is a set of pairwise-disjoint complete geodesics of the
disk with strictly positive weights.  The central quantity is the roundness:
the supremum of the transverse measure over open geodesic arcs of unit
length.  For finite laminations the supremum is a combinatorial maximum over
chains of leaves, which this module computes exactly; a sampling estimator
(`roundness_brute_force`) provides the independent cross-check.
"""
from __future__ import annotations

import bisect
import cmath
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property

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
    ASYMPTOTIC_TOL,
    GeodesicH2,
    PointH2,
    dist_h2,
    foot_on_geodesic,
    geodesic_polar,
    geodesic_polars,
    perpendicular_feet,
    point_along,
    side_values,
    _mink_dot,
)

MAX_LEAVES = 64
ON_LEAF_TOL = 1e-9
#: endpoint angles this close, also across angle 0, are one ideal point
SHARED_TOL = 1e-12
# arcs per sampler chunk and batch; 2**15 sampled 1-8 leaves about 10%
# faster at 2 threads, but its buffers took 7.7 MiB more RSS (at 6 leaves)
_CHUNK_ARCS = 1 << 14
# sinh of the farthest a random arc's centre may lie from a leaf and still
# be scored: sinh(1/2), the farthest a crossing unit arc's centre lies, and
# a 1% margin (see `_reaching`)
_NEAR = 1.01 * math.sinh(0.5)


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
    def near_pairs(self) -> tuple[tuple[int, int, float], ...]:
        """The pairs (i, j, c), i < j in double-loop order, of leaves at
        distance below 1: c = |<u_i, u_j>| of their polars is the cosh of
        that distance, and an asymptotic pair (c < 1 + ASYMPTOTIC_TOL), or
        one crossing by the polars, counts as distance 0."""
        i, j = np.triu_indices(len(self), 1)
        cs = np.abs(_mink_dot(self.polars[i], self.polars[j])).tolist()
        return tuple((a, b, c) for a, b, c in zip(i.tolist(), j.tolist(), cs)
                     if c < 1.0 + ASYMPTOTIC_TOL or math.acosh(c) < 1.0)

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
    sp, sq = side_values([arc.p.z, arc.q.z], lam.polars)
    if np.any(np.abs(sp) < ON_LEAF_TOL) or np.any(np.abs(sq) < ON_LEAF_TOL):
        raise NotTransverse("arc endpoint lies on a leaf")
    crossed = (sp * sq) < 0
    return float(np.dot(crossed, lam.weights))


def roundness(lam: FiniteLamination) -> float:
    """Exact supremum of the transverse measure over open unit arcs.

    The crossed set of any geodesic segment is an interval in the
    separation order, so the supremum is the best interval [i..j] whose
    extreme leaves are one of `FiniteLamination.near_pairs`.  Single leaves
    are always crossable.  The leaves strictly between i and j are those
    with exactly one of i, j inside: the symmetric difference of their
    ancestor sets.  Their weights are added in increasing index, one
    vectorised pass over all pairs per leaf.
    """
    nest = validate(lam)
    n = len(lam)
    if n == 0:
        return 0.0
    weights = np.asarray(lam.weights)
    best = float(weights.max())
    if not lam.near_pairs:
        return best
    i, j = np.array([p[:2] for p in lam.near_pairs]).T
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
    polygons) come last, in leaf order.  ``arc_starts`` lists the boundary
    arcs' starts, the sorted endpoint angles, and ``arc_gaps`` the gap of
    each arc; the last arc wraps past 2 pi.
    """

    def __init__(self, lam: FiniteLamination):
        self.leaves = lam.leaves
        self.polars = lam.polars
        nest = self.nesting = lam.nesting
        n = len(self.leaves)
        # leaf k's key is depth[k] n + (n - 1 - k): the largest key among the
        # leaves holding a point is the deepest of them, the first on a tie
        self._flipped = nest.flipped[:, None]
        self._keys = (nest.depth * n + np.arange(n)[::-1])[:, None]
        # each boundary arc lies inside the leaves whose rank interval spans it
        slots = np.arange(2 * n)[:, None]
        covered = np.where((nest.lo <= slots) & (slots < nest.hi), nest.depth, -1)
        owner = _deepest(covered).tolist()
        rank = {t: r for g, rs in zip(self.leaves, nest.ranks.tolist())
                for t, r in zip(g.angles(), rs)}
        ends = sorted(rank) or [0.0]
        arcs: dict[int, list] = {}  # innermost leaf (-1: none) -> gap arcs
        mids = []  # middle of each gap's first arc
        keys = [owner[rank[start]] if n else -1 for start in ends]
        for key, start, end in zip(keys, ends, ends[1:] + [ends[0] + 2 * math.pi]):
            if key not in arcs:
                arcs[key] = []
                mids.append(0.5 * (start + end))
            arcs[key].append((start, end))
        samples = self._samples(list(arcs), mids)
        self.gaps = [Gap(z, a) for z, a in zip(samples, arcs.values())]
        gap_id = {key: i for i, key in enumerate(arcs)}
        self.arc_starts, self.arc_gaps = ends, [gap_id[key] for key in keys]
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
        """Deepest leaf containing each disk point (-1 for none), the first
        of the deepest on a tie; on-leaf points count as outside the
        leaf's arc from a to b.

        The side values of `hyperbolic.side_values` against the polars,
        written in place into one (n, ~2^16 / n) buffer, a row per leaf,
        block by block; the deepest leaf is the largest key of a column.
        """
        zs = np.asarray(zs, dtype=complex).ravel()
        n = len(self.leaves)
        if not n:
            return np.full(len(zs), -1)
        out = np.empty(len(zs), dtype=int)
        step = max(1, (1 << 16) // n)
        buf = np.empty((n, min(step, len(zs))))
        for i0 in range(0, len(zs), step):
            block = zs[i0:i0 + step]
            s = side_values(block, self.polars, out=buf[:, :len(block)].T).T
            within = (s < -ON_LEAF_TOL) != self._flipped
            key = np.where(within, self._keys, -1).max(axis=0)
            out[i0:i0 + step] = np.where(key >= 0, n - 1 - key % n, -1)
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

    def boundary_gap(self, angle: float) -> int:
        """Gap whose boundary arc holds the boundary point at ``angle``: the
        arc of the last start at or below angle mod 2 pi, or, below the
        first start, the last arc, which wraps past 2 pi."""
        return self.arc_gaps[bisect.bisect_right(self.arc_starts, angle % (2 * math.pi)) - 1]

    def resolve(self, base) -> int:
        """The gap a base names: None for the gap of 0, a disk point as
        PointH2 or complex for its gap, or an integer gap id."""
        if base is None:
            return self.gap_of(0j)
        if isinstance(base, (PointH2, complex)):
            return self.gap_of(base)
        if isinstance(base, bool) or not isinstance(base, numbers.Integral):
            raise UnknownGap(f"gap id {base!r} is not an integer; a point goes "
                             "in as PointH2 or complex")
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

class _Scratch:
    """One worker's arrays for scoring batches of up to ``size`` arcs against
    ``n_leaves`` leaves, allocated once per sampler call and reused by every
    batch.  Rows 0-4 of ``vec`` belong to `_crossings`; rows 5-7 hold a
    random chunk's x, y and |c|^2, and ``cand`` the x, y, |c|^2 and
    directions of the random arcs waiting to be scored.  Two of these
    share memory with arrays that hold nothing live meanwhile:

    - the directions in ``cand`` are the first ``size`` doubles of
      ``rows``, which only `_crossings` writes, after its first step has
      read them;
    - ``keep``, the mask of a chunk's arcs that can cross a leaf, is a
      bool view of row 1 of ``vec``, free from the mask's making to its
      reading.
    """

    def __init__(self, n_leaves: int, size: int):
        self.vec = np.empty((8, size))
        self.rows = np.empty((2, size, 3))
        self.prod = np.empty((2, size, n_leaves))
        self.cand = (*np.empty((3, size)), self.rows.reshape(-1)[:size])
        self.keep = self.vec[1].view(bool)


def _cos_sin(angle: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of an angle array, into out[0] and out[1], from one tan of
    the half angle t: (1 - t^2)/(1 + t^2) and 2t/(1 + t^2); out[2] and
    out[3] are scratch.  numpy's tan is SIMD-vectorised; its cos and sin
    took 8 times as long per element, and exp(1j x) 20."""
    cos, sin, t, den = out
    np.multiply(0.5, angle, out=sin)
    np.tan(sin, out=t)
    np.multiply(t, t, out=cos)
    np.add(1.0, cos, out=den)
    np.subtract(1.0, cos, out=cos)
    cos /= den
    np.multiply(2.0, t, out=sin)
    sin /= den
    return cos, sin


def _crossings(polars_t: np.ndarray, x: np.ndarray, y: np.ndarray,
               r2: np.ndarray, dirs: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """(N, n) mask, 1.0 or 0.0 in ``scratch``, of the leaves that each unit
    arc crosses.  The arcs have centres c = x + iy, |c|^2 = ``r2``, and
    directions ``dirs``; ``polars_t`` is the (3, n) transpose of the polars.

    Each arc is scored from its centre with real arithmetic only:

    - The side form.  A leaf with polar u = (u0, u1, u2) puts a disk point z
      on the side of the sign of g(z) = 2 Re(conj(u_c) z) - u2 (1 + |z|^2),
      u_c = u0 + i u1.  That is `side_of` times 1 - |z|^2 > 0.
    - Pulled back by the isometry M(s) = (s + c)/(1 + conj(c) s), which
      sends 0 to c: g(M(s)) |1 + conj(c) s|^2 = alpha (1 + |s|^2)
      + 2 Re(conj(beta) s), with alpha = g(c) and
      beta = u_c + conj(u_c) c^2 - 2 u2 c.
    - The arc's ends are M(+-r e^{i phi}), r = tanh(1/4).  Divided by
      1 + r^2 > 0, their values are (A +- K B) . u with
      K = 2r/(1 + r^2) = tanh(1/2), A = (2x, 2y, -(1 + |c|^2)) and, for
      c^2 = a + ib, B = (cos phi (1 + a) + b sin phi,
      b cos phi + sin phi (1 - a), -2 (x cos phi + y sin phi)).

    The arc crosses a leaf when the two values have opposite signs.  Each
    step writes into ``scratch`` with the ufunc and operands that the
    formulas above name, so the mask's bits do not depend on the buffers.
    """
    m = len(x)
    vec = scratch.vec[:, :m]
    cos_d, sin_d = _cos_sin(dirs, vec[:4])
    a, b, w = vec[2:5]
    across, ends = scratch.rows[:, :m]
    # a + ib = c^2, then across = K B column by column
    np.multiply(2.0, x, out=b)
    b *= y
    np.multiply(x, x, out=a)
    np.multiply(y, y, out=w)
    a -= w
    np.add(1.0, a, out=w)
    w *= cos_d
    np.multiply(b, sin_d, out=across[:, 0])
    across[:, 0] += w
    np.subtract(1.0, a, out=w)
    w *= sin_d
    b *= cos_d
    np.add(b, w, out=across[:, 1])
    np.multiply(x, cos_d, out=a)
    np.multiply(y, sin_d, out=w)
    a += w
    np.multiply(-2.0, a, out=across[:, 2])
    across *= math.tanh(0.5)
    sp, sq = scratch.prod[:, :m]
    for plus_minus, out in ((np.add, sp), (np.subtract, sq)):
        # A, made again for each end: one (N, 3) array fewer
        np.multiply(2.0, x, out=ends[:, 0])
        np.multiply(2.0, y, out=ends[:, 1])
        np.add(1.0, r2, out=ends[:, 2])
        np.negative(ends[:, 2], out=ends[:, 2])
        plus_minus(ends, across, out=ends)  # A +- K B
        np.matmul(ends, polars_t, out=out)
    sp *= sq
    return np.less(sp, 0.0, out=sq)


def _reaching(polars_a: np.ndarray, m: int, scratch: _Scratch) -> np.ndarray:
    """Indices of the arcs of the random chunk of ``m`` arcs in
    ``scratch.vec`` (rows 5-7: x, y and |c|^2 of each centre c = x + iy)
    that can cross a leaf.  ``polars_a`` holds the polars' rows (-u2, 2 u0,
    2 u1).

    An arc is kept when its centre lies within distance asinh(_NEAR) of
    some leaf u, that is when |A . u| <= _NEAR (1 - |c|^2), with the A of
    `_crossings`: A . u = g(c) is sinh(dist(c, u)) (1 - |c|^2), signed.

    A dropped arc crosses nothing, and `_crossings` would give it an
    all-zero row, so the sampler's maximum does not move:

    - Its centre lies farther than asinh(1.01 sinh(1/2)) = 1/2 + 0.0046
      from every leaf, and every point of the arc within 1/2 of the centre.
      So both ends lie at least 0.0046 off each leaf, on the centre's side.
    - `_crossings` gives an end e the value sinh(dist(e, u)) (1 - |c|^2) /
      cosh(1/2): its isometry M scales 1 - |s|^2 by (1 - |c|^2) / |1 +
      conj(c) s|^2, and (1 - r^2) / (1 + r^2) = 1 / cosh(1/2).  So both
      values exceed 0.0041 (1 - |c|^2) in size and have the centre's sign.
    - The rounding of A . u, of the bound and of the end values is a few
      ulps of three terms each at most 4 (1 + |u2|) in size: under 100 u
      (1 + |u2|) for the unit roundoff u.  Random centres have |c| < 0.999, at
      distance rho < 7.6 from 0 with e^rho < 4 / (1 - |c|^2), and |u2| =
      sinh(dist(0, u)) < e^(rho + dist(c, u)).  Near the bound, where
      dist(c, u) < 0.51, that rounding is below 3e-8 (1 - |c|^2): far under
      the bound's 1% margin, 0.0052 (1 - |c|^2), and the ends' 0.0041 (1 -
      |c|^2).  Farther out the values outgrow their rounding.

    The products and the minimum are taken in ``scratch.prod`` and rows 2-4
    of ``scratch.vec``, which hold nothing live between batches.
    """
    vec, n = scratch.vec, len(polars_a)
    r2 = vec[7, :m]
    # A . u = (1 + |c|^2, x, y) . (-u2, 2 u0, 2 u1), with x and y in rows 5, 6
    np.add(1.0, r2, out=vec[4, :m])
    alpha = scratch.prod.reshape(-1)[:n * m].reshape(n, m)
    np.matmul(polars_a, vec[4:7, :m], out=alpha)
    np.abs(alpha, out=alpha)
    nearest = np.minimum.reduce(alpha, axis=0, out=vec[3, :m])
    bound = np.subtract(1.0, r2, out=vec[2, :m])
    bound *= _NEAR
    return np.flatnonzero(np.less_equal(nearest, bound, out=scratch.keep[:m]))


def _chunk(i: int, n: int) -> slice:
    """The i-th chunk of n arcs."""
    return slice(i * _CHUNK_ARCS, min((i + 1) * _CHUNK_ARCS, n))


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
    attains it when the sample pool contains a witnessing arc.  Each arc's
    two end signs come from two real linear forms of its centre and
    direction, pulled back from the leaves' side form (see `_crossings`),
    with no complex arithmetic and no end point computed.

    The arcs are taken in fixed-size chunks on up to ``threads`` threads
    (by default the usable CPUs; never more than those or the chunks); the
    result, a maximum over arcs, does not depend on the thread count.  Each
    random chunk draws its own arcs, so memory does not grow with
    ``n_arcs``.  Of the random arcs, only those whose centre lies near
    enough to a leaf to cross it (see `_reaching`) are scored, in full
    batches of a chunk's size; the others' measure is 0.
    """
    if n_arcs < 1:
        raise NonpositiveInput(f"n_arcs must be at least 1, got {n_arcs}")
    ranks = validate(lam).ranks.tolist()
    if not lam.leaves:
        return 0.0
    rng = np.random.default_rng(seed)
    n = len(lam)

    centers_list = []
    dirs_list = []

    if targeted:
        near = [[] for _ in range(n)]
        for i, j, c in lam.near_pairs:
            near[i].append((j, c))
        for i in range(n):
            # arcs through the point of the leaf closest to the origin
            onleaf = foot_on_geodesic(0j, lam.polars[i])
            centers_list.append(np.full(64, onleaf))
            dirs_list.append(rng.uniform(0, 2 * math.pi, 64))
            for j, c in near[i]:
                if c < 1.0 - ASYMPTOTIC_TOL:  # crossing by the polars: no witness
                    continue
                if c < 1.0 + ASYMPTOTIC_TOL:
                    # asymptotic pair: probe ever deeper into the shared
                    # cusp, at the first of leaf i's ends that ranks with j's
                    t_shared = next((t for t, r in zip(lam.leaves[i].angles(), ranks[i])
                                     if r in ranks[j]), None)
                    if t_shared is None:
                        continue
                    depths = np.arange(1.0, 14.0, 0.5)
                    zs = np.array([point_along(0j, t_shared, s) for s in depths])
                    centers_list.append(zs)
                    dirs_list.append(np.full(len(zs), t_shared + math.pi / 2.0))
                    continue
                f1, f2 = perpendicular_feet(lam.polars[i], lam.polars[j])
                mid = _geodesic_midpoint(f1, f2)
                direction = _initial_direction(mid, f2)
                # exact witness plus jittered copies
                centers_list.append(np.array([mid]))
                dirs_list.append(np.array([direction]))
                jn = 120
                jz = mid + (rng.normal(0, 0.02, jn) + 1j * rng.normal(0, 0.02, jn))
                jz = np.where(np.abs(jz) < 0.995, jz, mid)
                centers_list.append(jz)
                dirs_list.append(direction + rng.normal(0, 0.05, jn))

    # a C-ordered copy: at 2-8 leaves the products ran 2-3 times as fast
    # against it as against the view lam.polars.T, with the same bits
    polars_t, weights = np.ascontiguousarray(lam.polars.T), np.asarray(lam.weights)
    # the rows (-u2, 2 u0, 2 u1) that `_reaching` takes
    polars_a = lam.polars[:, [2, 0, 1]] * np.array([-1.0, 2.0, 2.0])
    n_targeted = sum(len(c) for c in centers_list)
    if n_targeted:
        t_centers = np.concatenate(centers_list)
        t_x, t_y = t_centers.real, t_centers.imag
        t_r2 = t_x * t_x + t_y * t_y
        t_dirs = np.concatenate(dirs_list)
    n_random = max(n_arcs - n_targeted, 0)
    # Sample centres within the hyperbolic radius that covers all feet.  The
    # random arcs are the stream of `state` cut into three draws of n_random
    # uniforms (|c|^2, arg c, direction).  A chunk draws its slice of each
    # from a copy advanced to its offset: a double takes one 64-bit output,
    # and random() * high is uniform(0, high) bit for bit.
    state = rng.bit_generator.state
    highs = (0.999**2, 2 * math.pi, 2 * math.pi)
    # chunks 0 .. t_chunks - 1 are targeted, the rest random; a worker takes
    # every workers-th, so no list of chunks grows with n_arcs
    t_chunks = -(-n_targeted // _CHUNK_ARCS)  # ceiling divisions
    n_chunks = t_chunks + -(-n_random // _CHUNK_ARCS)

    def score(part: range) -> float:
        """Largest measure over one worker's chunks, all in one scratch."""
        size = min(_CHUNK_ARCS, max(n_targeted, n_random))
        scratch = _Scratch(n, size)
        bits = np.random.PCG64()  # set to `state` and advanced before each draw
        draw = np.random.Generator(bits).random

        def uniforms(row, k: int, start: int) -> None:
            """Uniforms start, start + 1, ... of draw k into row."""
            bits.state = state
            bits.advance(k * n_random + start)
            draw(out=row)
            row *= highs[k]

        def measure(x, y, r2, dirs) -> float:
            mask = _crossings(polars_t, x, y, r2, dirs, scratch)
            # the arcs' transverse measures, in vec[0], which is free again
            return float(np.matmul(mask, weights, out=scratch.vec[0, :len(x)]).max())

        best, fill = 0.0, 0
        for i in part:
            if i < t_chunks:
                sl = _chunk(i, n_targeted)
                best = max(best, measure(t_x[sl], t_y[sl], t_r2[sl], t_dirs[sl]))
                continue
            sl = _chunk(i - t_chunks, n_random)
            # arg c is drawn into y's row, which its sine then overwrites
            x, y, r2 = drawn = scratch.vec[5:, :sl.stop - sl.start]
            uniforms(r2, 0, sl.start)
            uniforms(y, 1, sl.start)
            np.sqrt(r2, out=x)
            cos_t, sin_t = _cos_sin(y, scratch.vec[:4, :len(x)])
            np.multiply(x, sin_t, out=y)
            x *= cos_t
            # The arcs that can cross a leaf join the batch in cand, which
            # is scored when full; a clipped take writes into out unbuffered.
            # The directions wait in row 0, and are drawn again from the
            # first arc left over when a full batch is scored mid-chunk.
            kept = _reaching(polars_a, len(x), scratch)
            dirs = scratch.vec[0, :len(x)]
            uniforms(dirs, 2, sl.start)
            done = 0
            while done < len(kept):
                if done:
                    first = int(kept[done])
                    uniforms(dirs[first:], 2, sl.start + first)
                step = min(len(kept) - done, size - fill)
                for row, batch in zip((*drawn, dirs), scratch.cand):
                    np.take(row, kept[done:done + step], out=batch[fill:fill + step],
                            mode="clip")
                done += step
                fill += step
                if fill == size:
                    best = max(best, measure(*scratch.cand))
                    fill = 0
            del kept  # before the next chunk's indices are made
        if fill:
            best = max(best, measure(*(row[:fill] for row in scratch.cand)))
        return best

    workers = _worker_count(threads, n_chunks)
    if workers == 1:
        return score(range(n_chunks))
    # imported here: concurrent.futures loads logging, which a single worker
    # or a command without the sampler does not need
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as ex:
        return max(ex.map(score, [range(w, n_chunks, workers) for w in range(workers)]))


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
