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
    SHARED_TOL,
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
# arcs per sampler chunk and batch; 2**15 sampled 1-8 leaves about 11%
# faster at 2 threads, but its buffers took 3.5 MiB more peak RSS in the
# CLI at 6 leaves and about 8 MiB more over the benchmark's pool
_CHUNK_ARCS = 1 << 14
# sinh of the farthest a random arc's centre may lie from a leaf and still
# be scored: sinh(1/2), the farthest a crossing unit arc's centre lies, and
# a 1% margin (see `_reaching`)
_NEAR = 1.01 * math.sinh(0.5)
# the scales of the normals that jitter a targeted arc across a near pair's
# common perpendicular: its centre's real and imaginary parts, its direction
_JITTER = np.array([[0.02], [0.02], [0.05]])
_U = 2.0**-53  # unit roundoff of a double


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
        that distance.  A pair that shares an endpoint rank of the nesting
        is asymptotic and has c = 1.0, whatever its polars say; a pair with
        c < 1 + ASYMPTOTIC_TOL, asymptotic or crossing by the polars, counts
        as distance 0 too."""
        i, j = np.triu_indices(len(self), 1)
        cs = np.abs(_mink_dot(self.polars[i], self.polars[j]))
        ri, rj = self.nesting.ranks[i], self.nesting.ranks[j]
        shared = (ri[:, :, None] == rj[:, None, :]).any(axis=(1, 2))
        cs = np.where(shared, 1.0, cs).tolist()
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


def _fixed_sums(weights, chosen: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[p] = the sum of weights[k] over the k with chosen[k, p], added
    one at a time in increasing k from 0.0: a ufunc per leaf over all
    columns, so no BLAS kernel picks the order.  Every measure in this
    module, exact or sampled, is such a sum.

    Such a sum over a set of leaves is at most the sum over any superset,
    for positive weights: adding a weight never lowers a partial sum, and
    rounding is monotone, so, leaf by leaf, the subset's partial sum stays
    at most the superset's.  So an arc whose crossed leaves lie in one of
    `roundness`'s chains measures at most `roundness`, not even a rounding
    more.
    """
    out.fill(0.0)
    for w, row in zip(weights, chosen):
        np.add(out, w, out=out, where=row)
    return out


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
    return float(_fixed_sums(lam.weights, crossed[:, None], np.empty(1))[0])


def roundness(lam: FiniteLamination) -> float:
    """Exact supremum of the transverse measure over open unit arcs.

    The crossed set of any geodesic segment is an interval in the
    separation order, so the supremum is the best interval [i..j] whose
    extreme leaves are one of `FiniteLamination.near_pairs`.  Single leaves
    are always crossable.  The leaves strictly between i and j are those
    with exactly one of i, j inside: the symmetric difference of their
    ancestor sets.  The weights of a chain, i and j among them, are added
    by `_fixed_sums`, in increasing index, one vectorised pass over all
    pairs per leaf: the order in which the sampler and `transverse_measure`
    add an arc's crossed weights.
    """
    nest = validate(lam)
    if not lam.leaves:
        return 0.0
    weights = np.asarray(lam.weights)
    best = float(weights.max())
    if not lam.near_pairs:
        return best
    i, j = np.array([p[:2] for p in lam.near_pairs]).T
    between = nest.inside[:, i] ^ nest.inside[:, j]
    pairs = np.arange(len(i))
    between[i, pairs] = True
    between[j, pairs] = True
    total = _fixed_sums(weights, between, np.empty(len(i)))
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
    directions of the random arcs waiting to be scored.  Three of these
    share memory with arrays that hold nothing live meanwhile:

    - the directions in ``cand`` are the first ``size`` doubles of
      ``rows``, which only `_crossings` writes, after its first step has
      read them;
    - ``keep``, the mask of a chunk's arcs that can cross a leaf, is a
      bool view of row 1 of ``vec``, free from the mask's making to its
      reading;
    - ``crossed``, the (n_leaves, size) mask that `_crossings` returns, is
      a bool view of the second of its products, which it has read by then.
    """

    def __init__(self, n_leaves: int, size: int):
        self.vec = np.empty((8, size))
        self.rows = np.empty((2, 3, size))
        self.prod = np.empty((2, n_leaves, size))
        self.cand = (*np.empty((3, size)), self.rows.reshape(-1)[:size])
        self.keep = self.vec[1].view(bool)
        self.crossed = self.prod[1].view(bool)[:, :size]


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
    """(n, N) bool mask, in ``scratch``, of the leaves that each unit arc
    crosses, a row per leaf.  The arcs have centres c = x + iy, |c|^2 =
    ``r2``, and directions ``dirs``; ``polars_t`` is the (3, n) transpose of
    the polars.

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
    A value is (e0 u0 + e1 u1) + e2 u2 for an end's row e = A +- K B, with
    elementwise ufuncs and no BLAS call, so neither do they depend on the
    BLAS kernel.  The leaves are taken five at a time, the rows of ``vec``
    that are free by then holding the products being added.
    """
    m = len(x)
    vec = scratch.vec[:, :m]
    cos_d, sin_d = _cos_sin(dirs, vec[:4])
    a, b, w = vec[2:5]
    across, ends = scratch.rows[:, :, :m]
    # a + ib = c^2, then across = K B row by row
    np.multiply(2.0, x, out=b)
    b *= y
    np.multiply(x, x, out=a)
    np.multiply(y, y, out=w)
    a -= w
    np.add(1.0, a, out=w)
    w *= cos_d
    np.multiply(b, sin_d, out=across[0])
    across[0] += w
    np.subtract(1.0, a, out=w)
    w *= sin_d
    b *= cos_d
    np.add(b, w, out=across[1])
    np.multiply(x, cos_d, out=a)
    np.multiply(y, sin_d, out=w)
    a += w
    np.multiply(-2.0, a, out=across[2])
    across *= math.tanh(0.5)
    # A into vec[:3]; then ends = A + K B, and across becomes A - K B
    np.multiply(2.0, x, out=vec[0])
    np.multiply(2.0, y, out=vec[1])
    np.add(1.0, r2, out=vec[2])
    np.negative(vec[2], out=vec[2])
    np.add(vec[:3], across, out=ends)
    np.subtract(vec[:3], across, out=across)
    sp, sq = scratch.prod[:, :, :m]
    tmp = vec[:5]
    for k in range(0, len(sp), len(tmp)):
        u0, u1, u2 = polars_t[:, k:k + len(tmp), None]
        t = tmp[:len(u0)]
        for e, out in ((ends, sp[k:k + len(t)]), (across, sq[k:k + len(t)])):
            np.multiply(e[0], u0, out=out)
            out += np.multiply(e[1], u1, out=t)
            out += np.multiply(e[2], u2, out=t)
    sp *= sq
    return np.less(sp, 0.0, out=scratch.crossed[:, :m])


def _reaching(polars_a: np.ndarray, tally: np.ndarray, m: int, floor: float,
              scratch: _Scratch) -> np.ndarray:
    """Indices of the arcs of the random chunk of ``m`` arcs in
    ``scratch.vec`` (rows 5-7: x, y and |c|^2 of each centre c = x + iy)
    whose near leaves can outweigh ``floor``.  ``polars_a`` holds the
    polars' rows (-u2, 2 u0, 2 u1), and ``tally`` the rows [weights; ones].

    A leaf u is near an arc when the arc's centre lies within distance
    asinh(_NEAR) of it, that is when |A . u| <= _NEAR (1 - |c|^2), with the
    A of `_crossings`: A . u = g(c) is sinh(dist(c, u)) (1 - |c|^2), signed.
    ``tally`` times the (n, N) 0/1 near mask gives each arc's near weight P
    and near count k, and the arc is kept when P (1 + 4 (k - 1) u) > floor,
    for the unit roundoff u = 2^-53.  At floor 0 that keeps exactly the
    arcs with a near leaf.

    A dropped arc crosses only near leaves, so its measure in the sampler,
    a float sum of at most k of the near weights, is at most the floor:

    - A leaf that is not near the arc is not crossed, and `_crossings` gives
      it a 0 in the arc's row:
      - The centre lies farther than asinh(1.01 sinh(1/2)) = 1/2 + 0.0046
        from the leaf, and every point of the arc within 1/2 of the
        centre.  So both ends lie at least 0.0046 off the leaf, on the
        centre's side.
      - `_crossings` gives an end e the value sinh(dist(e, u)) (1 - |c|^2) /
        cosh(1/2): its isometry M scales 1 - |s|^2 by (1 - |c|^2) / |1 +
        conj(c) s|^2, and (1 - r^2) / (1 + r^2) = 1 / cosh(1/2).  So both
        values exceed 0.0041 (1 - |c|^2) in size and have the centre's sign.
      - The rounding of A . u, of the bound and of the end values is a few
        ulps of three terms each at most 4 (1 + |u2|) in size: under 100 u
        (1 + |u2|).  Random centres have |c| < 0.999, at distance rho < 7.6
        from 0 with e^rho < 4 / (1 - |c|^2), and |u2| = sinh(dist(0, u)) <
        e^(rho + dist(c, u)).  Near the bound, where dist(c, u) < 0.51,
        that rounding is below 3e-8 (1 - |c|^2): far under the bound's 1%
        margin, 0.0052 (1 - |c|^2), and the ends' 0.0041 (1 - |c|^2).
        Farther out the values outgrow their rounding.
    - Any float sum of j <= k nonnegative weights of exact sum S <= S_k, the
      near weights' exact sum, is at most S (1 + gamma_(j-1)), gamma_i = i u
      / (1 - i u), and the computed P is at least S_k (1 - gamma_(k-1)).  So
      the measure is at most P (1 + 2.01 (k - 1) u) for k <= 64, and for
      k = 1 it is the one weight, unrounded.  The factor 1 + 4 (k - 1) u,
      taken as 4 k u + (1 - 4 u), is exact, and P times it rounds by at
      most u of itself: the kept test's left side is at least P (1 + 4 (k -
      1) u) (1 - u) >= P (1 + 2.01 (k - 1) u), and P itself for k = 1.

    The products and the tallies are taken in ``scratch.prod`` and rows 2-4
    of ``scratch.vec``, which hold nothing live between batches.
    """
    vec, n = scratch.vec, len(polars_a)
    r2 = vec[7, :m]
    # A . u = (1 + |c|^2, x, y) . (-u2, 2 u0, 2 u1), with x and y in rows 5, 6
    np.add(1.0, r2, out=vec[4, :m])
    near = scratch.prod.reshape(-1)[:n * m].reshape(n, m)
    np.matmul(polars_a, vec[4:7, :m], out=near)
    np.abs(near, out=near)
    bound = np.subtract(1.0, r2, out=vec[2, :m])
    bound *= _NEAR
    np.less_equal(near, bound, out=near)  # the 0/1 near mask, as doubles
    weight, count = np.matmul(tally, near, out=vec[2:4, :m])
    count *= 4 * _U
    count += 1.0 - 4 * _U
    weight *= count
    return np.flatnonzero(np.greater(weight, floor, out=scratch.keep[:m]))


def _random_arc_bound(polars: np.ndarray, weights: np.ndarray) -> float:
    """B, a bound on the sampler's measure of every arc centred within 0.999
    of 0, random arcs among them: the largest `_fixed_sums` over one leaf,
    or over a set T(i, j) for a near pair i < j.  Leaves are near when
    their polars' `_mink_dot` is at most 1.5431 in size (cosh 1 =
    1.54308).  T(i, j) holds i, j and every leaf k that the polars put
    between them: i and j lie on opposite sides of k, leaf v lying on the
    side sign(u_k2 - <u_k, u_v> u_v2) of leaf k.  When a near pair has
    |<u_i, u_j>| <= 1 + 1e-6 (asymptotic leaves among them), T(i, j) holds
    instead every leaf k, i <= k <= j, near both i and j.

    A unit arc (centre c, |c| < 0.999, ends p and q) measures the
    `_fixed_sums` of the set S of leaves that `_crossings` says it crosses.
    S is empty, one leaf or inside some T(i, j), so its sum is at most B,
    T's sum being at least S's (see `_fixed_sums`):

    - An end's computed side of a leaf is its side unless the end lies
      within d = 4e-8 of the leaf.  By `_reaching`'s bounds an end value
      rounds by less than 3e-8 (1 - |c|^2), and an end at distance t off
      the leaf has the value sinh(t) (1 - |c|^2) / cosh(1/2) in size, more
      than that for t >= d.  So a crossed leaf meets the arc or passes
      within d of an end, and lies within 1/2 + d of c, within 8.11 of 0 (c
      lies within 2 atanh(0.999) < 7.6 of 0).  Its polar has |u2| <=
      sinh(8.11) < 1700 and the Minkowski norm 1 within 1e-8, and the
      product of two such polars rounds by under 4 u 9e6 < 1e-8, each of
      its three terms being under 3e6 in size.
    - Two crossed leaves u, v lie within 1 + 2d of each other, through the
      arc.  Exactly, |<u, v>| <= cosh(1 + 8e-8) (1 + 1e-8) < 1.54308075
      (the cosh of the distance of leaves that meet is at most 1), so the
      computed product is under the cut: u and v are near.
    - With a close near pair, S, i its first and j its last leaf in index
      order, lies in T(i, j).  Otherwise two crossed leaves have |<u, v>| >
      1 + 1e-6 - 1e-8, the cosh of their distance exceeds 1 + 9.7e-7, and
      they lie more than 1.3e-3 > 2d apart.  So at most one crossed leaf
      passes within d of p.  If p's computed side of it is wrong (or p
      lies on it), move p along its perpendicular to the leaf to just past
      it, by less than d: the path stays within d of that leaf and meets no
      other crossed leaf, whose computed sides of p were right.  Likewise
      at q.  The moved ends lie strictly on the computed sides of every
      leaf of S, opposite for each, so the segment between them crosses
      every leaf of S, once.  Name its first and last i and j (swapped if i
      > j): every other leaf k of S crosses it between them, so i lies on
      the first end's side of k and j on the other's.  S lies in T(i, j),
      as the polar sides of i and j for k are right:
    - Take w = u_k - (<u_k, u_v> / <u_v, u_v>) u_v.  It is orthogonal to
      u_v, and timelike for disjoint leaves, so +-w is a point of leaf v,
      and <w, u_k> = <w, w> < 0: leaf v lies where <x, u_k> has the sign of
      -w2.  Now |w2| >= sqrt(-<w, w>) = sqrt(<u_k, u_v>^2 / <u_v, u_v> -
      <u_k, u_k>) > 1.3e-3 for two leaves of S, and the computed u_k2 -
      <u_k, u_v> u_v2 differs from w2 by under 1.7e-5 for the product's
      rounding, 2.7e-5 for the norm and a few ulps: it has w2's sign.
    """
    dots = _mink_dot(polars[:, None], polars[None, :])
    near = np.abs(dots) <= 1.5431
    i, j = np.nonzero(np.triu(near, 1))
    k = np.arange(len(near))[:, None]
    if (np.abs(dots[i, j]) > 1.0 + 1e-6).all():
        side = np.less(polars[:, None, 2] - dots * polars[None, :, 2], 0.0)
        between = (side[:, i] != side[:, j]) | (k == i) | (k == j)
    else:
        between = near[:, i] & near[:, j] & (i <= k) & (k <= j)
    sums = _fixed_sums(weights, between, np.empty(len(i)))
    return float(max(weights.max(), sums.max(initial=0.0)))


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
    with no complex arithmetic and no end point computed.  An arc's measure
    adds its crossed weights in increasing leaf index (`_fixed_sums`).
    Neither step calls BLAS, so the result does not depend on the BLAS
    kernel.

    The arcs are taken in fixed-size chunks on up to ``threads`` threads
    (by default the usable CPUs; never more than those or the chunks); the
    result, a maximum over arcs, does not depend on the thread count.  Each
    random chunk draws its own arcs, so memory does not grow with
    ``n_arcs``.  The targeted arcs are scored first, on the calling thread,
    and their maximum is the floor.  `_random_arc_bound` gives a bound B on
    the measure of every arc centred within 0.999 of 0.  The 120 jittered
    copies of each perpendicular's arc lie there when its midpoint does,
    and they are drawn but not scored when the other targeted arcs reach
    B.  When the floor reaches B, as for one leaf, the floor is the result
    and no random arc is drawn.  Otherwise, of the random arcs, only those
    whose near leaves (see `_reaching`) can outweigh the best measure found
    so far are scored, in full batches of a chunk's size; the others
    measure at most that.
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
    # the midpoints and directions of the near pairs' common perpendiculars,
    # and the normals that jitter 120 copies of each
    mids, heads, noise = [], [], []

    if targeted:
        near = [[] for _ in range(n)]
        for i, j, c in lam.near_pairs:
            near[i].append((j, c))
        for i in range(n):
            # arcs through the point of the leaf closest to the origin
            onleaf = foot_on_geodesic(0j, lam.polars[i])
            centers_list.append(np.full(64, onleaf))
            dirs_list.append(rng.uniform(0, 2 * math.pi, 64))
            first = len(mids)
            for j, c in near[i]:
                # leaves sharing a rank, also across angle 0, are asymptotic
                # whatever c is: probe ever deeper into the shared cusp, at
                # the first of leaf i's ends that ranks with j's
                t_shared = next((t for t, r in zip(lam.leaves[i].angles(), ranks[i])
                                 if r in ranks[j]), None)
                if t_shared is not None:
                    depths = np.arange(1.0, 14.0, 0.5)
                    zs = np.array([point_along(0j, t_shared, s) for s in depths])
                    centers_list.append(zs)
                    dirs_list.append(np.full(len(zs), t_shared + math.pi / 2.0))
                    continue
                if c < 1.0 + ASYMPTOTIC_TOL:  # crossing or asymptotic by the polars
                    continue
                f1, f2 = perpendicular_feet(lam.polars[i], lam.polars[j])
                mids.append(_geodesic_midpoint(f1, f2))
                heads.append(_initial_direction(mids[-1], f2))
            if len(mids) > first:
                # per perpendicular, 120 standard normals each for the real
                # and imaginary parts of the centre and for the direction
                noise.append(rng.standard_normal(360 * (len(mids) - first)))
        # the exact witnesses; their jittered copies are scored below
        centers_list.append(np.array(mids, dtype=complex))
        dirs_list.append(np.array(heads))

    # a C-ordered copy: at 2-8 leaves the products ran 2-3 times as fast
    # against it as against the view lam.polars.T, with the same bits
    polars_t, weights = np.ascontiguousarray(lam.polars.T), np.asarray(lam.weights)
    # the rows (-u2, 2 u0, 2 u1) and [weights; ones] that `_reaching` takes
    polars_a = lam.polars[:, [2, 0, 1]] * np.array([-1.0, 2.0, 2.0])
    tally = np.stack([weights, np.ones(n)])
    n_targeted = sum(len(c) for c in centers_list) + 120 * len(mids)
    n_random = max(n_arcs - n_targeted, 0)

    def measure(x, y, r2, dirs, scratch: _Scratch) -> float:
        mask = _crossings(polars_t, x, y, r2, dirs, scratch)
        # the arcs' transverse measures, in vec[0], which is free again
        return float(_fixed_sums(weights, mask, scratch.vec[0, :len(x)]).max())

    def raise_floor(floor: float, centers: np.ndarray, dirs: np.ndarray) -> float:
        """The floor raised to the largest measure of these targeted arcs,
        scored in chunks in a scratch of their size, which is freed before
        the workers make theirs."""
        x, y = centers.real, centers.imag
        r2 = x * x + y * y
        scratch = _Scratch(n, min(_CHUNK_ARCS, len(x)))
        for i in range(-(-len(x) // _CHUNK_ARCS)):  # ceiling division
            sl = _chunk(i, len(x))
            floor = max(floor, measure(x[sl], y[sl], r2[sl], dirs[sl], scratch))
        return floor

    # the targeted arcs first: their maximum is the floor that a random
    # arc's near leaves must outweigh
    floor = 0.0
    if targeted:
        floor = raise_floor(floor, np.concatenate(centers_list), np.concatenate(dirs_list))
    bound = _random_arc_bound(lam.polars, weights) if n_random or mids else math.inf
    # B bounds the jittered copies too when every midpoint lies within 0.999
    # of 0: a copy is centred within 0.995 of 0 or at its midpoint
    if mids and not (floor >= bound and max(map(abs, mids)) < 0.999):
        # normal(0, s) is 0 + s z for the same stream of standard normals z
        mid, head = np.array(mids)[:, None], np.array(heads)[:, None]
        z = np.concatenate(noise).reshape(len(mids), 3, 120)
        re, im, turn = (0.0 + _JITTER * z).swapaxes(0, 1)
        jz = mid + (re + 1j * im)
        floor = raise_floor(floor, np.where(np.abs(jz) < 0.995, jz, mid).ravel(),
                            (head + turn).ravel())
    if not n_random or floor >= bound:
        return floor
    # Sample centres within the hyperbolic radius that covers all feet.  The
    # random arcs are the stream of `state` cut into three draws of n_random
    # uniforms (|c|^2, arg c, direction).  A chunk draws its slice of each
    # from a copy advanced to its offset: a double takes one 64-bit output,
    # and random() * high is uniform(0, high) bit for bit.
    state = rng.bit_generator.state
    highs = (0.999**2, 2 * math.pi, 2 * math.pi)
    n_chunks, size = -(-n_random // _CHUNK_ARCS), min(_CHUNK_ARCS, n_random)

    def score(part: range) -> float:
        """Largest measure over one worker's random chunks and the floor,
        all in one scratch."""
        scratch = _Scratch(n, size)
        bits = np.random.PCG64()  # set to `state` and advanced before each draw
        draw = np.random.Generator(bits).random

        def uniforms(row, k: int, start: int) -> None:
            """Uniforms start, start + 1, ... of draw k into row."""
            bits.state = state
            bits.advance(k * n_random + start)
            draw(out=row)
            row *= highs[k]

        best, fill = floor, 0
        for i in part:
            sl = _chunk(i, n_random)
            # arg c is drawn into y's row, which its sine then overwrites
            x, y, r2 = drawn = scratch.vec[5:, :sl.stop - sl.start]
            uniforms(r2, 0, sl.start)
            uniforms(y, 1, sl.start)
            np.sqrt(r2, out=x)
            cos_t, sin_t = _cos_sin(y, scratch.vec[:4, :len(x)])
            np.multiply(x, sin_t, out=y)
            x *= cos_t
            # The arcs that can beat the best so far join the batch in cand,
            # which is scored when full; a clipped take writes into out
            # unbuffered.  The directions are drawn into row 0 from the first
            # kept arc, and again from the first arc left over when a full
            # batch is scored mid-chunk.
            kept = _reaching(polars_a, tally, len(x), best, scratch)
            dirs = scratch.vec[0, :len(x)]
            done = 0
            while done < len(kept):
                first = int(kept[done])
                uniforms(dirs[first:], 2, sl.start + first)
                step = min(len(kept) - done, size - fill)
                for row, batch in zip((*drawn, dirs), scratch.cand):
                    np.take(row, kept[done:done + step], out=batch[fill:fill + step],
                            mode="clip")
                done += step
                fill += step
                if fill == size:
                    best = max(best, measure(*scratch.cand, scratch))
                    fill = 0
            del kept  # before the next chunk's indices are made
        if fill:
            best = max(best, measure(*(row[:fill] for row in scratch.cand), scratch))
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
