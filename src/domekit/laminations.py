"""Finite measured geodesic laminations on the hyperbolic plane.

A finite lamination is a set of pairwise-disjoint complete geodesics of the
disk with strictly positive weights.  The central quantity is the roundness:
the supremum of the transverse measure over open geodesic arcs of unit
length.  For finite laminations the supremum is a combinatorial maximum over
chains of leaves, which this module computes exactly; a sampling estimator
(`roundness_brute_force`) provides the independent cross-check.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    CrossingLeaves,
    MismatchedLengths,
    NonpositiveInput,
    NonpositiveScale,
    NonpositiveWeight,
    NotTransverse,
    TooManyLeaves,
)
from .hyperbolic import (
    GeodesicH2,
    PointH2,
    boundary_side,
    dist_h2,
    geodesic_distance,
    geodesic_polar,
    point_along,
    point_vec,
    side_of,
    _mink_dot,
)

MAX_LEAVES = 64
ON_LEAF_TOL = 1e-9
# arcs per sampler chunk; fastest per arc when measured at 1-8 leaves, where
# 2**15 took twice as long per arc (its temporaries no longer stay in cache)
_CHUNK_ARCS = 1 << 14


@dataclass(frozen=True)
class GeodesicArc:
    """Open geodesic arc between two interior points of the disk."""

    p: PointH2
    q: PointH2

    def length(self) -> float:
        return dist_h2(self.p, self.q)


@dataclass
class FiniteLamination:
    """Pairwise-disjoint geodesics with positive weights."""

    leaves: list[GeodesicH2]
    weights: list[float]
    _polars: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.leaves) != len(self.weights):
            raise MismatchedLengths(
                f"{len(self.leaves)} leaves but {len(self.weights)} weights"
            )
        if len(self.leaves) > MAX_LEAVES:
            raise TooManyLeaves(f"{len(self.leaves)} leaves exceeds cap {MAX_LEAVES}")
        self.weights = [float(w) for w in self.weights]

    def __len__(self):
        return len(self.leaves)

    def polars(self) -> np.ndarray:
        """(n, 3) array of unit polar vectors, cached."""
        if self._polars is None:
            if self.leaves:
                self._polars = np.stack([geodesic_polar(g) for g in self.leaves])
            else:
                self._polars = np.zeros((0, 3))
        return self._polars

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "leaves": [[g.a.angle, g.b.angle] for g in self.leaves],
            "weights": list(self.weights),
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteLamination":
        leaves = [GeodesicH2.from_angles(t1, t2) for t1, t2 in data["leaves"]]
        lam = FiniteLamination(leaves, [float(w) for w in data["weights"]])
        validate(lam)
        return lam

    @staticmethod
    def load(path) -> "FiniteLamination":
        with open(path) as fh:
            return FiniteLamination.from_json(json.load(fh))


def validate(lam: FiniteLamination) -> None:
    """Check pairwise disjointness and weight positivity.

    Shared endpoints are allowed; strictly interleaved endpoint pairs are
    not.  Raises CrossingLeaves(i, j) or NonpositiveWeight(i).
    """
    for i, w in enumerate(lam.weights):
        if not w > 0:
            raise NonpositiveWeight(i)
    polars = lam.polars()
    n = len(lam)
    for i in range(n):
        for j in range(i + 1, n):
            c = abs(float(_mink_dot(polars[i], polars[j])))
            if c < 1.0 - 1e-12:
                raise CrossingLeaves(i, j)
            if c < 1.0 + 1e-12 and lam.leaves[i].angles() == lam.leaves[j].angles():
                raise ValueError(f"leaves {i} and {j} are identical")


def transverse_measure(lam: FiniteLamination, arc: GeodesicArc) -> float:
    """Sum of weights of leaves crossed by the open arc.

    Open-arc semantics: a leaf through an arc endpoint is not counted, and
    an endpoint lying on a leaf (within tolerance) raises NotTransverse.
    """
    if not lam.leaves:
        return 0.0
    polars = lam.polars()
    vp = point_vec(arc.p.z)
    vq = point_vec(arc.q.z)
    sp = polars @ np.array([vp[0], vp[1], -vp[2]])
    sq = polars @ np.array([vq[0], vq[1], -vq[2]])
    if np.any(np.abs(sp) < ON_LEAF_TOL) or np.any(np.abs(sq) < ON_LEAF_TOL):
        raise NotTransverse("arc endpoint lies on a leaf")
    crossed = (sp * sq) < 0
    return float(np.dot(crossed, lam.weights))


def _separates(polars: np.ndarray, lam: FiniteLamination, m: int, i: int, j: int) -> bool:
    """True when leaf m separates leaves i and j."""

    def side_of_leaf(k: int) -> int:
        t1, t2 = lam.leaves[k].angles()
        s1 = float(boundary_side(t1, polars[m]))
        s2 = float(boundary_side(t2, polars[m]))
        for s in (s1, s2):
            if abs(s) > 1e-12:
                return 1 if s > 0 else -1
        return 0

    si, sj = side_of_leaf(i), side_of_leaf(j)
    return si * sj == -1


def roundness(lam: FiniteLamination) -> float:
    """Exact supremum of the transverse measure over open unit arcs.

    The crossed set of any geodesic segment is an interval in the
    separation order, so the supremum is the best interval [i..j] whose
    extreme leaves lie at perpendicular distance < 1 (asymptotic pairs
    count as distance 0).  Single leaves are always crossable.
    """
    validate(lam)
    n = len(lam)
    if n == 0:
        return 0.0
    polars = lam.polars()
    weights = np.asarray(lam.weights)
    best = float(weights.max())
    for i in range(n):
        for j in range(i + 1, n):
            c = abs(float(_mink_dot(polars[i], polars[j])))
            if c >= 1.0 + 1e-12:
                d = math.acosh(c)
                if d >= 1.0:
                    continue
            total = weights[i] + weights[j]
            for m in range(n):
                if m != i and m != j and _separates(polars, lam, m, i, j):
                    total += weights[m]
            best = max(best, float(total))
    return best


def scale(lam: FiniteLamination, c: float) -> FiniteLamination:
    """Same leaves, weights multiplied by c > 0."""
    if not c > 0:
        raise NonpositiveScale(f"scale factor {c} must be positive")
    return FiniteLamination(list(lam.leaves), [w * c for w in lam.weights])


def pushforward(circle_map, lam: FiniteLamination) -> FiniteLamination:
    """Map each leaf's endpoints through a circle homeomorphism.

    ``circle_map`` is a callable angle -> angle (e.g. an earthquake boundary
    map, or a Mobius map restricted to the circle).  Weights are unchanged;
    the result is re-validated, so a numerically broken image surfaces as
    CrossingLeaves.
    """
    leaves = []
    for g in lam.leaves:
        t1 = float(circle_map(g.a.angle))
        t2 = float(circle_map(g.b.angle))
        leaves.append(GeodesicH2.from_angles(t1, t2))
    out = FiniteLamination(leaves, list(lam.weights))
    validate(out)
    return out


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
    sp = vp @ pu.T
    sq = vq @ pu.T
    return float((((sp * sq) < 0) @ weights).max())


def _chunks(n: int) -> list[slice]:
    return [slice(a, min(a + _CHUNK_ARCS, n)) for a in range(0, n, _CHUNK_ARCS)]


def _worker_count(requested: int | None, n_chunks: int) -> int:
    """Threads to start: no more than requested, usable CPUs or chunks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(requested or 1, cpus, n_chunks))


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
    (never more than the usable CPUs or the chunks); the result, a maximum
    over chunks, does not depend on the thread count.
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
                    onleaf = _foot_from_origin(lam.polars()[i])
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

    pu = lam.polars() @ np.diag([1.0, 1.0, -1.0])
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


def _foot_from_origin(u: np.ndarray) -> complex:
    p0 = np.array([0.0, 0.0, 1.0])
    v = np.cross(u, p0)
    v[2] = -v[2]
    nv = math.sqrt(abs(_mink_dot(v, v)))
    if nv < 1e-14:
        return 0j
    v = v / nv
    f = np.cross(u, v)
    f[2] = -f[2]
    f = f / math.sqrt(abs(-_mink_dot(f, f)))
    if f[2] < 0:
        f = -f
    return complex(f[0], f[1]) / (1.0 + f[2])


def _geodesic_midpoint(z1: complex, z2: complex) -> complex:
    from .hyperbolic import dist_h2 as _d

    d = _d(z1, z2)
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
                      min_gap: float = 0.05, weight_range=(0.5, 2.0)) -> FiniteLamination:
    """Random pairwise-disjoint lamination with a separation margin."""
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
    weights = rng.uniform(*weight_range, n_leaves).tolist()
    return FiniteLamination(leaves, weights)
