"""Convex hull of points on the unit sphere.

A randomized incremental construction (Clarkson and Shor, 1989): the
points are inserted in a fixed pseudo-random order, and every point not
yet inserted waits in the conflict list of one hull triangle that it sees.
Inserting a point removes the triangles visible from it, found by a walk
from its conflict triangle, and cones the horizon to it; the waiting
points of the removed triangles move to new triangles they see.  The
triangles hold their neighbours as half-edges.

Every decision is the sign of an orientation determinant, decided by a
floating-point filter with a proven error bound and, inside the bound,
exactly on the integers that the coordinates are multiples of (Shewchuk,
1997).  So the hull is the exact convex hull of the given floats, and
every point must be one of its vertices: a point of a sphere always is,
unless rounding has put it inside.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericallyCoincident

#: the float filter's error bound, derived at `_plane`
_ERR = 2.0 ** -43
#: seeds the insertion order; the hull's faces do not depend on it
_ORDER_SEED = 0x5EED


def _insertion_order(n: int) -> list[int]:
    """0, ..., n - 1 in a fixed pseudo-random order: sorted by splitmix64's
    finalizer of index + _ORDER_SEED, a 64-bit mixing hash."""
    x = np.arange(n, dtype=np.uint64) + np.uint64(_ORDER_SEED)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return np.argsort(x).tolist()


def _plane(P: list, a: int, b: int, c: int) -> tuple:
    """(nx, ny, nz, off): the plane n . x = off of the triangle (a, b, c),
    n = (b - a) x (c - a) in floats.

    The filter.  Let u = 2^-53 and every coordinate be at most 1 + 8u in
    modulus.  For a point q, g = fl(n . q - off) has the sign of the exact
    determinant D = det[b - a, c - a, q - a] whenever |g| > _ERR = 1024 u:
    - The rounded differences and products put each n_i within 4u
      (|u_j w_k| + |u_k w_j|) of the exact cross product, a sum at most
      8 (1 + 10u), and |q - a| <= 2 (1 + 4u) weights them: 200u in all.
    - The dot products n . q and n . a round by 3u sum |n_i q_i| <= 75u
      each, and the last subtraction by u |g|.
    So |g - D| <= 350u + u |g|, and |g| > 1024u leaves D the sign of g.
    Underflow adds at most a few 2^-1074, far below the margin.
    """
    ax, ay, az = P[a]
    bx, by, bz = P[b]
    cx, cy, cz = P[c]
    ux, uy, uz = bx - ax, by - ay, bz - az
    wx, wy, wz = cx - ax, cy - ay, cz - az
    nx, ny, nz = uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx
    return nx, ny, nz, nx * ax + ny * ay + nz * az


class _Exact:
    """Orientation determinants on the exact values of the coordinates.

    Every float is m 2^e with an integer m of at most 53 bits, so all the
    coordinates are integers over one common power of two, which the
    determinant's sign ignores.  The integers are made on the first call.
    """

    def __init__(self, points: np.ndarray):
        self.coords = points
        self.ints = None

    def sign(self, a: int, b: int, c: int, d: int) -> int:
        if self.ints is None:
            m, e = np.frexp(self.coords)
            m = (m * 2.0 ** 53).astype(np.int64)
            e = np.where(m == 0, 0, e - e[m != 0].min(initial=e.max()))
            ints = [x << k for x, k in zip(m.ravel().tolist(), e.ravel().tolist())]
            self.ints = list(zip(ints[0::3], ints[1::3], ints[2::3]))
        P = self.ints
        (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = P[a], P[b], P[c], P[d]
        ux, uy, uz = bx - ax, by - ay, bz - az
        wx, wy, wz = cx - ax, cy - ay, cz - az
        det = ((uy * wz - uz * wy) * (dx - ax) + (uz * wx - ux * wz) * (dy - ay)
               + (ux * wy - uy * wx) * (dz - az))
        return (det > 0) - (det < 0)


def sphere_hull(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangles of the convex hull of the rows of ``points``, (N, 3).

    The points are on the unit sphere (every coordinate at most 1 + 8u in
    modulus, u = 2^-53), and their hull is not flat.  Returns (tris, twin):
    triangle t has the vertices tris[t], counterclockwise seen from
    outside, and its half-edge 3t + k, from tris[t, k] to
    tris[t, (k + 1) % 3], has the opposite half-edge twin[3t + k].
    Raises NumericallyCoincident when a point is not a vertex of the exact
    hull of the floats.
    """
    n = len(points)
    P = [tuple(row) for row in points.tolist()]
    exact = _Exact(points)
    verts: list[int] = []       # 3 per triangle, dead ones included
    ends: list[int] = []        # the end vertex of each half-edge
    planes: list[tuple] = []    # `_plane` of each triangle
    waiting: list = []          # conflict lists; None for a dead triangle
    home = [-1] * n             # each waiting point's conflict triangle
    mark = [0, 0, 0, 0]         # 2p + 1 once p sees the triangle, 2p + 2 once not
    err = _ERR

    def assign(batch: list, first: int, last: int) -> None:
        """Put each point of ``batch`` in the conflict list of a triangle
        among first, ..., last - 1 that it sees: the first that the filter
        clears, else the first that the exact sign decides."""
        for q in batch:
            x, y, z = P[q]
            band = []
            for f in range(first, last):
                nx, ny, nz, off = planes[f]
                g = nx * x + ny * y + nz * z - off
                if g > err:
                    break
                if g >= -err:
                    band.append(f)
            else:
                f = next((f for f in band if exact.sign(
                    verts[3 * f], verts[3 * f + 1], verts[3 * f + 2], q) > 0), -1)
                if f < 0:
                    raise NumericallyCoincident(f"point {q} is not a vertex of the hull")
            waiting[f].append(q)
            home[q] = f

    order = _insertion_order(n)
    start = _first_simplex(P, order, exact)
    a, b, c, d = start
    for tri in ((a, b, c), (b, a, d), (c, b, d), (a, c, d)):
        verts.extend(tri)
        ends.extend(tri[1:] + tri[:1])
        planes.append(_plane(P, *tri))
        waiting.append([])
    edge = {(s, t): h for h, (s, t) in enumerate(zip(verts, ends))}
    twin = [edge[t, s] for s, t in zip(verts, ends)]
    rest = [q for q in order if q not in start]
    assign(rest, 0, 4)

    for p in rest:
        px, py, pz = P[p]
        # the triangles visible from p, by a walk from its conflict triangle
        f0 = home[p]
        vis, hid = 2 * p + 1, 2 * p + 2
        mark[f0] = vis
        visible = [f0]
        horizon = {}            # its half-edges on the visible side, by start
        n_horizon = h0 = 0
        for f in visible:
            f *= 3
            for h in (f, f + 1, f + 2):
                g = twin[h] // 3
                s = mark[g]
                if s != vis and s != hid:
                    nx, ny, nz, off = planes[g]
                    x = nx * px + ny * py + nz * pz - off
                    if x > err or (x >= -err and exact.sign(
                            verts[3 * g], verts[3 * g + 1], verts[3 * g + 2], p) > 0):
                        mark[g] = s = vis
                        visible.append(g)
                    else:
                        mark[g] = s = hid
                if s == hid:
                    horizon[verts[h]] = h0 = h
                    n_horizon += 1
        # cone the horizon to p: the new triangles first, first + 1, ... are
        # (s, t, p) for its half-edges s -> t, in order around it
        first = len(planes)
        h = h0
        for f in range(first, first + n_horizon):
            s, t = verts[h], ends[h]
            verts.extend((s, t, p))
            ends.extend((t, p, s))
            planes.append(_plane(P, s, t, p))
            waiting.append([])
            mark.append(0)
            out = twin[h]
            f *= 3
            twin[out] = f
            twin.extend((out, f + 5, f - 2))
            h = horizon.get(t)
            if h is None:
                break
        if h != h0 or len(horizon) != n_horizon or not n_horizon:
            raise NumericallyCoincident(f"point {p}'s horizon is not one cycle")
        last = first + n_horizon
        twin[3 * first + 2], twin[3 * last - 2] = 3 * last - 2, 3 * first + 2
        orphans = []
        for f in visible:
            orphans += waiting[f]
            waiting[f] = None
        orphans.remove(p)
        assign(orphans, first, last)

    # renumber the live triangles 0, 1, ...
    live = np.array([w is not None for w in waiting])
    index = np.cumsum(live) - 1
    twin = np.array(twin).reshape(-1, 3)[live]
    return (np.array(verts).reshape(-1, 3)[live],
            (3 * index[twin // 3] + twin % 3).ravel())


def _first_simplex(P: list, order: list, exact: _Exact) -> tuple:
    """The first four points of ``order`` that span space, as (a, b, c, d)
    with d below the plane of the counterclockwise triangle (a, b, c)."""
    a, b = order[0], order[1]
    for c in order[2:]:
        nx, ny, nz, off = _plane(P, a, b, c)
        rest = [d for d in order if d not in (a, b, c)]
        # a point the filter decides, else one decided exactly
        side = 0
        for d in rest:
            x, y, z = P[d]
            g = nx * x + ny * y + nz * z - off
            if abs(g) > _ERR:
                side = (g > 0) - (g < 0)
                break
        else:
            d = next((d for d in rest if exact.sign(a, b, c, d)), None)
            side = d is not None and exact.sign(a, b, c, d)
        if side:
            return (a, b, c, d) if side < 0 else (a, c, b, d)
    raise NumericallyCoincident("the points do not span space")
