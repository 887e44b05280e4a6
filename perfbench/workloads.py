"""The four benchmark workloads: seeded inputs, the op of each, and its checks.

Each workload is a closed loop driven by `run.py`: one caller issues the next
op only after the previous one returned.  Ops are grouped in *rounds*, a
fixed seeded mix (one lamination of every size, one hull of every
configuration, one CLI session), so a run always measures whole rounds and
its op mix does not depend on where the clock stopped.

An op is a pair of callables.  ``run()`` is timed and calls into domekit;
``check(result)`` is untimed, verifies the result and returns its canonical
text, which feeds the output digest.  ``check`` raises `WrongResult` when a
result is wrong and `OpFailed` when the op delivered no result (a nonzero
exit code or a document that is not strict JSON).

Inputs come only from ``--seed``; domekit's own generators
(`random_lamination`) are not used, so a library change cannot change the
inputs.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

# Inputs are generated in setup for this many rounds; a longer run cycles
# through them again, which also re-checks that outputs are deterministic.
POOL_ROUNDS = {"roundness-sampling": 24, "lamination-structure": 48,
               "dome-queries": 12, "cli-oneshot": 4}

FULL = {
    "brute_arcs": 10**6,
    "sampling_leaves": range(1, 9),
    "structure_leaves": (8, 16, 32, 64),
    "trace_angles": 256,
    "embedding_samples": 1000,
    "sphere_points": (64, 256, 512),
    "ring_points": 32,
    "concyclic_points": 24,
    "queries": 60,
    "inj_depth": 12,
    "cli_table_points": 400,
    "cli_leaves": 32,
    "cli_brute_leaves": 6,
    "cli_samples": 256,
    "cli_dome_points": 512,
    "cli_crescent_grid": 512,
    "cli_qc_grid": 1024,
}
# The smoke test's sizes: every op kind still runs, on small inputs.
TINY = dict(FULL, brute_arcs=10**4, sampling_leaves=range(1, 3),
            structure_leaves=(4, 8), trace_angles=16, embedding_samples=20,
            sphere_points=(16,), ring_points=6, concyclic_points=8, queries=8,
            inj_depth=6, cli_table_points=10, cli_leaves=6, cli_brute_leaves=3,
            cli_samples=16, cli_dome_points=16, cli_crescent_grid=32,
            cli_qc_grid=32)

COMPLEX_T = 0.4 + 0.3j
CERTIFICATE_EVERY = 10      # retraction_certificate on queries 0, 10, 20, ...
INJ_EVERY = 6               # inj radius + arc trace at face carriers 0, 6, 12, ...
TRACE_LENGTH = 4.0
MAX_CROSSINGS = 1000        # trace_surface_arc's default cap
EDGE_MARGIN = 1e-4          # rad; the library fails within ~1e-6 of 0 or pi/2


class WrongResult(Exception):
    """A result check failed: the op returned a wrong answer."""


class OpFailed(Exception):
    """The op delivered no usable result (nonzero exit, invalid output)."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str]


def sampler_threads() -> int:
    """The CLI's default thread count, capped at the CPUs this process may use."""
    return max(1, min(os.cpu_count() or 1, len(os.sched_getaffinity(0))))


# ---------------------------------------------------------------------------
# seeded input generators
# ---------------------------------------------------------------------------


def lamination_json(rng: np.random.Generator, n: int) -> dict:
    """A random non-crossing matching of 2n sorted boundary angles.

    The angles are stratified: one uniform in the middle 80% of each of 2n
    equal sectors, all turned by one random angle, so no two lie closer
    than 0.2*pi/n.  (Endpoints closer than about 1e-5 rad make `pleat` and
    the earthquakes fail; see `known_defects`.)  Walks the sorted angles
    once, opening or closing a leaf at random as a balanced-parentheses
    word, so the leaves are pairwise disjoint by construction.  Weights are
    uniform in [0.1, 1).
    """
    sectors = np.arange(2 * n) + rng.uniform(0.1, 0.9, 2 * n)
    turn = rng.uniform(0.0, 2.0 * math.pi)
    angles = np.sort(np.mod(turn + math.pi * sectors / n, 2.0 * math.pi))
    coins = rng.random(2 * n)
    stack: list[int] = []
    pairs = []
    opened = 0
    for k in range(2 * n):
        if not stack or (opened < n and coins[k] < 0.5):
            stack.append(k)
            opened += 1
        else:
            pairs.append((stack.pop(), k))
    weights = rng.uniform(0.1, 1.0, n)
    return {"leaves": [[float(angles[a]), float(angles[b])] for a, b in pairs],
            "weights": [float(w) for w in weights]}


def _stereographic(v: np.ndarray) -> np.ndarray:
    return (v[:, 0] + 1j * v[:, 1]) / (1.0 - v[:, 2])


def _sphere_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def sphere_points(rng: np.random.Generator, n: int) -> list[complex]:
    """n points uniform on the Riemann sphere, as finite complex numbers."""
    return [complex(z) for z in _stereographic(_sphere_vectors(rng, n))]


def edge_angles(v: np.ndarray) -> np.ndarray:
    """Exterior angles at the edges of the ideal hull of unit vectors v.

    Each is the angle between the circles through the edge's two faces, 0
    when their four points are cocircular.  Computed from scipy's hull, not
    domekit's, so the inputs do not depend on the library.
    """
    from scipy.spatial import ConvexHull  # only the dome workload needs it

    hull = ConvexHull(v)
    n, h = hull.equations[:, :3], -hull.equations[:, 3]
    i, j = np.repeat(np.arange(len(n)), 3), hull.neighbors.ravel()
    cos = ((np.einsum("ij,ij->i", n[i], n[j]) - h[i] * h[j])
           / np.sqrt((1.0 - h[i] ** 2) * (1.0 - h[j] ** 2)))
    return np.arccos(np.clip(cos, -1.0, 1.0))


def hull_points(rng: np.random.Generator, n: int) -> list[complex]:
    """`sphere_points`, drawn again while their hull has an edge whose
    exterior angle lies within EDGE_MARGIN of 0 or of pi/2 (about 15% of
    draws at n = 512).  Such edges break `dome_injectivity_radius`; see
    `known_defects`."""
    while True:
        v = _sphere_vectors(rng, n)
        angles = edge_angles(v)
        if (angles.min() >= EDGE_MARGIN
                and np.abs(angles - 0.5 * math.pi).min() >= EDGE_MARGIN):
            return [complex(z) for z in _stereographic(v)]


def thin_annulus(rng: np.random.Generator, k: int) -> list[complex]:
    """Two rings of k points each, radii 1 and 1.5, each ring randomly turned."""
    turn = rng.uniform(0.0, 2.0 * math.pi, 2)
    base = 2.0 * math.pi * np.arange(k) / k
    return ([complex(np.exp(1j * (t + turn[0]))) for t in base]
            + [complex(1.5 * np.exp(1j * (t + turn[1]))) for t in base])


def concyclic(rng: np.random.Generator, k: int) -> list[complex]:
    """k jittered points on one random circle (a degenerate, flat hull)."""
    angles = 2.0 * math.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
    center = complex(*rng.normal(0.0, 0.5, 2))
    radius = rng.uniform(0.5, 2.0)
    return [center + radius * complex(np.exp(1j * a)) for a in angles]


def tetrahedron_query(rng: np.random.Generator) -> tuple[list[list[float]], complex]:
    """The regular ideal tetrahedron and a point retracting near a face centre."""
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                     dtype=float) / math.sqrt(3.0)
    pts = _stereographic(verts)
    d = -verts[rng.integers(4)] + rng.normal(0.0, 0.05, 3)
    z = complex(_stereographic((d / np.linalg.norm(d))[None, :])[0])
    return [[float(p.real), float(p.imag)] for p in pts], z


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_z(z) -> str:
    z = complex(z)
    return f"{z.real!r},{z.imag!r}"


# ---------------------------------------------------------------------------
# roundness-sampling: exact roundness, then the million-arc sampler
# ---------------------------------------------------------------------------


class RoundnessSampling:
    """One lamination of 1-8 leaves: exact `roundness`, then
    `roundness_brute_force(n_arcs=10**6)` with the CLI's default threads.

    Nearly all the time is the sampling kernel, so a change to it (time or
    memory) shows here and almost nowhere else.
    """

    modules = ("domekit.laminations",)
    tail_percentile = 80

    def setup(self, seed: int, size: dict, workdir: Path):
        self.lam = importlib.import_module("domekit.laminations")
        self.size = size
        self.threads = sampler_threads()
        rng = np.random.default_rng([seed, 1])
        self.pool = []
        for _ in range(POOL_ROUNDS["roundness-sampling"]):
            leaves = list(size["sampling_leaves"])
            rng.shuffle(leaves)
            self.pool.append([(lamination_json(rng, n), int(rng.integers(2**31)))
                              for n in leaves])

    def round(self, k: int, tracer) -> list[Op]:
        return [self._op(doc, arcs_seed, tracer) for doc, arcs_seed in self.pool[k]]

    def _op(self, doc, arcs_seed, tracer) -> Op:
        L = self.lam

        def run():
            lam = L.FiniteLamination.from_json(doc)
            exact = L.roundness(lam)
            brute = L.roundness_brute_force(lam, n_arcs=self.size["brute_arcs"],
                                            seed=arcs_seed, threads=self.threads)
            return exact, brute

        def check(res):
            exact, brute = res
            if not brute <= exact + 1e-9:
                raise WrongResult(f"brute force {brute!r} exceeds exact {exact!r}")
            if tracer is not None:
                tracer.add("laminations.roundness_brute_force.attains_exact",
                           int(brute >= exact - 1e-9))
            return f"{_fmt(exact)} {_fmt(brute)}"

        return Op(f"n{len(doc['weights'])}", run, check)


# ---------------------------------------------------------------------------
# lamination-structure: validation, exact roundness, pleating, earthquakes
# ---------------------------------------------------------------------------


class LaminationStructure:
    """One lamination of 8, 16, 32 or 64 leaves (equal shares): `from_json`
    (validates), `roundness`, `pleat`, `earthquake`, `complex_earthquake` at
    t = 0.4+0.3i with its boundary trace, and `embedding_check`.

    No sampler runs.  The time goes to the O(n^3) exact roundness, the gap
    complex and its tree paths, and per-gap Mobius products: what a
    lamination tree would replace.
    """

    modules = ("domekit.laminations", "domekit.pleating", "domekit.mobius")
    tail_percentile = 85

    def setup(self, seed: int, size: dict, workdir: Path):
        self.lam = importlib.import_module("domekit.laminations")
        self.pleat = importlib.import_module("domekit.pleating")
        self.is_inf = importlib.import_module("domekit.mobius").is_inf
        self.size = size
        self.angles = [float(a) for a in np.linspace(
            0.0, 2.0 * math.pi, size["trace_angles"], endpoint=False)]
        rng = np.random.default_rng([seed, 2])
        self.pool = []
        for _ in range(POOL_ROUNDS["lamination-structure"]):
            leaves = list(size["structure_leaves"])
            rng.shuffle(leaves)
            self.pool.append([(lamination_json(rng, n), int(rng.integers(2**31)))
                              for n in leaves])

    def round(self, k: int, tracer) -> list[Op]:
        return [self._op(doc, emb_seed) for doc, emb_seed in self.pool[k]]

    def _op(self, doc, emb_seed) -> Op:
        L, P = self.lam, self.pleat

        def run():
            lam = L.FiniteLamination.from_json(doc)
            r = L.roundness(lam)
            plane = P.pleat(lam)
            quake = P.earthquake(lam)
            ce = P.complex_earthquake(lam, COMPLEX_T)
            trace = [ce.boundary(a) for a in self.angles]
            rep = P.embedding_check(plane, samples=self.size["embedding_samples"],
                                    seed=emb_seed)
            return lam, r, plane, quake, ce, trace, rep

        def check(res):
            lam, r, plane, quake, ce, trace, rep = res
            n = len(lam)
            w = lam.weights
            if not max(w) - 1e-12 <= r <= sum(w) + 1e-12:
                raise WrongResult(f"roundness {r!r} outside [max w, sum w]")
            for what, maps in (("pleat", plane.gap_maps), ("earthquake", quake.gap_maps),
                               ("complex earthquake", ce.plane.gap_maps)):
                if len(maps) != n + 1:
                    raise WrongResult(f"{what} has {len(maps)} gaps, expected {n + 1}")
            for z in trace:
                if not self.is_inf(z) and not (math.isfinite(z.real)
                                               and math.isfinite(z.imag)):
                    raise WrongResult(f"boundary trace value {z!r}")
            if not 0.0 <= rep.min_ratio <= rep.max_ratio:
                raise WrongResult(f"embedding ratios {rep.min_ratio!r}, {rep.max_ratio!r}")
            parts = [_fmt(r), str(rep.near_collisions), _fmt(rep.min_ratio),
                     _fmt(rep.max_ratio)]
            parts += ["inf" if self.is_inf(z) else _fmt_z(z) for z in trace]
            return " ".join(parts)

        return Op(f"n{len(doc['weights'])}", run, check)


# ---------------------------------------------------------------------------
# dome-queries: one hull build, then many retractions
# ---------------------------------------------------------------------------


class DomeQueries:
    """Per configuration, one op builds it (`IdealConfiguration` +
    `build_hull`) and each of 60 query ops runs `retract`; at every 6th query
    whose carrier is a face the query also runs
    `dome_injectivity_radius(depth=12)` and `trace_surface_arc(length=4)`.

    Configurations: random sphere points (N = 64, 256, 512; no edge angle
    within EDGE_MARGIN of 0 or pi/2), a thin annulus
    (two rings of 32 points, radius ratio 1.5) and 24 concyclic points (the
    degenerate doubled polygon).  This is the query-heavy use of `dome`;
    `retract` takes about two thirds of the time.
    """

    modules = ("domekit.dome",)
    # Inside the plateau of plain retractions on the 512-point hull (the top
    # ~11% are queries that also ran the injectivity radius, whose spread of
    # latencies made p98 move with the mix of rounds run).
    tail_percentile = 92

    def setup(self, seed: int, size: dict, workdir: Path):
        self.dome = importlib.import_module("domekit.dome")
        self.size = size
        rng = np.random.default_rng([seed, 3])
        self.pool = []
        for _ in range(POOL_ROUNDS["dome-queries"]):
            configs = [hull_points(rng, n) for n in size["sphere_points"]]
            configs.append(thin_annulus(rng, size["ring_points"]))
            configs.append(concyclic(rng, size["concyclic_points"]))
            self.pool.append([
                (pts, sphere_points(rng, size["queries"]),
                 rng.uniform(0.0, 2.0 * math.pi, size["queries"]))
                for pts in configs])

    def round(self, k: int, tracer) -> list[Op]:
        ops = []
        for pts, queries, directions in self.pool[k]:
            cell: dict = {"faces_seen": 0}
            ops.append(self._build(pts, cell))
            for i, (z, direction) in enumerate(zip(queries, directions)):
                ops.append(self._query(cell, i, z, float(direction)))
        return ops

    def _build(self, pts, cell) -> Op:
        D = self.dome

        def run():
            cell["hull"] = None
            hull = D.build_hull(D.IdealConfiguration(pts))
            cell["hull"] = hull
            return hull

        def check(hull):
            chi = hull.euler_characteristic()
            viol = hull.convexity_violation()
            if chi != 2 or not viol <= 1e-9:
                raise WrongResult(f"hull has Euler characteristic {chi}, "
                                  f"convexity violation {viol!r}")
            faces = sorted(tuple(sorted(f.vertices)) for f in hull.faces)
            return f"{len(hull.edges)} {hull.degenerate} {faces}"

        return Op("build", run, check)

    def _query(self, cell, i: int, z: complex, direction: float) -> Op:
        D = self.dome

        def run():
            hull = cell["hull"]
            if hull is None:
                raise OpFailed("the hull build failed")
            res = D.retract(hull, z)
            extra = None
            if res.carrier[0] == "face":
                if cell["faces_seen"] % INJ_EVERY == 0:
                    face = res.carrier[1]
                    inj = D.dome_injectivity_radius(hull, face, res.point,
                                                    depth=self.size["inj_depth"])
                    arc = D.trace_surface_arc(hull, face, res.point, direction,
                                              TRACE_LENGTH)
                    extra = (inj, arc)
                cell["faces_seen"] += 1
            return hull, res, extra

        def check(out):
            hull, res, extra = out
            if i % CERTIFICATE_EVERY == 0:
                cert = D.retraction_certificate(hull, z, res)
                if not cert >= -1e-9:
                    raise WrongResult(f"retraction certificate {cert!r} at z={z!r}")
            p = res.point
            text = (f"{_fmt(p.x)} {_fmt(p.y)} {_fmt(p.t)} {res.carrier} "
                    f"{_fmt(res.busemann_value)}")
            if extra is not None:
                inj, arc = extra
                if not (inj.value > 0 and math.isfinite(inj.value)):
                    raise WrongResult(f"injectivity radius {inj.value!r}")
                if not arc.measure >= 0 or len(arc.crossings) > MAX_CROSSINGS:
                    raise WrongResult(f"arc trace measure {arc.measure!r}")
                text += (f" {_fmt(inj.value)} {inj.exact} {inj.loops_found}"
                         f" {_fmt(arc.measure)} {[e for e, _ in arc.crossings]}")
            return text

        return Op("query", run, check)


# ---------------------------------------------------------------------------
# cli-oneshot: one `python -m domekit.cli` process per op
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise OpFailed(f"output is not strict JSON: contains {name}")


def check_cli_output(proc: subprocess.CompletedProcess, command: str) -> None:
    """Check one CLI result: exit 0, strict RFC 8259 JSON, schema and command."""
    if proc.returncode != 0:
        raise OpFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    try:
        doc = json.loads(proc.stdout, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OpFailed(f"output is not JSON: {exc}") from None
    if doc.get("schema") != "domekit/1" or doc.get("command") != command:
        raise WrongResult(f"schema {doc.get('schema')!r}, command {doc.get('command')!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CliOneshot:
    """Each op is one `python -m domekit.cli ...` process; a round is a fixed
    session covering every subcommand, with seeded input files.

    This is the path users run.  Interpreter start and import dominate it,
    and each `dome retract` builds a 512-point hull for a single query, so
    work moved from `retract` into the build shows here as a cost.  It is
    the only workload covering `bounds`, `annulus`, `crescents` and `qc`.
    """

    modules = ("domekit.cli",)
    tail_percentile = 60

    def setup(self, seed: int, size: dict, workdir: Path):
        importlib.import_module("domekit.cli")
        self.env = child_env()
        self.threads = sampler_threads()
        rng = np.random.default_rng([seed, 4])
        self.pool = [self._session(rng, size, workdir / f"s{k}")
                     for k in range(POOL_ROUNDS["cli-oneshot"])]

    def _session(self, rng, size, d: Path) -> list[tuple[str, list[str]]]:
        d.mkdir(parents=True, exist_ok=True)

        def write(name, doc):
            path = d / name
            path.write_text(json.dumps(doc))
            return str(path)

        lam = write("lam.json", lamination_json(rng, size["cli_leaves"]))
        small = write("small.json", lamination_json(rng, size["cli_brute_leaves"]))
        cfg = write("cfg.json", {"points": [[z.real, z.imag] for z in
                                            sphere_points(rng, size["cli_dome_points"])]})
        tetra_pts, tetra_z = tetrahedron_query(rng)
        tetra = write("tetra.json", {"points": tetra_pts})
        z = sphere_points(rng, 1)[0]
        nu = f"{rng.uniform(0.05, 1.5)!r}"
        pts = str(size["cli_table_points"])
        samples = str(size["cli_samples"])
        return [
            ("bounds_eval", ["bounds", "eval", "--nu", nu, "--nu-hat", nu]),
            ("bounds_table", ["bounds", "table", "--nu-min", "0.05", "--nu-max", "2",
                              "--points", pts]),
            ("annulus_table", ["annulus", "table", "--s-min", "1", "--s-max", "60",
                               "--points", pts]),
            ("lamination_validate", ["lamination", "validate", "--input", lam]),
            ("lamination_roundness", ["lamination", "roundness", "--input", lam]),
            ("lamination_roundness", ["lamination", "roundness", "--input", small,
                                      "--brute-arcs", str(size["brute_arcs"]),
                                      "--seed", str(int(rng.integers(2**31))),
                                      "--threads", str(self.threads)]),
            # Complex t is left to `known_defects`: its trace prints Infinity
            # whenever angle 0 lies in the base gap.
            ("earthquake_trace", ["earthquake", "trace", "--input", lam, "--t", "0.5",
                                  "--samples", samples]),
            ("dome_build", ["dome", "build", "--input", cfg]),
            ("dome_retract", ["dome", "retract", "--input", cfg, f"--z={_fmt_z(z)}"]),
            ("dome_inj-radius", ["dome", "inj-radius", "--input", tetra,
                                 f"--z={_fmt_z(tetra_z)}"]),
            ("crescent_dilatation", ["crescent", "dilatation", "--w", "0,2",
                                     "--theta", "1.0",
                                     "--grid", str(size["cli_crescent_grid"])]),
            ("qc_estimate", ["qc", "estimate", "--fixture", "power", "--alpha", "2",
                             "--grid", str(size["cli_qc_grid"])]),
            ("qc_estimate", ["qc", "estimate", "--fixture", "mobius-near",
                             "--grid", str(size["cli_qc_grid"])]),
        ]

    def round(self, k: int, tracer) -> list[Op]:
        return [self._op(key, argv, tracer) for key, argv in self.pool[k]]

    def _op(self, key: str, argv: list[str], tracer) -> Op:
        if tracer is None:
            cmd = [sys.executable, "-m", "domekit.cli", *argv]
        else:
            cmd = [sys.executable, str(LAUNCHER), tracer.child_spans_path(), *argv]

        def run():
            return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, check=False)

        def check(proc):
            if tracer is not None:
                tracer.collect_child()
            check_cli_output(proc, f"{argv[0]} {argv[1]}")
            return proc.stdout

        return Op(key, run, check)


# ---------------------------------------------------------------------------
# known defects: reproduced on every run, outside the timed ops
# ---------------------------------------------------------------------------

# A leaf 1e-6 rad long: `pleat` raises DegenerateMobius (other narrow leaves
# or gaps raise KeyError in the gap tree).  The timed inputs keep endpoints
# apart, so this input stands in for them.
SHORT_LEAF = {"leaves": [[1.0, 1.000001]], "weights": [1.0]}
# The first four points are nearly cocircular, so the hull has an edge of
# exterior angle 1.7e-7; developing across it from the face under the query
# fails to realify the gluing map (ValueError).
FLAT_EDGE = [-1.5773882307765996 + 0.17922113048169758j,
             -1.1554544164922362 + 0.07676559845439478j,
             -1.34548183335034 - 0.10563059977012569j,
             -1.1922140724590327 + 0.23572157895352278j,
             3 + 1j, -4 + 2j, 0.5 - 5j, 6 - 3j, -0.5 + 0.2j]
FLAT_EDGE_QUERY = -1.35 + 0.1j
# An edge of exterior angle pi/2 + 7e-7 (between faces through the first four
# points): rotating by either sign about it aligns the two face planes, the
# wrong sign is taken and the gluing map is not real (ValueError).  Dome
# inputs keep every edge angle EDGE_MARGIN away from 0 and pi/2.
RIGHT_EDGE = [0.8859353559799235 + 0.39989052990172547j,
              0.7798149935002603 + 0.3343616165295419j,
              0.7158396668178753 + 0.4284355822619864j,
              0.6310316232649529 + 0.3558117112277896j,
              3 + 1j, -4 + 2j, 0.5 - 5j, 6 - 3j, -0.5 + 0.2j]
RIGHT_EDGE_QUERY = 0.79 + 0.4j
# Angle 0 lies in the base gap, so a complex-t `earthquake trace` maps it to
# infinity and prints `Infinity`, which is not RFC 8259 JSON.
POLE_IN_BASE_GAP = {"leaves": [[1.0, 2.0]], "weights": [0.5]}


def _outcome(fn: Callable[[], Any]) -> str:
    try:
        fn()
    except Exception as exc:  # reported, whatever it is
        return f"{type(exc).__name__}: {exc}"
    return "fixed"


def known_defects(workdir: Path) -> dict[str, str]:
    """Re-run each known defect the timed ops steer clear of.

    Maps each to the error it still gives, or to "fixed".
    """
    L = importlib.import_module("domekit.laminations")
    P = importlib.import_module("domekit.pleating")
    D = importlib.import_module("domekit.dome")

    def inj_radius(points, query):
        hull = D.build_hull(D.IdealConfiguration(points))
        res = D.retract(hull, query)
        D.dome_injectivity_radius(hull, res.carrier[1], res.point, depth=12)

    def cli_complex_trace():
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "pole.json"
        path.write_text(json.dumps(POLE_IN_BASE_GAP))
        proc = subprocess.run(
            [sys.executable, "-m", "domekit.cli", "earthquake", "trace", "--input",
             str(path), f"--t={_fmt_z(COMPLEX_T)}", "--samples", "4"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, check=False)
        check_cli_output(proc, "earthquake trace")

    return {
        "pleat_short_leaf": _outcome(
            lambda: P.pleat(L.FiniteLamination.from_json(SHORT_LEAF))),
        "inj_radius_flat_edge": _outcome(lambda: inj_radius(FLAT_EDGE, FLAT_EDGE_QUERY)),
        "inj_radius_right_edge": _outcome(lambda: inj_radius(RIGHT_EDGE, RIGHT_EDGE_QUERY)),
        "cli_complex_trace_infinity": _outcome(cli_complex_trace),
    }


CLI_COMMANDS = ("bounds_eval", "bounds_table", "annulus_table", "lamination_validate",
                "lamination_roundness", "earthquake_trace", "dome_build",
                "dome_retract", "dome_inj-radius", "crescent_dilatation",
                "qc_estimate")

WORKLOADS = {
    "roundness-sampling": RoundnessSampling,
    "lamination-structure": LaminationStructure,
    "dome-queries": DomeQueries,
    "cli-oneshot": CliOneshot,
}
