"""Spans and counters around domekit's public callables, for the traced run.

`Tracer.install` replaces module attributes with timing wrappers, including
the copies other domekit modules imported (``domekit.pleating``'s
``poincare_extension`` is the same object as ``domekit.hyperbolic``'s, and
is wrapped in both places).  Span wrappers keep (name, start, end, parent)
in memory; counter wrappers on the hot primitives only count calls.  A
span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _n_leaves(args, kwargs):
    return len(args[0] if args else kwargs["lam"])


def _brute_tests(args, kwargs, result):
    arcs = kwargs.get("n_arcs", args[1] if len(args) > 1 else 10**6)
    return {"laminations.roundness_brute_force.leaf_arc_tests":
            arcs * _n_leaves(args, kwargs)}


def _leaf_pairs(args, kwargs, result):
    n = _n_leaves(args, kwargs)
    return {"laminations.roundness.leaf_pairs": n * (n - 1) // 2}


def _trace_counts(args, kwargs, result):
    cap = kwargs.get("max_crossings", args[5] if len(args) > 5 else 1000)
    return {"dome.trace_surface_arc.crossings": len(result.crossings),
            "dome.trace_surface_arc.truncated": int(len(result.crossings) == cap)}


def _cells(args, kwargs, result):
    ny, nx = args[0].shape
    return {"qc.cells": ny * nx}


# (module, attribute, span name, observer).  Several callables may share a
# span name: their self times add up.
SPANS = [
    ("domekit.laminations", "FiniteLamination.from_json", "laminations.load", None),
    ("domekit.laminations", "validate", "laminations.validate", None),
    ("domekit.laminations", "roundness", "laminations.roundness", _leaf_pairs),
    ("domekit.laminations", "roundness_brute_force",
     "laminations.roundness_brute_force", _brute_tests),
    ("domekit.pleating", "pleat", "pleating.pleat",
     lambda a, k, r: {"pleating.gaps": len(r.gap_maps)}),
    ("domekit.pleating", "earthquake", "pleating.earthquake", None),
    ("domekit.pleating", "complex_earthquake", "pleating.complex_earthquake", None),
    ("domekit.pleating", "ComplexEarthquake.boundary", "pleating.boundary_trace", None),
    ("domekit.pleating", "embedding_check", "pleating.embedding_check", None),
    ("domekit.dome", "IdealConfiguration.__post_init__", "dome.configuration", None),
    ("domekit.dome", "build_hull", "dome.build_hull",
     lambda a, k, r: {"dome.build_hull.faces": len(r.faces)}),
    ("domekit.dome", "retract", "dome.retract",
     lambda a, k, r: {"dome.retract.face_carriers": int(r.carrier[0] == "face")}),
    ("domekit.dome", "retraction_certificate", "dome.retraction_certificate", None),
    ("domekit.dome", "dome_injectivity_radius", "dome.injectivity_radius",
     lambda a, k, r: {"dome.injectivity_radius.exact": int(r.exact),
                      "dome.injectivity_radius.loops_found": r.loops_found}),
    ("domekit.dome", "trace_surface_arc", "dome.trace_surface_arc", _trace_counts),
    ("domekit.qc", "beltrami_estimate", "qc.beltrami_estimate", _cells),
    ("domekit.bounds", "BoundReport.evaluate", "bounds.report", None),
] + [("domekit.bounds", fn, "bounds.report", None) for fn in (
    "roundness_bound_domain", "roundness_bound_dome", "domain_dilatation_bound",
    "domain_dilatation_bound_relaxed", "dome_dilatation_bound",
    "retraction_lipschitz_bound", "dome_injectivity_lower", "dilatation_lower_bound")
] + [("domekit.annulus", fn, "annulus.table", None)
     for fn in ("annulus_geometry", "verify_bounds")]

COUNTERS = [
    ("domekit.mobius", "MobiusMap.compose", "mobius.compose"),
    ("domekit.hyperbolic", "poincare_extension", "hyperbolic.poincare_extension"),
    ("domekit.mobius", "CircleOrLine.mobius_image", "mobius.circle_image"),
]

# Span names whose self time makes up the lamination-structure focus share.
LAMINATION_SPANS = ("laminations.load", "laminations.validate", "laminations.roundness",
                    "pleating.pleat", "pleating.earthquake", "pleating.complex_earthquake",
                    "pleating.boundary_trace", "pleating.embedding_check")


class Tracer:
    """Records spans and counts while installed; aggregates them afterwards."""

    def __init__(self, spans_dir: Path | None = None):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []
        self._spans_dir = spans_dir
        self.child_import_s: list[float] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body (layer calls, and each op)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def _span(self, fn, name, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def _counter(self, fn, name):
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed callable of the domekit modules already imported."""
        targets = [(m, a, self._span, (n, o)) for m, a, n, o in SPANS]
        targets += [(m, a, self._counter, (n,)) for m, a, n in COUNTERS]
        for module_name, attr, make, extra in targets:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = inspect.getattr_static(owner, name)
            if isinstance(raw, staticmethod):
                self._patch(owner, name, staticmethod(make(raw.__func__, *extra)))
                continue
            wrapped = make(raw, *extra)
            self._patch(owner, name, wrapped)
            if owner is module:
                # the same function imported by name into other domekit modules
                for other_name, other in list(sys.modules.items()):
                    if (other is not module and other_name.startswith("domekit")
                            and getattr(other, name, None) is raw):
                        self._patch(other, name, wrapped)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- spans from CLI child processes --------------------------------------

    def child_spans_path(self) -> str:
        return str(self._spans_dir / "child-spans.json")

    def collect_child(self) -> None:
        """Merge the spans a launcher child wrote, if it got that far."""
        path = Path(self.child_spans_path())
        if not path.exists():
            return
        data = json.loads(path.read_text())
        path.unlink()
        offset = len(self.spans)
        for name, start, end, parent in data["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1))
        for key, value in data["counts"].items():
            self.counts[key] += value
        self.child_import_s.append(data["import_s"])

    def dump(self, path: Path, **extra) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts,
                                    **extra}))

    # -- aggregation ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: self time (busy_s), call durations and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        agg: dict = defaultdict(lambda: {"busy_s": 0.0, "durations": []})
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            entry = agg[name]
            entry["busy_s"] += (end - start) - inner
            entry["durations"].append(end - start)
        return agg


def layer_metrics(tracer: Tracer, traced_wall_s: float, import_s: float,
                  import_wall_s: float) -> dict:
    """The per-layer metrics of one traced run, keyed by metric name.

    ``traced_wall_s`` is the summed op time of the traced phase; the focus
    shares are busy time over it.  ``import_s`` / ``import_wall_s`` give the
    import share: for the CLI, summed launcher import time over summed
    invocation time; otherwise the in-process domekit import over itself
    plus the traced phase.
    """
    agg = tracer.aggregate()
    c = tracer.counts

    def busy(name):
        return agg[name]["busy_s"] if name in agg else 0.0

    def p50_ms(name):
        return 1e3 * statistics.median(agg[name]["durations"]) if name in agg else 0.0

    def calls(name):
        return len(agg[name]["durations"]) if name in agg else 0

    def ratio(num, den):
        return num / den if den else 0.0

    brute = "laminations.roundness_brute_force"
    m = {
        f"{brute}.busy_s": busy(brute),
        f"{brute}.p50_ms": p50_ms(brute),
        f"{brute}.leaf_arc_tests": c[f"{brute}.leaf_arc_tests"],
        f"{brute}.leaf_arc_tests_per_s": ratio(c[f"{brute}.leaf_arc_tests"], busy(brute)),
        f"{brute}.attains_exact_frac": ratio(c[f"{brute}.attains_exact"], calls(brute)),
        "laminations.roundness.busy_s": busy("laminations.roundness"),
        "laminations.roundness.p50_ms": p50_ms("laminations.roundness"),
        "laminations.roundness.leaf_pairs": c["laminations.roundness.leaf_pairs"],
        "laminations.load.busy_s": busy("laminations.load"),
        "laminations.validate.busy_s": busy("laminations.validate"),
        "pleating.gaps": c["pleating.gaps"],
        "mobius.compose.calls": c["mobius.compose.calls"],
        "hyperbolic.poincare_extension.calls": c["hyperbolic.poincare_extension.calls"],
        "dome.retract.calls": calls("dome.retract"),
        "dome.retract.busy_s": busy("dome.retract"),
        "dome.retract.p50_ms": p50_ms("dome.retract"),
        "dome.retract.face_carrier_frac": ratio(c["dome.retract.face_carriers"],
                                                calls("dome.retract")),
        "mobius.circle_image.calls": c["mobius.circle_image.calls"],
        "dome.configuration.busy_s": busy("dome.configuration"),
        "dome.build_hull.busy_s": busy("dome.build_hull"),
        "dome.build_hull.faces": c["dome.build_hull.faces"],
        "dome.injectivity_radius.busy_s": busy("dome.injectivity_radius"),
        "dome.injectivity_radius.exact_frac": ratio(
            c["dome.injectivity_radius.exact"], calls("dome.injectivity_radius")),
        "dome.injectivity_radius.loops_found": c["dome.injectivity_radius.loops_found"],
        "dome.trace_surface_arc.busy_s": busy("dome.trace_surface_arc"),
        "dome.trace_surface_arc.crossings": c["dome.trace_surface_arc.crossings"],
        "dome.trace_surface_arc.truncated": c["dome.trace_surface_arc.truncated"],
        "qc.beltrami_estimate.busy_s": busy("qc.beltrami_estimate"),
        "qc.cells_per_s": ratio(c["qc.cells"], busy("qc.beltrami_estimate")),
        "bounds.report.busy_s": busy("bounds.report"),
        "annulus.table.busy_s": busy("annulus.table"),
        "focus.sampler_share": ratio(busy(brute), traced_wall_s),
        "focus.lamination_share": ratio(sum(busy(n) for n in LAMINATION_SPANS),
                                        traced_wall_s),
        "focus.retract_share": ratio(busy("dome.retract"), traced_wall_s),
        "focus.import_share": ratio(import_s, import_wall_s),
    }
    for name in ("pleat", "earthquake", "complex_earthquake", "boundary_trace",
                 "embedding_check"):
        m[f"pleating.{name}.busy_s"] = busy(f"pleating.{name}")
    return m
