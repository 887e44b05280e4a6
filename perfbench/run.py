"""domekit benchmark: four seeded closed-loop workloads, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; domekit is imported from ``src/`` next to this
directory.  Workloads (see `workloads.py`): roundness-sampling,
lamination-structure, dome-queries, cli-oneshot.

``--trace 0`` measures the end-to-end metrics:

- setup_s: median over fresh interpreters of the time from spawning the
  interpreter to being ready for the first op (imports plus seeded input
  generation); the interpreters are started at even intervals across the
  timed run, between ops, so one slow stretch of a shared machine does not
  set the median;
- ops_per_s: completed ops per second of timed op time;
- op_p50_ms: median op latency, taken in each round and then as the median
  over rounds (a round is the workload's fixed op mix, so the figure does
  not hinge on the one op at the boundary between two input sizes);
- op_tail_ms: latency at the workload's tail percentile, fixed per workload
  so it keeps its place in the op mix when the number of rounds varies: the
  highest round percentile with at least 10 ops beyond it in a 25-second
  run, or for dome-queries one that does not fall between two kinds of op
  (the report records it and the ops beyond it);
- peak_rss_mb: peak RSS of the process doing the work (the CLI children's
  for cli-oneshot);
- fail_frac: failed ops over attempted ops.

``--trace 1`` runs every round twice, untraced and with span wrappers
installed (`tracing.py`; the CLI through `launcher.py`), and reports the
per-layer metrics and ``trace_overhead_frac``, the relative drop in
ops_per_s from the untraced to the traced rounds.

An op fails on any exception, a nonzero exit code, output that is not
strict JSON, or a failed result check; ``correct`` is false only when a
check found a wrong result.  After the timed ops, every run re-runs the
known domekit defects the inputs steer clear of and records what each still
does under ``known_defects`` in the report.  Standard output ends with one
JSON line holding ``correct``, ``attempted``, ``failed`` and the metrics
named in BENCHMARK.json; the line before it is the full report
(percentiles, failures, output digest, provenance), which is also written
under ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

# The sampler already runs one thread per CPU; a BLAS pool per caller on top
# would oversubscribe the CPUs.  Set before numpy loads; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT, SRC = workloads.ROOT, workloads.SRC
SETUP_REPS = 7
INTERPRETER_REPS = 5


class BenchmarkError(Exception):
    """The run produced no usable figures."""


def _die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up in a fresh interpreter, print the ready time, exit")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# one phase of rounds
# ---------------------------------------------------------------------------


class Phase:
    """Outcomes and timings of the ops of consecutive rounds."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.wall_s = 0.0
        self.latencies: list[float] = []
        self.round_p50s: list[float] = []
        self.by_kind: dict = defaultdict(list)
        self.failures: Counter = Counter()
        self.wrong = 0
        self.messages: list[str] = []
        self.round0: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.wall_s if self.wall_s else 0.0

    @staticmethod
    def combine(*phases: "Phase") -> "Phase":
        """Op totals of several phases; rounds and digest from the first."""
        out = Phase()
        out.rounds, out.round0 = phases[0].rounds, phases[0].round0
        for p in phases:
            out.attempted += p.attempted
            out.wall_s += p.wall_s
            out.latencies += p.latencies
            out.failures.update(p.failures)
            out.wrong += p.wrong
            out.messages += p.messages
        return out

    def fail(self, kind: str, message: str) -> None:
        self.failures[kind] += 1
        if len(self.messages) < 10:
            self.messages.append(message)


def run_round(wl, k: int, tracer, phase: Phase, seen: dict,
              between_ops=None) -> None:
    """Run round k (cycling through the input pool) into ``phase``.

    ``seen`` maps each (pool round, op) to the digest of its first output,
    so an op that runs again on the same input must reproduce it.
    ``between_ops``, if given, is called untimed before each op.
    """
    k %= len(wl.pool)
    done = len(phase.latencies)
    for i, op in enumerate(wl.round(k, tracer)):
        if between_ops is not None:
            between_ops()
        phase.attempted += 1
        digest = hashlib.sha256(_run_op(op, tracer, phase).encode()).hexdigest()
        if seen.setdefault((k, i), digest) != digest:
            phase.wrong += 1
            phase.fail("nondeterministic", f"round {k} op {i}: output changed")
        if phase.rounds == 0:
            phase.round0.append(digest)
    if len(phase.latencies) > done:
        phase.round_p50s.append(statistics.median(phase.latencies[done:]))
    phase.rounds += 1


def timed_rounds(seconds: float, step) -> None:
    """Call ``step(k)`` for k = 0, 1, ... for about ``seconds`` of wall time.

    A step starts only if a step of the mean length so far would end less
    than half a step past the deadline, so the number of steps is
    ``seconds`` over the step length, rounded (at least 1).
    """
    start = time.perf_counter()
    k = 0
    while True:
        step(k)
        k += 1
        if (time.perf_counter() - start) * (1 + 0.5 / k) > seconds:
            return


def _run_op(op, tracer, phase: Phase) -> str:
    """Time one op, check it, and return its canonical output."""
    span = tracer.span("op") if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            result = op.run()
    except Exception as exc:  # an op boundary: every exception is a failed op
        phase.wall_s += time.perf_counter() - start
        phase.fail(type(exc).__name__, f"{op.kind}: {type(exc).__name__}: {exc}")
        return f"failed {type(exc).__name__}"
    elapsed = time.perf_counter() - start
    phase.wall_s += elapsed
    try:
        text = op.check(result)
    except workloads.WrongResult as exc:
        phase.wrong += 1
        phase.fail("WrongResult", f"{op.kind}: {exc}")
        return f"wrong {exc}"
    except Exception as exc:  # the check's own library calls may fail too
        phase.fail(type(exc).__name__, f"{op.kind}: {type(exc).__name__}: {exc}")
        return f"failed {type(exc).__name__}"
    phase.latencies.append(elapsed)
    phase.by_kind[op.kind].append(elapsed)
    return text


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank latency at percentile ``pct`` and the ops beyond it."""
    lat = sorted(latencies)
    i = min(max(math.ceil(pct / 100.0 * len(lat)) - 1, 0), len(lat) - 1)
    return lat[i], len(lat) - 1 - i


# ---------------------------------------------------------------------------
# set-up, provenance
# ---------------------------------------------------------------------------


def fresh_setup_s(workload: str, seed: int) -> float:
    """Spawn an interpreter that sets the workload up; time until it is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - start


def setup(workload: str, seed: int, size: dict, workdir: Path):
    """Import the workload's domekit modules and generate its inputs."""
    wl = workloads.WORKLOADS[workload]()
    start = time.perf_counter()
    for name in wl.modules:
        importlib.import_module(name)
    import_s = time.perf_counter() - start
    wl.setup(seed, size, workdir)
    return wl, import_s


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "domekit").glob("*.py"))


def provenance() -> dict:
    h = hashlib.sha256()
    for p in sorted((SRC / "domekit").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, check=False)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sampler_threads": workloads.sampler_threads(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(wl, workload: str, seed: int, seconds: float,
               setup_reps: int) -> tuple[dict, dict, Phase]:
    setups: list[float] = []
    due = [i * seconds / setup_reps for i in range(setup_reps)]
    phase, seen = Phase(), {}
    start, cpu_start = time.perf_counter(), time.process_time()

    def setup_when_due():
        if due and time.perf_counter() - start >= due[0]:
            due.pop(0)
            setups.append(fresh_setup_s(workload, seed))

    timed_rounds(seconds, lambda k: run_round(wl, k, None, phase, seen, setup_when_due))
    elapsed = time.perf_counter() - start
    setups += [fresh_setup_s(workload, seed) for _ in due]
    if not phase.latencies:
        raise BenchmarkError(f"no op completed: {phase.messages[:3]}")
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    tail_s, beyond = tail(phase.latencies, wl.tail_percentile)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(phase.round_p50s),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "fail_frac": phase.failed / phase.attempted,
    }
    extra = {"setup_samples_s": setups, "op_tail_percentile": wl.tail_percentile,
             "op_tail_ops_beyond": beyond, "ops_completed": len(phase.latencies),
             "elapsed_s": elapsed, "cpu_s": time.process_time() - cpu_start,
             "by_kind_p50_ms": {k: 1e3 * statistics.median(v)
                                for k, v in phase.by_kind.items()}}
    return metrics, extra, phase


def traced(wl, workload: str, seconds: float, import_s: float, workdir: Path,
           spans_path: Path) -> tuple[dict, dict, Phase]:
    plain, phase, seen = Phase(), Phase(), {}
    tracer = tracing.Tracer(spans_dir=workdir)
    in_process = workload != "cli-oneshot"

    def traced_round(k):
        if in_process:
            tracer.install()
        try:
            run_round(wl, k, tracer, phase, seen)
        finally:
            tracer.uninstall()

    def step(k):
        # Each round runs untraced and traced, alternating which goes first,
        # so drift in machine speed stays out of the overhead figure.
        for with_trace in (k % 2 == 1, k % 2 == 0):
            if with_trace:
                traced_round(k)
            else:
                run_round(wl, k, None, plain, seen)

    timed_rounds(seconds, step)
    tracer.dump(spans_path)
    if in_process:
        import_wall = import_s + phase.wall_s
    else:
        import_s, import_wall = sum(tracer.child_import_s), phase.wall_s
    metrics = tracing.layer_metrics(tracer, phase.wall_s, import_s, import_wall)
    metrics["trace_overhead_frac"] = (1.0 - phase.ops_per_s / plain.ops_per_s
                                      if plain.ops_per_s else 0.0)
    metrics["cli.interpreter_s"] = (0.0 if in_process else statistics.median(
        _interpreter_s() for _ in range(INTERPRETER_REPS)))
    metrics["cli.import_s"] = (statistics.median(tracer.child_import_s)
                               if tracer.child_import_s else 0.0)
    for key in workloads.CLI_COMMANDS:  # op kinds of cli-oneshot only
        lat = plain.by_kind.get(key)
        metrics[f"cli.{key}.p50_ms"] = 1e3 * statistics.median(lat) if lat else 0.0
    extra = {"untraced_ops_per_s": plain.ops_per_s, "traced_ops_per_s": phase.ops_per_s,
             "spans": len(tracer.spans)}
    return metrics, extra, Phase.combine(plain, phase)


def _interpreter_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: dict | None = None, setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run: the final result object and the full report."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    workdir = HERE / "_work" / f"{workload}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        wl, import_s = setup(workload, seed, size or workloads.FULL, workdir)
        if trace:
            metrics, extra, phase = traced(wl, workload, seconds, import_s, workdir,
                                           results / f"spans-{tag}.json")
        else:
            metrics, extra, phase = end_to_end(wl, workload, seed, seconds, setup_reps)
        extra["known_defects"] = workloads.known_defects(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise BenchmarkError(f"metric {name} is {value}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": phase.rounds, "attempted": phase.attempted, "failed": phase.failed,
        "wrong": phase.wrong, "failures": dict(phase.failures),
        "failure_messages": phase.messages,
        "digest": hashlib.sha256("".join(phase.round0).encode()).hexdigest(),
        "digest_ops": len(phase.round0),
        "metrics": {k: {"value": v, "unit": units.get(k, "1")} for k, v in metrics.items()},
        **extra, "provenance": provenance(),
    }
    (results / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    result = {"correct": phase.wrong == 0, "attempted": phase.attempted,
              "failed": phase.failed,
              "metrics": {m["name"]: report["metrics"][m["name"]] for m in wanted}}
    return {"result": result, "report": report}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "domekit" / "__init__.py").is_file():
        _die(f"domekit sources not found under {SRC}")
    if args.seconds <= 0:
        _die("--seconds must be positive")
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        sys.path.insert(0, str(SRC))
        workdir = HERE / "_work" / f"setup-{os.getpid()}"
        try:
            setup(args.workload, args.seed, workloads.FULL, workdir)
            print(time.monotonic())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in run["report"]["metrics"].items():
        print(f"{name:56s} {m['value']:<14.6g} {m['unit']}")
    print(json.dumps(run["report"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
