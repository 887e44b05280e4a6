"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_and_finite(workload, trace):
    out = run.measure(workload, seed=7, seconds=0.01, trace=trace,
                      size=workloads.TINY, setup_reps=1)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert "fail_frac" in out["report"]["metrics"]
    assert set(out["report"]["known_defects"]) == {"pleat_short_leaf",
                                                    "inj_radius_flat_edge",
                                                    "inj_radius_right_edge",
                                                    "cli_complex_trace_infinity"}


def test_same_seed_same_inputs():
    a = workloads.lamination_json(np.random.default_rng(3), 64)
    b = workloads.lamination_json(np.random.default_rng(3), 64)
    assert a == b
    angles = np.sort(np.ravel(a["leaves"]))
    assert np.diff(np.r_[angles, angles[0] + 2 * math.pi]).min() >= 0.2 * math.pi / 64
    ends = sorted((min(l), max(l)) for l in a["leaves"])
    for (a1, b1) in ends:          # no two leaves interleave
        for (a2, b2) in ends:
            assert not (a1 < a2 < b1 < b2)


def test_tail_is_nearest_rank():
    lat = [float(i) for i in range(100, 0, -1)]
    assert run.tail(lat, 90) == (90.0, 10)
    assert run.tail(lat[:3], 60) == (99.0, 1)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "dome-queries", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
