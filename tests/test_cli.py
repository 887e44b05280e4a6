import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from domekit import laminations as lam_mod
from domekit import qc as qc_mod
from domekit.cli import COMMANDS, _linspace, build_parser, main
from domekit.dome import IdealConfiguration, build_hull, hull_to_json
from domekit.errors import finite_float

from test_dome import _clustered, _retract_config, _ring
from test_laminations import oracle_laminations

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture
def lam_file(tmp_path):
    p = tmp_path / "lam.json"
    p.write_text(json.dumps({"leaves": [[0.3, 2.2], [3.0, 5.5]],
                             "weights": [0.8, 1.1]}))
    return str(p)


@pytest.fixture
def tetra_file(tmp_path):
    p = tmp_path / "tetra.json"
    p.write_text(json.dumps({"points": [[0, 0], [1, 0], "inf", [0, -1]]}))
    return str(p)


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps({"points": [[0, 0], [1, 0], "inf", [-1, 0]]}))
    return str(p)


class TestBounds:
    def test_eval_json_schema(self, capsys):
        code, out, _ = run_cli(["bounds", "eval", "--nu", "0.3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "domekit/1"
        assert data["M"] > 0 and data["lower_bound"] > 0

    def test_eval_nu_half_excludes_lower_bound(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "eval", "--nu", "0.5", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["lower_bound"] is None
        assert "0.5" in data["lower_bound_reason"]

    def test_table_csv(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "table", "--nu-min", "0.1", "--nu-max", "1.0",
             "--points", "5", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("nu,")

    @pytest.mark.parametrize("nu_hat", ["1e-13", "1e-15", "1e-20"])
    def test_eval_small_nu_hat(self, nu_hat, capsys):
        code, out, _ = run_cli(["bounds", "eval", "--nu-hat", nu_hat], capsys)
        assert code == 0
        want = 2 * math.pi * math.ceil(1 / float(nu_hat))
        assert json.loads(out)["dome_roundness_exact"] == pytest.approx(want, rel=1e-12)

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(["bounds", "eval", "--nu", "-2"], capsys)
        assert code == 1
        assert "NonpositiveInput" in err

    @pytest.mark.parametrize("argv", [["--nu", "inf", "--nu-hat", "1e400"],
                                      ["--nu", "inf"], ["--nu-hat", "inf"]])
    def test_infinite_radius_exits_1(self, argv, capsys):
        code, out, err = run_cli(["bounds", "eval", *argv], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: OutOfDomain:") and err.count("\n") == 1


class TestAnnulus:
    def test_table_shape(self, capsys):
        code, out, _ = run_cli(
            ["annulus", "table", "--s-min", "1", "--s-max", "10",
             "--points", "10", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 11
        # nine geometry columns plus three verdict columns
        assert len(header) == 12
        assert header[-3:] == ["ok_K_le_M", "ok_K_le_N", "ok_lower_le_K"]
        for line in lines[1:]:
            assert line.split(",")[9] == "true"

    def test_determinism(self, capsys):
        args = ["annulus", "table", "--s-min", "0.5", "--s-max", "30",
                "--points", "40", "--format", "csv"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("s_min, s_max", [("8e-308", "9e-308"), ("1e-310", "1e-309"),
                                              ("5e-324", "1")])
    def test_s_below_a_float_core_length_exits_1(self, capsys, s_min, s_max):
        # 2 pi^2 / s overflows a float, and at 5e-324 sinh(s/2) is 0 too
        code, out, err = run_cli(["annulus", "table", "--s-min", s_min,
                                  "--s-max", s_max, "--points", "2"], capsys)
        assert code == 1 and out == ""
        assert err == (f"error: OutOfDomain: s = {s_min}: core length 2 pi^2 / s "
                       "overflows a float\n")


    @pytest.mark.parametrize("flags, message", [
        (["--s-min", "1", "--s-max", "inf"], "s_max = inf"),
        (["--s-min=-inf", "--s-max", "1"], "s_min = -inf"),
        (["--s-min", "nan", "--s-max", "1"], "s_min = nan"),
    ])
    def test_nonfinite_endpoint_names_its_flag(self, capsys, flags, message):
        # not the s = nan that the spacing of an infinite range would give
        code, out, err = run_cli(["annulus", "table", *flags, "--points", "2"], capsys)
        assert code == 1 and out == ""
        assert err == f"error: OutOfDomain: {message} is not finite\n"


class TestDome:
    def test_build_json_roundtrip(self, tetra_file, capsys):
        code, out, _ = run_cli(
            ["dome", "build", "--input", tetra_file, "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["degenerate"] is False
        assert len(data["faces"]) == 4 and len(data["edges"]) == 6
        assert json.loads(json.dumps(data)) == data

    def test_build_degenerate_flag(self, square_file, capsys):
        code, out, _ = run_cli(
            ["dome", "build", "--input", square_file], capsys
        )
        data = json.loads(out)
        assert data["degenerate"] is True
        assert all(e["fold"] for e in data["edges"])

    def test_mesh_written(self, tetra_file, tmp_path, capsys):
        mesh = tmp_path / "dome.obj"
        code, _, _ = run_cli(
            ["dome", "build", "--input", tetra_file, "--mesh", str(mesh)],
            capsys,
        )
        assert code == 0
        assert mesh.read_text().startswith("#")

    def test_retract(self, tetra_file, capsys):
        code, out, _ = run_cli(
            ["dome", "retract", "--input", tetra_file, "--z", "0.4,0.8"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["point"]["t"] > 0
        assert data["carrier"][0] in ("face", "edge")

    def test_inj_radius(self, tetra_file, capsys):
        code, out, _ = run_cli(
            ["dome", "inj-radius", "--input", tetra_file, "--z", "0.4,0.8"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] > 0

    def test_inj_radius_from_an_edge(self, tmp_path, capsys):
        # the ring dome of modulus 2 with 12 points a side; z retracts onto
        # an edge and the search develops from the edge's first face
        points = [r * cmath.exp(2j * math.pi * j / 12) for r in (1.0, math.exp(2.0))
                  for j in range(12)]
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"points": [[p.real, p.imag] for p in points]}))
        z = math.e * cmath.exp(0.37j)
        code, out, _ = run_cli(["dome", "retract", "--input", str(path),
                                f"--z={z.real!r},{z.imag!r}"], capsys)
        assert code == 0 and json.loads(out)["carrier"][0] == "edge"
        code, out, _ = run_cli(["dome", "inj-radius", "--input", str(path),
                                f"--z={z.real!r},{z.imag!r}"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(2.6219, abs=1e-4)

    @pytest.mark.parametrize("s, k", [(3.0, 48), (5.0, 96)])
    def test_inj_radius_on_ring_is_the_core_loop(self, tmp_path, capsys, s, k):
        # a loop about the core crosses k edges; the search goes as deep as
        # the geometry needs, and finds half the core loop, pi / sinh(s / 2)
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"points": [[p.real, p.imag] for p in _ring(k, s)]}))
        z = math.exp(s / 2.0) * cmath.exp(0.37j)
        code, out, _ = run_cli(["dome", "inj-radius", "--input", str(path),
                                f"--z={z.real!r},{z.imag!r}"], capsys)
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"schema", "command", "value", "loops_found"}
        assert data["value"] == pytest.approx(math.pi / math.sinh(s / 2.0), abs=0.01)

    def test_inj_radius_near_a_vertex(self, tmp_path, capsys):
        # z retracts onto face 6 at height 5.9e-7; the face's chart scales
        # it up to t = 1.2e6, and its rounding error y to 1.1e-4, so the
        # chart tests y against t
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps(
            {"points": [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1], [2, 2], [1e-6, 1e-6]]}))
        code, out, err = run_cli(["dome", "inj-radius", "--input", str(path),
                                  "--z", "1.414214e-06,1.414214e-06"], capsys)
        assert code == 0, err
        assert json.loads(out)["value"] == pytest.approx(0.4032, abs=1e-4)

    def test_retract_at_ideal_point_errors(self, tetra_file, capsys):
        code, _, err = run_cli(
            ["dome", "retract", "--input", tetra_file, "--z", "1,0"], capsys
        )
        assert code == 1 and "PointNotInDomain" in err

    def test_face_off_the_sphere_is_an_error_line(self, tmp_path, capsys):
        # a cluster at scale ~5e-9 rounds face 0's plane off the sphere
        points, z = _clustered(44, 0)
        assert z == complex(0.30691542642147623, 0.9802583368638803)
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps({"points": [[p.real, p.imag] for p in points]}))
        code, out, err = run_cli(["dome", "retract", "--input", str(path),
                                  "--z", "0.30691542642147623,0.9802583368638803"], capsys)
        assert code == 1 and out == ""
        assert err == ("error: NumericallyCoincident: face 0: its circle or the "
                       "circle's image has no real locus\n")


class TestLamination:
    def test_validate(self, lam_file, capsys):
        code, out, _ = run_cli(
            ["lamination", "validate", "--input", lam_file], capsys
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_validate_crossing(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"leaves": [[0, 2], [1, 3]], "weights": [1, 1]}))
        code, _, err = run_cli(
            ["lamination", "validate", "--input", str(p)], capsys
        )
        assert code == 1 and "CrossingLeaves" in err

    def test_validate_length_mismatch(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"leaves": [[0.3, 2.2]], "weights": [0.8, 1.1]}))
        code, out, err = run_cli(
            ["lamination", "validate", "--input", str(p)], capsys
        )
        assert code == 1 and out == ""
        assert err == "error: MismatchedLengths: 1 leaves but 2 weights\n"

    def test_roundness_with_brute_force(self, lam_file, capsys):
        code, out, _ = run_cli(
            ["lamination", "roundness", "--input", lam_file,
             "--brute-arcs", "20000", "--seed", "3", "--threads", "2"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["brute_force"] <= data["roundness"] + 1e-12
        assert data["roundness"] - data["brute_force"] < 1e-6

    def test_roundness_deterministic(self, lam_file, capsys):
        args = ["lamination", "roundness", "--input", lam_file,
                "--brute-arcs", "5000", "--seed", "9"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestEarthquake:
    def test_real_trace_csv(self, lam_file, capsys):
        code, out, _ = run_cli(
            ["earthquake", "trace", "--input", lam_file, "--t", "0.5",
             "--samples", "16", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "angle,re,im"
        assert len(lines) == 17
        for line in lines[1:]:
            _, re_, im_ = (float(v) for v in line.split(","))
            assert math.hypot(re_, im_) == pytest.approx(1.0, abs=1e-9)

    def test_complex_trace_pole_is_null(self, tmp_path, capsys):
        # angle 0 lies in the base gap and maps to infinity
        p = tmp_path / "pole.json"
        p.write_text(json.dumps({"leaves": [[1.0, 2.0]], "weights": [0.5]}))
        args = ["earthquake", "trace", "--input", str(p), "--t", "0.4,0.3",
                "--samples", "8"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        trace = json.loads(out, parse_constant=_reject_constant)["trace"]
        assert trace[0] == {"angle": 0.0, "re": None, "im": None}
        assert all(r["re"] is not None for r in trace[1:])
        code, out, _ = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0 and out.splitlines()[1] == "0,,"

    @pytest.mark.parametrize("t", ["1500", "-1500"])
    def test_huge_shear_is_an_error_line(self, tmp_path, t, capsys):
        # e^(t/2) overflows at t = 1500 and vanishes at t = -1500
        p = tmp_path / "one.json"
        p.write_text(json.dumps({"leaves": [[0.3, 2.2]], "weights": [1]}))
        code, out, err = run_cli(
            ["earthquake", "trace", "--input", str(p), f"--t={t}"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: DegenerateMobius: ") and err.count("\n") == 1

    def test_complex_trace(self, lam_file, capsys):
        code, out, _ = run_cli(
            ["earthquake", "trace", "--input", lam_file, "--t", "0.4,0.3",
             "--samples", "8"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["trace"]) == 8
        assert "faces" in data


class TestCrescent:
    @pytest.mark.parametrize("theta", ["-1", "0"])
    def test_empty_wedge_is_not_injective(self, theta, capsys):
        code, out, err = run_cli(
            ["crescent", "dilatation", "--w", "0,1", f"--theta={theta}"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: NotInjective: ")

    def test_dilatation_with_grid(self, capsys):
        code, out, _ = run_cli(
            ["crescent", "dilatation", "--w", "0,2", "--theta", "1.0",
             "--grid", "256"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["analytic_K"] == pytest.approx(3.0, rel=1e-12)
        assert abs(data["grid_sup_K"] - 3.0) < 5e-3

    def test_not_injective_error(self, capsys):
        code, _, err = run_cli(
            ["crescent", "dilatation", "--w", "0,3", "--theta", "3.14159"],
            capsys,
        )
        assert code == 1 and "NotInjective" in err

    def test_scaling_check_at_w_i(self, capsys):
        # the check `qc estimate --fixture scaling` ran at its defaults, bit for bit
        code, out, _ = run_cli(
            ["crescent", "dilatation", "--w", "0,1", "--theta", "1.5707963267948966",
             "--grid", "32"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["analytic_K"] == pytest.approx(2.0, rel=1e-12)
        assert data["grid_sup_K"] == 1.9987486434812047
        assert data["max_abs_deviation"] == 0.008978543107170056

    def test_scaling_check_narrow_wedge(self, capsys):
        code, out, _ = run_cli(
            ["crescent", "dilatation", "--w", "0,1", "--theta", "0.8",
             "--grid", "256"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["analytic_K"] == pytest.approx(2.0, rel=1e-12)
        assert abs(data["grid_sup_K"] - 2.0) < 1e-4


class TestQc:
    def test_affine_fixture(self, capsys):
        code, out, _ = run_cli(
            ["qc", "estimate", "--fixture", "affine", "--grid", "128"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["sup_K"] == pytest.approx(2.0, abs=1e-10)

    def test_infinite_samples_do_not_warn(self):
        # r^(alpha - 1) overflows to inf on most of the grid; a process with
        # numpy's default warning filters would print RuntimeWarnings
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-m", "domekit.cli", "qc", "estimate", "--fixture", "power",
             "--alpha", "1e300", "--grid", "16"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout, parse_constant=_reject_constant)["sup_K"] is None


def _run_without(module: str, runs: list) -> list:
    """Exit codes of the CLI on each argv of ``runs``, in one subprocess where
    ``module`` cannot be imported; each run's stdout must be strict JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = (
        "import contextlib, io, json, sys\n"
        f"sys.modules[{module!r}] = None\n"
        "from domekit.cli import main\n"
        "codes = []\n"
        f"for argv in {runs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        codes.append(main(argv))\n"
        "    json.loads(out.getvalue())\n"
        "print(json.dumps(codes))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "domekit.cli", "bounds", "eval", "--bogus"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_inj_radius_takes_no_depth(self, tetra_file, capsys):
        # the search runs until its frontier is empty: there is no cap to set
        with pytest.raises(SystemExit) as exc:
            main(["dome", "inj-radius", "--input", tetra_file, "--z", "0.4,0.8",
                  "--depth", "6"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.splitlines()[-1].endswith("unrecognized arguments: --depth 6")

    def test_dome_runs_without_scipy(self, tmp_path):
        # the hull kernel is domekit's own: scipy is a test dependency only
        five = tmp_path / "five.json"
        five.write_text(json.dumps(GOLDEN_FILES["five.json"]))
        codes = _run_without("scipy", [
            ["dome", "build", "--input", str(five)],
            ["dome", "retract", "--input", str(five), "--z=-0.5,0.25"],
            ["dome", "inj-radius", "--input", str(five), "--z", "0.5,0.5"],
        ])
        assert codes == [0, 0, 0]

    def test_dome_runs_without_numpy_ma(self, tmp_path):
        # np.unique loads numpy.ma; the hull build numbers merged faces
        # without it, on five.json and on four concyclic points
        five, ring = tmp_path / "five.json", tmp_path / "ring.json"
        five.write_text(json.dumps(GOLDEN_FILES["five.json"]))
        ring.write_text(json.dumps({"points": [[1, 0], [0, 1], [-1, 0], [0, -1], [0, 0]]}))
        codes = _run_without("numpy.ma", [
            ["dome", "build", "--input", str(five)],
            ["dome", "build", "--input", str(ring)],
            ["dome", "retract", "--input", str(five), "--z=-0.5,0.25"],
            ["dome", "inj-radius", "--input", str(five), "--z", "0.5,0.5"],
        ])
        assert codes == [0, 0, 0, 0]

    def test_one_worker_runs_without_concurrent_futures(self, tmp_path):
        # the thread pool, and the logging it loads, only start for two workers
        lam = tmp_path / "lam.json"
        lam.write_text(json.dumps(GOLDEN_FILES["lam.json"]))
        codes = _run_without("concurrent.futures", [
            ["lamination", "validate", "--input", str(lam)],
            ["lamination", "roundness", "--input", str(lam)],
            ["lamination", "roundness", "--input", str(lam), "--brute-arcs", "40000",
             "--threads", "1"],
            ["earthquake", "trace", "--input", str(lam), "--t", "0.5", "--samples", "4"],
        ])
        assert codes == [0, 0, 0, 0]

    def test_bounds_and_annulus_run_without_numpy(self):
        codes = _run_without("numpy", [
            ["bounds", "eval", "--nu", "0.3"],
            ["annulus", "table", "--s-min", "1", "--s-max", "10", "--points", "4"],
        ])
        assert codes == [0, 0]

    def test_package_names_load_on_first_use(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, domekit; print('domekit.laminations' in sys.modules); "
             "from domekit import FiniteLamination, INF; "
             "print(FiniteLamination.__module__, INF, sorted(domekit.__all__)[:2])"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == [
            "False", "domekit.laminations (inf+0j) ['BoundaryPointH2', 'CircleOrLine']"]

    def test_closed_stdout_ends_without_traceback(self):
        # a reader that is gone before the first write, as with `| head -0`
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "domekit.cli", "bounds", "eval", "--nu", "0.5"],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Error" not in proc.stderr

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(
            ["lamination", "validate", "--input", "/nonexistent.json"], capsys
        )
        assert code == 1


class TestLoaderErrors:
    @pytest.mark.parametrize("command, text, message", [
        ("lamination", '{"leaves": [[0.3, 2.2]', "not valid JSON"),
        ("lamination", '[[0.3, 2.2]]', "missing key 'leaves'"),
        ("lamination", '{"weights": [1.0]}', "missing key 'leaves'"),
        ("lamination", '{"leaves": [[0.3, 2.2]]}', "missing key 'weights'"),
        ("lamination", '{"leaves": [[0.3, 2.2, 4.0]], "weights": [1]}', "leaves:"),
        ("lamination", '{"leaves": [0.3], "weights": [1]}', "leaves:"),
        ("lamination", '{"leaves": [[0.3, 2.2]], "weights": ["heavy"]}', "weights:"),
        ("lamination", '{"leaves": [[0.3, 0.3]], "weights": [1]}', "coincide"),
        ("lamination", '{"leaves": [[0.3, 2.2]], "weights": [NaN]}', "non-finite"),
        ("lamination", '{"leaves": [[0.3, Infinity]], "weights": [1]}', "non-finite"),
        ("lamination", '{"leaves": [[0.3, 1e400]], "weights": [1]}', "non-finite"),
        ("lamination", '{"leaves": [[0.3, 2.2], [2.2, 0.3]], "weights": [1, 1]}',
         "leaves 0 and 1 are identical"),
        ("dome", '{"points": [[0, 0], [1, 0]', "not valid JSON"),
        ("dome", '{"pts": [[0, 0], [1, 0], "inf"]}', "missing key 'points'"),
        ("dome", '{"points": [[0, 0], [1], "inf"]}', "points:"),
        ("dome", '{"points": [[0, 0], [1, 0], 7]}', "points:"),
        ("dome", '{"points": [[0, 0], [1, 0], [NaN, 0], [0, 1]]}', "non-finite"),
    ])
    def test_error_line(self, tmp_path, capsys, command, text, message):
        p = tmp_path / "in.json"
        p.write_text(text)
        argv = (["lamination", "validate"] if command == "lamination"
                else ["dome", "build"]) + ["--input", str(p)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: InvalidInput: ") and message in err
        assert err.count("\n") == 1


class TestHugeQuery:
    @pytest.mark.parametrize("points", [
        [[0, 0], [1, 0], "inf", [0, -1]],
        [[0, 0], [1, 0], [0, 1], [0, -1], [3, 2]],
    ])
    @pytest.mark.parametrize("z", ["1e160,0", "-3e200,1", "1e153,1e153"])
    def test_result_or_error_line(self, tmp_path, capsys, points, z):
        # |z|^2 overflows a float beyond ~1.3e154; any other exception
        # would escape main() and fail the test
        p = tmp_path / "pts.json"
        p.write_text(json.dumps({"points": points}))
        code, out, err = run_cli(["dome", "retract", "--input", str(p), f"--z={z}"],
                                 capsys)
        if code == 0:
            assert json.loads(out)["point"]["t"] > 0
        else:
            assert code == 1 and err.startswith("error: ")


class TestInputValidation:
    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_threads_must_be_positive(self, lam_file, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lamination", "roundness", "--input", lam_file,
                  "--brute-arcs", "1000", "--threads", value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
    def test_seed_must_be_nonnegative(self, lam_file, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lamination", "roundness", "--input", lam_file,
                  "--brute-arcs", "10", "--seed", value])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_negative_brute_arcs_is_an_error_line(self, lam_file, capsys):
        code, out, err = run_cli(
            ["lamination", "roundness", "--input", lam_file,
             "--brute-arcs", "-5"], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "NonpositiveInput" in err

    @pytest.mark.parametrize("message", ["Unable to allocate 745. GiB", ""])
    def test_memory_error_is_an_error_line(self, lam_file, capsys, monkeypatch,
                                           message):
        # stands in for any allocation numpy refuses; the sampler's memory
        # no longer grows with --brute-arcs, so a huge one only takes long
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(lam_mod, "roundness_brute_force", refuse)
        code, out, err = run_cli(
            ["lamination", "roundness", "--input", lam_file,
             "--brute-arcs", "100000000000"], capsys
        )
        assert code == 1 and out == ""
        assert err == f"error: out of memory{': ' + message if message else ''}\n"

    @pytest.mark.parametrize("command, text", [
        ("lamination", '{"leaves": [["0.3", "2.2"]], "weights": [1]}'),
        ("lamination", '{"leaves": [[0.3, 2.2]], "weights": [true]}'),
        ("lamination", '{"leaves": [[false, 2.2]], "weights": [1]}'),
        ("dome", '{"points": [["0", "0"], [1, 0], "inf", [0, -1]]}'),
        ("dome", '{"points": [[0, 0], [1, true], "inf", [0, -1]]}'),
    ])
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, capsys,
                                                  command, text):
        p = tmp_path / "in.json"
        p.write_text(text)
        argv = (["lamination", "validate"] if command == "lamination"
                else ["dome", "build"]) + ["--input", str(p)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: InvalidInput: ") and "is not a number" in err

    @pytest.mark.parametrize("value", [3, -2.5, np.float32(0.5), np.int64(4)])
    def test_ints_and_floats_are_numbers(self, value):
        assert finite_float(value) == float(value)

    def test_zero_brute_arcs_skips_the_sampler(self, lam_file, capsys):
        code, out, _ = run_cli(
            ["lamination", "roundness", "--input", lam_file,
             "--brute-arcs", "0"], capsys
        )
        assert code == 0
        assert "brute_force" not in json.loads(out)


_ROUND_TRIPS = settings(max_examples=25, derandomize=True, database=None, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestJsonRoundTrip:
    """A file written from a library object reads back, through the CLI, as
    that object; each example overwrites the one input file."""

    @_ROUND_TRIPS
    @given(lam=oracle_laminations())
    def test_lamination_to_json(self, tmp_path, capsys, lam):
        p = tmp_path / "lam.json"
        p.write_text(json.dumps(lam.to_json()))
        assert lam_mod.FiniteLamination.load(p) == lam
        code, out, _ = run_cli(["lamination", "validate", "--input", str(p)], capsys)
        assert code == 0 and json.loads(out)["n_leaves"] == len(lam)
        code, out, _ = run_cli(["lamination", "roundness", "--input", str(p)], capsys)
        assert code == 0
        assert json.loads(out)["roundness"].hex() == lam_mod.roundness(lam).hex()

    @_ROUND_TRIPS
    @given(kind=st.sampled_from(["sphere", "sphere_inf", "concyclic", "annulus",
                                 "ring", "five", "kite"]),
           n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1))
    def test_hull_points(self, tmp_path, capsys, kind, n, seed):
        points = _retract_config(kind, n, np.random.default_rng(seed))
        want = json.loads(json.dumps(hull_to_json(build_hull(IdealConfiguration(points)))))
        p = tmp_path / "points.json"
        p.write_text(json.dumps({"points": want["points"]}))
        code, out, _ = run_cli(["dome", "build", "--input", str(p)], capsys)
        assert code == 0
        got = json.loads(out)
        assert (got["faces"], got["edges"]) == (want["faces"], want["edges"])


class TestLinspace:
    """`annulus table` spaces its s values without numpy, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(start=st.floats(-1e300, 1e300), stop=st.floats(-1e300, 1e300),
           num=st.integers(0, 70))
    @example(start=1.0, stop=1.0, num=5)
    @example(start=5e-324, stop=1e-323, num=7)
    @example(start=0.5, stop=30.0, num=50)
    def test_bits_equal_numpy(self, start, stop, num):
        got = _linspace(start, stop, num)
        assert [x.hex() for x in got] == [x.hex() for x in np.linspace(start, stop, num).tolist()]


class TestThreadIndependence:
    def test_brute_force_identical_across_thread_counts(self, lam_file, capsys):
        outs = []
        for threads in ("1", "4"):
            code, out, _ = run_cli(
                ["lamination", "roundness", "--input", lam_file,
                 "--brute-arcs", "30000", "--seed", "5",
                 "--threads", threads, "--format", "csv"], capsys
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestFieldDump:
    def test_k_field_csv(self, tmp_path, capsys):
        path = tmp_path / "field.csv"
        code, _, _ = run_cli(
            ["qc", "estimate", "--fixture", "affine", "--grid", "32",
             "--dump-field", str(path)], capsys
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,K"
        assert len(lines) == 1 + 30 * 30
        assert all(abs(float(l.split(",")[2]) - 2.0) < 1e-9 for l in lines[1:])

    def test_masked_field_matches_per_cell_rows(self, tmp_path, capsys):
        # the annulus 1 < |z| < 2 leaves whole rows and parts of rows out
        path = tmp_path / "field.csv"
        code, _, _ = run_cli(
            ["qc", "estimate", "--fixture", "power", "--grid", "64",
             "--dump-field", str(path)], capsys)
        assert code == 0
        grid = qc_mod.power_map_sample(2.0, 64)
        field = qc_mod.beltrami_estimate(grid)
        want = ["x,y,K\n"]
        for j, i in zip(*np.nonzero(field.usable)):
            loc = grid.cell_location(int(j), int(i))
            want.append(f"{loc.real:.17g},{loc.imag:.17g},{field.K[j, i]:.17g}\n")
        assert 1 < len(want) < 1 + 62 * 62
        assert path.read_text() == "".join(want)


GOLDEN_FILES = {
    "lam.json": {"leaves": [[0.3, 2.2], [3.0, 5.5]], "weights": [0.8, 1.1]},
    "pole.json": {"leaves": [[1.0, 2.0]], "weights": [0.5]},
    "cross.json": {"leaves": [[0, 2], [1, 3]], "weights": [1, 1]},
    "short.json": {"leaves": [[0.3, 2.2]], "weights": [0.8, 1.1]},
    "tetra.json": {"points": [[0, 0], [1, 0], "inf", [0, -1]]},
    "square.json": {"points": [[0, 0], [1, 0], "inf", [-1, 0]]},
    "five.json": {"points": [[0, 0], [1, 0], [0, 1], [0, -1], [3, 2]]},
}

def _exit_code(template, root):
    """Run the CLI on ``template``, where ``{name}`` is the file ``root/name``."""
    argv = [str(root / a[1:-1]) if a.startswith("{") else a for a in template]
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


#: Every subcommand and flag; each entry runs once per output format.
GOLDEN_CASES = [
    ["bounds", "eval", "--nu", "0.3"],
    ["bounds", "eval", "--nu", "0.5"],
    ["bounds", "eval", "--nu", "0.7", "--nu-hat", "0.4"],
    ["bounds", "eval", "--nu-hat", "1.2"],
    ["bounds", "eval"],
    ["bounds", "eval", "--nu", "-2"],
    ["bounds", "table", "--nu-min", "0.1", "--nu-max", "1.0", "--points", "5"],
    ["bounds", "table", "--nu-min", "0.2", "--nu-max", "0.9"],
    ["bounds", "table", "--nu-min", "0.2", "--nu-max", "0.9", "--points", "0"],
    ["annulus", "table", "--s-min", "1", "--s-max", "10", "--points", "4"],
    ["annulus", "table", "--s-min", "0.5", "--s-max", "30"],
    ["annulus", "table", "--s-min", "-1", "--s-max", "2", "--points", "3"],
    ["dome", "build", "--input", "{tetra.json}"],
    ["dome", "build", "--input", "{square.json}"],
    ["dome", "build", "--input", "{five.json}", "--mesh", "{mesh.obj}"],
    ["dome", "build", "--input", "{missing.json}"],
    ["dome", "retract", "--input", "{tetra.json}", "--z", "0.4,0.8"],
    ["dome", "retract", "--input", "{tetra.json}", "--z", "0.3+0.2i"],
    ["dome", "retract", "--input", "{tetra.json}", "--z", "inf"],
    ["dome", "retract", "--input", "{tetra.json}", "--z", "1,0"],
    ["dome", "retract", "--input", "{five.json}", "--z=-0.5,0.25"],
    ["dome", "retract", "--input", "{five.json}", "--z", "inf"],
    ["dome", "inj-radius", "--input", "{tetra.json}", "--z", "0.4,0.8"],
    ["dome", "inj-radius", "--input", "{five.json}", "--z", "0.5,0.5"],
    ["lamination", "validate", "--input", "{lam.json}"],
    ["lamination", "validate", "--input", "{cross.json}"],
    ["lamination", "validate", "--input", "{short.json}"],
    ["lamination", "roundness", "--input", "{lam.json}"],
    ["lamination", "roundness", "--input", "{lam.json}", "--brute-arcs", "0"],
    ["lamination", "roundness", "--input", "{lam.json}", "--brute-arcs", "2000",
     "--seed", "3", "--threads", "2"],
    ["lamination", "roundness", "--input", "{lam.json}", "--brute-arcs", "-5"],
    ["earthquake", "trace", "--input", "{lam.json}", "--t", "0.5",
     "--samples", "6"],
    ["earthquake", "trace", "--input", "{lam.json}", "--t", "1"],
    ["earthquake", "trace", "--input", "{lam.json}", "--t", "0.4,0.3",
     "--samples", "5"],
    ["earthquake", "trace", "--input", "{pole.json}", "--t", "0.4+0.3i",
     "--samples", "4"],
    ["crescent", "dilatation", "--w", "0,2", "--theta", "1.0"],
    ["crescent", "dilatation", "--w", "0.5,1.5", "--theta", "0.8",
     "--grid", "48"],
    ["crescent", "dilatation", "--w", "0,3", "--theta", "3.14159"],
    ["qc", "estimate", "--fixture", "identity", "--grid", "24"],
    ["qc", "estimate", "--fixture", "affine", "--grid", "16",
     "--dump-field", "{field.csv}"],
    ["qc", "estimate", "--fixture", "power", "--alpha", "3", "--grid", "32"],
    ["qc", "estimate", "--fixture", "mobius-far", "--grid", "24"],
    ["qc", "estimate", "--fixture", "mobius-near", "--grid", "24"],
    ["qc", "estimate", "--fixture", "power", "--alpha", "-1", "--grid", "16"],
]

#: Usage errors, run once each.
GOLDEN_USAGE = [
    [],
    ["bounds"],
    ["bounds", "nope"],
    ["bounds", "eval", "--bogus"],
    ["bounds", "eval", "--nu", "abc"],
    ["bounds", "eval", "--format", "xml"],
    ["bounds", "table", "--nu-min", "0.1"],
    ["dome", "retract", "--input", "{tetra.json}"],
    ["qc", "estimate", "--fixture", "nope"],
    ["lamination", "roundness", "--input", "{lam.json}", "--threads", "0"],
    ["lamination", "roundness", "--input", "{lam.json}", "--seed", "-1"],
]

#: Every help text, in table order.
GOLDEN_HELP = [["--help"]] + [[g, "--help"] for g in COMMANDS] + [
    [g, c, "--help"] for g, cmds in COMMANDS.items() for c in cmds]

#: sha256 of the matrix above under CPython 3.11 and numpy 2.4 on x86-64
#: Linux (an 80-bit long double); argparse wraps and words its help and usage
#: texts differently in other versions.  No record depends on the BLAS
#: kernel (`test_dome_build_independent_of_blas_kernel`).
GOLDEN_SHA256 = "abb07282adc8d079bbbccdccc7413258a3d60707f11ff97eba14a0355c5706b0"


class TestGolden:
    """One hash over (argv, exit code, stdout, stderr, written files) for every
    case of the matrix, with file paths replaced by placeholders."""

    def _transcript(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        for name, doc in GOLDEN_FILES.items():
            (tmp_path / name).write_text(json.dumps(doc))
        runs = [case + ["--format", fmt]
                for case in GOLDEN_CASES for fmt in ("json", "csv")]
        runs += GOLDEN_USAGE + GOLDEN_HELP
        lines = []
        for template in runs:
            code = _exit_code(template, tmp_path)
            out, err = capsys.readouterr()
            written = {}
            for name in ("mesh.obj", "field.csv"):
                if (tmp_path / name).exists():
                    written[name] = (tmp_path / name).read_text()
                    (tmp_path / name).unlink()
            record = [template, code, out, err, written]
            lines.append(json.dumps(record).replace(str(tmp_path), "<tmp>"))
        return lines

    def test_transcript_hash(self, tmp_path, capsys, monkeypatch):
        lines = self._transcript(tmp_path, capsys, monkeypatch)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == GOLDEN_SHA256

    def test_matrix_covers_every_command(self):
        covered = {tuple(case[:2]) for case in GOLDEN_CASES}
        assert covered == {(g, c) for g, cmds in COMMANDS.items() for c in cmds}
        for g, cmds in COMMANDS.items():
            for c, (_, flags) in cmds.items():
                used = {a.split("=")[0] for case in GOLDEN_CASES
                        if case[:2] == [g, c] for a in case}
                assert set(flags) <= used, (g, c)


def test_commands_take_only_their_flags_and_format():
    # --seed and --threads are read by `lamination roundness` alone
    parser = build_parser()
    for g, cmds in COMMANDS.items():
        for c, (_, flags) in cmds.items():
            case = next(case for case in GOLDEN_CASES if case[:2] == [g, c])
            args = vars(parser.parse_args(case))
            assert set(args) - {"group", "cmd", "func"} == {
                f[2:].replace("-", "_") for f in [*flags, "--format"]}, (g, c)
            if "--seed" not in flags:
                with pytest.raises(SystemExit):
                    parser.parse_args(case + ["--seed", "0"])


_BUILD_DIGEST = """
import contextlib, hashlib, io, json, pathlib, sys, tempfile
from domekit.cli import main
d = pathlib.Path(tempfile.mkdtemp())
(d / "five.json").write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1], [0, -1], [3, 2]]}))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["dome", "build", "--input", str(d / "five.json"),
                 "--mesh", str(d / "mesh.obj")]) == 0
for text in (out.getvalue(), (d / "mesh.obj").read_text()):
    print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_dome_build_independent_of_blas_kernel():
    # OpenBLAS picks its kernel by CPU unless OPENBLAS_CORETYPE names one; the
    # hull's planes, angles, convexity check and mesh use no BLAS call
    digests = set()
    for coretype in ("Haswell", "Prescott", "SkylakeX"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["OPENBLAS_CORETYPE"] = coretype
        out = subprocess.run([sys.executable, "-c", _BUILD_DIGEST], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        digests.add(out)
    assert len(digests) == 1


# Nearly cocircular first four points: the hull has an edge of exterior angle
# 1.7e-7, which the development crosses like any other.
FLAT_EDGE = [[-1.5773882307765996, 0.17922113048169758],
             [-1.1554544164922362, 0.07676559845439478],
             [-1.34548183335034, -0.10563059977012569],
             [-1.1922140724590327, 0.23572157895352278],
             [3, 1], [-4, 2], [0.5, -5], [6, -3], [-0.5, 0.2]]


class TestMalformedInput:
    """Bad flags end in a usage error (exit 2), domain trouble in one
    ``error:`` line (exit 1), and output is strict JSON or finite CSV."""

    @pytest.mark.parametrize("argv, expected", [
        (["dome", "retract", "--input", "{tetra.json}", "--z", "abc"], 2),
        (["dome", "retract", "--input", "{tetra.json}", "--z", "1,2,3"], 2),
        (["dome", "retract", "--input", "{tetra.json}", "--z", "nan,0"], 2),
        (["crescent", "dilatation", "--w", "nan,1", "--theta", "1"], 2),
        (["bounds", "table", "--nu-min", "0.1", "--nu-max", "1",
          "--points", "-3"], 2),
        (["annulus", "table", "--s-min", "1", "--s-max", "2", "--points", "-1"], 2),
        (["earthquake", "trace", "--input", "{lam.json}", "--t", "0.5",
          "--samples", "-2"], 2),
        (["qc", "estimate", "--fixture", "identity", "--grid", "1"], 1),
        (["crescent", "dilatation", "--w", "0,2", "--theta", "1", "--grid", "1"], 1),
        (["bounds", "eval", "--nu", "1e-300"], 0),
        (["bounds", "eval", "--nu", "1e-300", "--format", "csv"], 0),
        (["annulus", "table", "--s-min", "1", "--s-max", "1e5"], 1),
        (["annulus", "table", "--s-min", "1", "--s-max", "inf", "--points", "2"], 1),
        (["annulus", "table", "--s-min=-inf", "--s-max", "1", "--points", "2"], 1),
        (["annulus", "table", "--s-min", "nan", "--s-max", "1", "--points", "2"], 1),
        (["dome", "inj-radius", "--input", "{flat.json}", "--z=-1.35,0.1"], 0),
        (["bounds", "table", "--nu-min", "0", "--nu-max", "1", "--points", "3"], 1),
        (["bounds", "table", "--nu-min=-1", "--nu-max", "1", "--points", "3"], 1),
        (["bounds", "table", "--nu-min", "0.1", "--nu-max=-2", "--points", "3"], 1),
        (["bounds", "table", "--nu-min", "0.1", "--nu-max", "inf", "--points", "3"], 1),
        (["bounds", "table", "--nu-min", "nan", "--nu-max", "1", "--points", "3"], 1),
        (["earthquake", "trace", "--input", "{lam.json}", "--t", "inf",
          "--samples", "3"], 2),
        (["earthquake", "trace", "--input", "{lam.json}", "--t", "0.4,inf",
          "--samples", "3"], 2),
        (["earthquake", "trace", "--input", "{lam.json}", "--t", "1e400",
          "--samples", "3"], 2),
        (["crescent", "dilatation", "--w", "inf", "--theta", "1"], 2),
        (["crescent", "dilatation", "--w", "0,2", "--theta", "inf"], 2),
        (["qc", "estimate", "--fixture", "power", "--alpha", "inf", "--grid", "16"], 2),
        (["crescent", "dilatation", "--w=-inf,1", "--theta", "1"], 2),
        (["crescent", "dilatation", "--w", "0,2", "--theta", "nan"], 2),
        (["qc", "estimate", "--fixture", "scaling", "--grid", "16"], 2),
        (["dome", "retract", "--input", "{flat.json}", "--z", "inf"], 0),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_ends_cleanly(self, tmp_path, capsys, argv, expected):
        for name in ("tetra.json", "lam.json"):
            (tmp_path / name).write_text(json.dumps(GOLDEN_FILES[name]))
        (tmp_path / "flat.json").write_text(json.dumps({"points": FLAT_EDGE}))
        code = _exit_code(argv, tmp_path)
        out, err = capsys.readouterr()
        assert code == expected, err
        if code == 2:
            assert out == "" and err.startswith("usage: domekit ")
            assert "error: argument" in err.splitlines()[-1]
        elif code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        elif "csv" in argv:
            cells = out.replace("\n", ",").split(",")
            assert err == "" and not {"inf", "-inf", "nan"} & set(cells)
        else:
            assert err == ""
            json.loads(out, parse_constant=_reject_constant)
