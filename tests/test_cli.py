import json
import math
import subprocess
import sys

import pytest

from domekit.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


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

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(["bounds", "eval", "--nu", "-2"], capsys)
        assert code == 1
        assert "NonpositiveInput" in err


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
                "--points", "40", "--format", "csv", "--seed", "7"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


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
            ["dome", "inj-radius", "--input", tetra_file, "--z", "0.4,0.8",
             "--depth", "8"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] > 0

    def test_retract_at_ideal_point_errors(self, tetra_file, capsys):
        code, _, err = run_cli(
            ["dome", "retract", "--input", tetra_file, "--z", "1,0"], capsys
        )
        assert code == 1 and "PointNotInDomain" in err


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


class TestQc:
    def test_affine_fixture(self, capsys):
        code, out, _ = run_cli(
            ["qc", "estimate", "--fixture", "affine", "--grid", "128"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["sup_K"] == pytest.approx(2.0, abs=1e-10)

    def test_scaling_fixture(self, capsys):
        code, out, _ = run_cli(
            ["qc", "estimate", "--fixture", "scaling", "--w", "0,1",
             "--theta", "0.8", "--grid", "256"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["analytic_K"] == pytest.approx(2.0, rel=1e-12)


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "domekit.cli", "bounds", "eval", "--bogus"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(
            ["lamination", "validate", "--input", "/nonexistent.json"], capsys
        )
        assert code == 1


class TestInputValidation:
    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_threads_must_be_positive(self, lam_file, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lamination", "roundness", "--input", lam_file,
                  "--brute-arcs", "1000", "--threads", value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_threads_env_is_an_error_line(self, lam_file, value,
                                              monkeypatch, capsys):
        monkeypatch.setenv("DOMEKIT_THREADS", value)
        code, out, err = run_cli(
            ["lamination", "roundness", "--input", lam_file,
             "--brute-arcs", "1000"], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "DOMEKIT_THREADS" in err

    def test_negative_brute_arcs_is_an_error_line(self, lam_file, capsys):
        code, out, err = run_cli(
            ["lamination", "roundness", "--input", lam_file,
             "--brute-arcs", "-5"], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "NonpositiveInput" in err

    def test_zero_brute_arcs_skips_the_sampler(self, lam_file, capsys):
        code, out, _ = run_cli(
            ["lamination", "roundness", "--input", lam_file,
             "--brute-arcs", "0"], capsys
        )
        assert code == 0
        assert "brute_force" not in json.loads(out)


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
