"""End-to-end command-line behaviour: artifacts, round trips, exit codes."""

import json

import numpy as np
import pytest

import su2gap.spectral
from su2gap.cli import main
from su2gap.errors import ConvergenceError


def run_cli(*argv) -> int:
    return main(list(argv))


def run_to_file(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out


class TestConstructAndTraces:
    def test_construct_fricke_zero_two(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "pair.json", "construct", "--fricke", "0", "2"
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["schema"] == 1
        assert record["type"] == "matrix"
        np.testing.assert_allclose(record["a"], [0.0, 1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(record["b"], [1.0, 0.0, 0.0, 0.0], atol=0)

    def test_roundtrip_fricke(self, tmp_path):
        _, pair_file = run_to_file(
            tmp_path, "pair.json", "construct", "--fricke", "0.37", "-1.2"
        )
        code, traces_file = run_to_file(
            tmp_path, "traces.json", "traces", "--pair", str(pair_file), "--format", "json"
        )
        assert code == 0
        record = json.loads(traces_file.read_text())
        assert abs(record["x"] - 0.37) < 1e-9
        assert abs(record["t"] - (-1.2)) < 1e-9

    def test_roundtrip_triple(self, tmp_path):
        _, pair_file = run_to_file(
            tmp_path, "pair.json", "construct", "--triple", "0.5", "-0.25", "1.0"
        )
        code, traces_file = run_to_file(
            tmp_path, "traces.json", "traces", "--pair", str(pair_file), "--format", "json"
        )
        assert code == 0
        record = json.loads(traces_file.read_text())
        assert abs(record["x"] - 0.5) < 1e-9
        assert abs(record["y"] - (-0.25)) < 1e-9
        assert abs(record["z"] - 1.0) < 1e-9

    def test_construct_csv_format(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "pair.csv", "construct", "--fricke", "0", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert any(line.startswith("re_alpha_a") for line in lines)


class TestPhiIterate:
    def test_escape_orbit_csv(self, tmp_path):
        code, out = run_to_file(tmp_path, "orbit.csv", "phi-iterate", "--t0", "1.9")
        assert code == 0
        lines = out.read_text().splitlines()
        assert "# steps_to_negative=3" in lines
        data_rows = [line for line in lines if not line.startswith("#")][1:]
        assert len(data_rows) == 4
        final_step, final_value = data_rows[-1].split(",")
        assert final_step == "3"
        assert float(final_value) < 0.0

    def test_not_reached(self, tmp_path):
        code, out = run_to_file(tmp_path, "o.csv", "phi-iterate", "--t0", "2")
        assert code == 0
        assert "# steps_to_negative=not-reached" in out.read_text().splitlines()


class TestGapProfile:
    def test_identity_pair_min_gap_zero(self, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(
            json.dumps({"type": "matrix", "a": [1, 0, 0, 0], "b": [1, 0, 0, 0]})
        )
        code, out = run_to_file(
            tmp_path,
            "profile.csv",
            "gap-profile",
            "--pair",
            str(pair_file),
            "--nmax",
            "50",
        )
        assert code == 0
        text = out.read_text()
        assert "# min_gap=0" in text
        assert "# note=truncated evidence, not a certificate" in text
        data_rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
        assert len(data_rows) == 50

    def test_accepts_fricke_pair_spec(self, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.0, "t": 2.0}))
        code, out = run_to_file(
            tmp_path, "p.json", "gap-profile", "--pair", str(pair_file),
            "--nmax", "8", "--format", "json",
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["note"] == "truncated evidence, not a certificate"
        assert len(record["levels"]) == 8


class TestSeededDeterminism:
    COMMANDS = [
        ("sample", "sample", "--count", "3", "--seed", "11"),
        ("density", "density", "--samples", "5000", "--bins", "10", "--seed", "11"),
        ("fiber-sample", "fiber-sample", "--t", "0.5", "--count", "20", "--seed", "11"),
        (
            "fiber-transport",
            "fiber-transport",
            "--t",
            "0.5",
            "--count",
            "500",
            "--seed",
            "11",
        ),
    ]

    @pytest.mark.parametrize(
        "argv", [c[1:] for c in COMMANDS], ids=[c[0] for c in COMMANDS]
    )
    def test_byte_identical_reruns(self, tmp_path, argv):
        _, first = run_to_file(tmp_path, "run_1.out", *argv)
        _, second = run_to_file(tmp_path, "run_2.out", *argv)
        assert first.read_bytes() == second.read_bytes()

    def test_defect_seeded(self, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.3, "t": 0.7}))
        argv = (
            "defect", "--pair", str(pair_file), "--word", "abAB",
            "--level", "6", "--trials", "25", "--seed", "2",
        )
        _, first = run_to_file(tmp_path, "d1.csv", *argv)
        _, second = run_to_file(tmp_path, "d2.csv", *argv)
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text()
        assert "# max_violation=" in text
        violation = float(
            next(l for l in text.splitlines() if l.startswith("# max_violation="))
            .split("=")[1]
        )
        assert violation <= 1e-10


class TestOtherCommands:
    def test_fiber_image(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "fi.json", "fiber-image", "--t", "0", "--format", "json"
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["analytic"] == [-2.0, 2.0]
        assert abs(record["numeric"][0] + 2.0) < 1e-5

    def test_orbit(self, tmp_path):
        _, pair_file = run_to_file(
            tmp_path, "pair.json", "construct", "--triple", "0.4", "0.1", "-0.8"
        )
        code, out = run_to_file(
            tmp_path, "orbit.csv", "orbit", "--pair", str(pair_file), "--depth", "3"
        )
        assert code == 0
        rows = [
            line for line in out.read_text().splitlines() if not line.startswith("#")
        ][1:]
        assert rows[0].startswith(",")  # root has the empty path
        assert len(rows) > 5

    def test_density_rows(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "d.csv", "density", "--samples", "2000", "--bins", "5",
            "--seed", "3",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")][1:]
        assert len(data) == 25
        total = sum(int(row.split(",")[2]) for row in data)
        assert total == 2000

    def test_sample_feeds_gap_profile(self, tmp_path):
        _, pair_file = run_to_file(
            tmp_path, "pair.json", "sample", "--count", "1", "--seed", "9"
        )
        code, _ = run_to_file(
            tmp_path, "gp.csv", "gap-profile", "--pair", str(pair_file), "--nmax", "3"
        )
        assert code == 0


class TestExitCodes:
    def test_usage_error_bad_precondition(self, tmp_path, capsys):
        assert run_cli("phi-iterate", "--t0", "3.5") == 1
        assert "must lie in [-2, 2]" in capsys.readouterr().err

    def test_usage_error_unknown_command(self):
        assert run_cli("no-such-command") == 1

    def test_usage_error_missing_required(self):
        assert run_cli("construct") == 1

    def test_domain_error_exit_two(self, capsys):
        assert run_cli("construct", "--fricke", "2", "0") == 2
        assert "domain error" in capsys.readouterr().err

    def test_domain_error_from_pair_file(self, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 2.0, "t": 0.0}))
        assert run_cli("traces", "--pair", str(pair_file)) == 2

    def test_convergence_error_exit_three(self, tmp_path, monkeypatch):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.0, "t": 2.0}))

        def explode(pair, n_max):
            raise ConvergenceError("stalled", level=7)

        monkeypatch.setattr(su2gap.spectral, "gap_profile", explode)
        assert run_cli("gap-profile", "--pair", str(pair_file), "--nmax", "5") == 3

    def test_impossible_eigenvalue_exit_three(self, tmp_path, monkeypatch, capsys):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.0, "t": 2.0}))
        monkeypatch.setattr(
            su2gap.spectral, "irrep_matrix", lambda g, n: 1.5 * np.eye(n + 1)
        )
        assert run_cli("gap-profile", "--pair", str(pair_file), "--nmax", "5") == 3
        assert "(level 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", ["traces", "gap-profile"])
    def test_non_finite_pair_file_exit_one(self, tmp_path, bad, command):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(f'{{"type":"matrix","a":[{bad},0,0,0],"b":[1,0,0,0]}}')
        out = tmp_path / "out.csv"
        argv = [command, "--pair", str(pair_file), "--out", str(out)]
        if command == "gap-profile":
            argv += ["--nmax", "3"]
        assert run_cli(*argv) == 1
        assert not out.exists()

    def test_threads_flag_is_unknown(self, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.0, "t": 2.0}))
        assert run_cli("gap-profile", "--pair", str(pair_file), "--threads", "2") == 1

    def test_unreadable_pair_file(self, tmp_path):
        assert run_cli("traces", "--pair", str(tmp_path / "missing.json")) == 1

    def test_invalid_word(self, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.0, "t": 2.0}))
        assert (
            run_cli("defect", "--pair", str(pair_file), "--word", "xyz") == 1
        )
