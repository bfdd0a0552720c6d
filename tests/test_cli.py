"""End-to-end command-line behaviour: artifacts, round trips, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su2gap.cli
import su2gap.gap_dynamics
import su2gap.measure_lab
import su2gap.spectral
import su2gap.su2_core
from su2gap.cli import build_parser, main
from su2gap.errors import ConvergenceError
from su2gap.spectral import GapProfile


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

    @pytest.mark.parametrize("triple", [("-0.0", "-0.0", "-0.0"), ("2", "-0.0", "-0.0")])
    def test_construct_prints_no_negative_zero(self, tmp_path, triple):
        argv = ("construct", "--triple", *triple)
        _, csv_file = run_to_file(tmp_path, "pair.csv", *argv, "--format", "csv")
        cells = csv_file.read_text().splitlines()[-1].split(",")
        assert "0" in cells and "-0" not in cells
        _, json_file = run_to_file(tmp_path, "pair.json", *argv)
        record = json.loads(json_file.read_text())
        signs = [math.copysign(1.0, c) for c in record["a"] + record["b"] if c == 0]
        assert signs == [1.0] * cells.count("0")

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

    def test_negative_start_in_exponent_form(self, tmp_path):
        code, out = run_to_file(tmp_path, "o.csv", "phi-iterate", "--t0", "-1e-05")
        assert code == 0
        assert "# t0=-1.0000000000000001e-05" in out.read_text().splitlines()

    @pytest.mark.parametrize("value", ["-1e-05", "-2.5E-3", "-.5", "-inf"])
    def test_negative_literals_are_values(self, value):
        assert build_parser().parse_args(["phi-iterate", "--t0", value]).t0 == float(value)


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

    def test_gap_profile_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the byte contract README states: up to --nmax 286 every solve is
        # below size 145, where eigvalsh on OpenBLAS stops depending on the
        # thread count; two fresh processes, since the count is read at load
        s5 = 1.0 / math.sqrt(5.0)
        pair_file = tmp_path / "lps.json"
        pair_file.write_text(
            json.dumps({"type": "matrix", "a": [s5, 2 * s5, 0.0, 0.0], "b": [s5, 0.0, 2 * s5, 0.0]})
        )
        package_root = os.path.dirname(os.path.dirname(su2gap.cli.__file__))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"profile-{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=package_root)
            subprocess.run(
                [
                    sys.executable, "-c", "import sys; from su2gap.cli import main; sys.exit(main())",
                    "gap-profile", "--pair", str(pair_file), "--nmax", "286", "--out", str(out),
                ],
                env=env,
                check=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


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

    def test_one_pair_fiber_sample_is_a_pair_file(self, tmp_path):
        _, pair_file = run_to_file(tmp_path, "pair.json", "fiber-sample", "--t", "0.5", "--count", "1")
        code, out = run_to_file(tmp_path, "traces.json", "traces", "--pair", str(pair_file), "--format", "json")
        assert code == 0
        assert abs(json.loads(out.read_text())["t"] - 0.5) < 1e-12

    def test_samplers_build_no_su2element(self, tmp_path, monkeypatch):
        # the sampled pairs stay one component array from the draw to the artifact
        built = []
        check = su2gap.su2_core.SU2Element.__post_init__
        monkeypatch.setattr(
            su2gap.su2_core.SU2Element, "__post_init__", lambda g: built.append(check(g))
        )
        for argv in (["sample", "--count", "1500"], ["fiber-sample", "--t", "0.5", "--count", "300"]):
            for fmt in ("csv", "json"):
                code, _ = run_to_file(tmp_path, f"pairs.{fmt}", *argv, "--format", fmt)
                assert code == 0
        assert built == []


# Every range rule a command enforces, with the text stderr must show: the
# first fifteen are the library's (the message names the library parameter),
# the last three the handlers' own.  "{pair}" stands for a valid pair file.
INVALID_INPUT = [
    pytest.param(["phi-iterate", "--t0", "3.5"], "t0 = 3.5 must lie in [-2, 2]", id="phi-t0"),
    pytest.param(["phi-iterate", "--t0", "nan"], "t0 = nan must lie in [-2, 2]", id="phi-t0-nan"),
    pytest.param(
        ["phi-iterate", "--t0", "1.9", "--max-steps", "0"],
        "max_steps must be at least 1",
        id="phi-max-steps",
    ),
    pytest.param(["fiber-image", "--t", "2.5"], "t = 2.5 must lie in [-2, 2]", id="image-t"),
    pytest.param(
        ["fiber-image", "--t", "0.5", "--grid-points", "1"],
        "grid_points must be at least 2",
        id="image-grid-points",
    ),
    pytest.param(
        ["orbit", "--pair", "{pair}", "--depth", "-1"], "depth must be nonnegative", id="orbit-depth"
    ),
    pytest.param(
        ["orbit", "--pair", "{pair}", "--max-points", "0"],
        "max_points must be at least 1",
        id="orbit-max-points",
    ),
    pytest.param(
        ["gap-profile", "--pair", "{pair}", "--nmax", "0"], "n_max must be at least 1", id="gap-nmax"
    ),
    pytest.param(["density", "--samples", "0"], "sample_count must be at least 1", id="density-samples"),
    pytest.param(["density", "--bins", "1"], "bins must be at least 2", id="density-bins"),
    pytest.param(["fiber-sample", "--t", "-3"], "t = -3.0 must lie in [-2, 2]", id="sample-t"),
    pytest.param(
        ["fiber-sample", "--t", "0.5", "--count", "0"], "count must be at least 1", id="sample-count"
    ),
    pytest.param(["fiber-transport", "--t", "-inf"], "t = -inf must lie in [-2, 2]", id="transport-t"),
    pytest.param(
        ["fiber-transport", "--t", "0.5", "--count", "0"],
        "count must be at least 1",
        id="transport-count",
    ),
    pytest.param(
        ["fiber-transport", "--t", "0.5", "--bins", "1"], "bins must be at least 2", id="transport-bins"
    ),
    pytest.param(["sample", "--count", "0"], "--count must be at least 1", id="sample-pairs-count"),
    pytest.param(
        ["defect", "--pair", "{pair}", "--word", "ab", "--level", "0"],
        "--level must be at least 1",
        id="defect-level",
    ),
    pytest.param(
        ["defect", "--pair", "{pair}", "--word", "ab", "--trials", "0"],
        "--trials must be at least 1",
        id="defect-trials",
    ),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, message", INVALID_INPUT)
    def test_invalid_input_exit_one(self, tmp_path, capsys, argv, message):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.3, "t": 0.7}))
        out = tmp_path / "out"
        argv = [str(pair_file) if a == "{pair}" else a for a in argv]
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"su2gap: error: {message}\n"
        assert not out.exists()

    def test_eigensolver_failure_in_defect_exit_three(self, tmp_path, monkeypatch, capsys):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.3, "t": 0.7}))

        def fail(matrix):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        out = tmp_path / "defect.csv"
        argv = ["defect", "--pair", str(pair_file), "--word", "abAB", "--level", "6"]
        assert run_cli(*argv, "--out", str(out)) == 3
        assert "numerical error (level 6): eigensolver failed" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "triple, message",
        [
            (
                ("1.9", "-1.9", "1.9"),
                "(x, y, z) = (1.9, -1.9, 1.9) is not in Omega: requires x^2 + y^2 + z^2 - x*y*z - 4 <= 0",
            ),
            (
                ("2", "0.5", "0.5000001"),
                "with a = +I the trace of ab is forced to 0.5, but z = 0.5000001 was requested",
            ),
            (
                ("-2", "0.5", "-0.5000001"),
                "with a = -I the trace of ab is forced to -0.5, but z = -0.5000001 was requested",
            ),
            (
                # in Omega to tolerance and off the edge, but |p| > 1 beyond rounding
                ("1.99999999999999", "1.0", "1.000000728025044"),
                "no unitary completion for (x, y, z) = (1.99999999999999, 1.0, 1.000000728025044)",
            ),
        ],
    )
    def test_construct_triple_domain_errors_exit_two(self, tmp_path, capsys, triple, message):
        out = tmp_path / "out.json"
        assert run_cli("construct", "--triple", *triple, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"su2gap: domain error: {message}\n"
        assert not out.exists()

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
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda matrix: np.full(len(matrix), 1.5))
        assert run_cli("gap-profile", "--pair", str(pair_file), "--nmax", "5") == 3
        assert "(level 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", ["traces", "gap-profile"])
    def test_non_finite_pair_file_exit_one(self, tmp_path, bad, command):
        pair_file = tmp_path / "pair.json"
        out = tmp_path / "out.csv"
        argv = [command, "--pair", str(pair_file), "--out", str(out)]
        if command == "gap-profile":
            argv += ["--nmax", "3"]
        for record in (
            f'{{"type":"matrix","a":[{bad},0,0,0],"b":[1,0,0,0]}}',
            f'{{"type":"fricke","x":{bad},"t":0}}',
            f'{{"type":"fricke","x":0,"t":{bad}}}',
            f'{{"type":"traces","x":0,"y":{bad},"z":0}}',
        ):
            pair_file.write_text(record)
            assert run_cli(*argv) == 1, record
            assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("coords", [["--fricke", "{}", "0"], ["--triple", "0", "0", "{}"]])
    def test_non_finite_construct_exit_one(self, tmp_path, capsys, bad, coords):
        out = tmp_path / "out.json"
        argv = ["construct", *(c.format(bad) for c in coords), "--out", str(out)]
        assert run_cli(*argv) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_is_unknown(self, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.0, "t": 2.0}))
        assert run_cli("gap-profile", "--pair", str(pair_file), "--threads", "2") == 1

    def test_unwritable_out_exit_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run_cli("phi-iterate", "--t0", "1.9", "--out", str(out)) == 1
        assert "cannot write" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_artifact_exit_three(self, tmp_path, monkeypatch, capsys, fmt):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.0, "t": 2.0}))
        # a finite header with a NaN row, so both formats must look past meta;
        # at level 4,500 of 5,000 the NaN lies past the first batch of rows
        for nan_level in (2, 4500):
            levels = tuple((n, math.nan if n == nan_level else 0.5) for n in range(1, 5001))
            profile = GapProfile(levels=levels, min_gap=0.5, argmin_level=1)
            monkeypatch.setattr(su2gap.spectral, "gap_profile", lambda pair, n_max: profile)
            out = tmp_path / f"profile{nan_level}.{fmt}"
            argv = ["gap-profile", "--pair", str(pair_file), "--format", fmt]
            assert run_cli(*argv, "--out", str(out)) == 3
            assert "non-finite value: nan" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_pair_spec_exit_three(self, tmp_path, monkeypatch, capsys, fmt):
        # -inf in the "b" list of pair 1,400 of 1,500, past the first batch,
        # put into the sampled array after the unit check
        artifact = su2gap.cli._pairs_artifact

        def with_inf(meta, a, b):
            b[1400, 1] = -math.inf
            return artifact(meta, a, b)

        monkeypatch.setattr(su2gap.cli, "_pairs_artifact", with_inf)
        for argv in (["sample"], ["fiber-sample", "--t", "0.5"]):
            out = tmp_path / f"{argv[0]}.{fmt}"
            argv += ["--count", "1500", "--format", fmt, "--out", str(out)]
            assert run_cli(*argv) == 3
            assert "non-finite value: -inf" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_value_leaves_existing_out_unchanged(self, tmp_path, monkeypatch, capsys, fmt):
        # the artifact is written as it is rendered, so a value past the first
        # batch must be refused before the first part reaches the file
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.3, "t": 0.7}))
        wordmap_orbit = su2gap.gap_dynamics.wordmap_orbit

        def with_nan(*args):
            orbit = wordmap_orbit(*args)
            orbit.t[2100] = math.nan
            return orbit

        monkeypatch.setattr(su2gap.gap_dynamics, "wordmap_orbit", with_nan)
        out = tmp_path / f"orbit.{fmt}"
        out.write_bytes(b"an earlier artifact\n")
        argv = ["orbit", "--pair", str(pair_file), "--depth", "12", "--max-points", "2500"]
        assert run_cli(*argv, "--format", fmt, "--out", str(out)) == 3
        assert "non-finite value: nan" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier artifact\n"

    def test_memory_error_exit_one_in_one_line(self, tmp_path, monkeypatch, capsys):
        # no real allocation: the handler raises as numpy does for an array too
        # large for memory
        def too_large(args):
            raise MemoryError("Unable to allocate 3.73 TiB for an array")

        monkeypatch.setattr(su2gap.cli, "_cmd_orbit", too_large)
        monkeypatch.setattr(su2gap.cli, "_parser", build_parser)  # binds the patched handler
        out = tmp_path / "orbit.csv"
        out.write_bytes(b"an earlier artifact\n")
        argv = ["orbit", "--pair", "p.json", "--max-points", "500000000", "--out", str(out)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"su2gap: error: not enough memory for {' '.join(argv)}\n"
        assert out.read_bytes() == b"an earlier artifact\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--count", "200000000"],
            ["fiber-sample", "--t", "0.5", "--count", "200000000"],
            ["density", "--samples", "2000000000", "--bins", "40000"],
        ],
        ids=["sample", "fiber-sample", "density"],
    )
    def test_real_memory_error_exit_one(self, tmp_path, argv):
        # a child process caps its own address space at 2 GiB, so each
        # command's first large array (4.8 GB or more) fails to allocate as it
        # would on a machine without the memory; this process keeps its limits
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        out = tmp_path / "out"
        argv = [*argv, "--out", str(out)]
        package_root = os.path.dirname(os.path.dirname(su2gap.cli.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=package_root)
        done = subprocess.run(
            [sys.executable, "-m", "su2gap.cli", *argv],
            env=env,
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"su2gap: error: not enough memory for {' '.join(argv)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1.0 + 1e-8, math.nan], ids=["off-unit", "nan"])
    def test_sampled_pair_off_unit_exit_one(self, tmp_path, monkeypatch, capsys, scale):
        # one sampled row is scaled as it leaves the product; the unit check
        # SU2Element made on every sampled element still refuses it
        def scaled(product, row):
            def patched(*args):
                q = product(*args)
                if isinstance(q, tuple):  # quaternion_product's (w, x, y, z)
                    return tuple(np.where(np.arange(len(c)) == row, c * scale, c) for c in q)
                q[row] *= scale
                return q

            return patched

        monkeypatch.setattr(su2gap.cli, "haar_quaternions", scaled(su2gap.cli.haar_quaternions, 1401))
        monkeypatch.setattr(
            su2gap.measure_lab, "quaternion_product", scaled(su2gap.measure_lab.quaternion_product, 700)
        )
        for argv in (["sample"], ["fiber-sample", "--t", "0.5"]):
            out = tmp_path / f"{argv[0]}.json"
            assert run_cli(*argv, "--count", "1500", "--out", str(out)) == 1
            assert "su2gap: error: not special unitary" in capsys.readouterr().err
            assert not out.exists()

    def test_unreadable_pair_file(self, tmp_path):
        assert run_cli("traces", "--pair", str(tmp_path / "missing.json")) == 1

    def test_pair_file_not_utf8(self, tmp_path, capsys):
        pair_file = tmp_path / "pair.json"
        pair_file.write_bytes(b'\xff\xfe{"type": "fricke"}')
        assert run_cli("traces", "--pair", str(pair_file)) == 1
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record, message",
        [
            pytest.param({"pairs": 5}, "that is not a list", id="int"),
            pytest.param({"pairs": {"x": 1}}, "that is not a list", id="dict"),
            pytest.param({"pairs": []}, "holds 0 pairs", id="empty"),
            pytest.param({"pairs": [1]}, "does not contain a pair-spec record", id="not-a-record"),
        ],
    )
    def test_malformed_pair_file_exit_one(self, tmp_path, capsys, record, message):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps(record))
        assert run_cli("traces", "--pair", str(pair_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"su2gap: error: pair file {str(pair_file)!r}")
        assert message in err

    @pytest.mark.parametrize(
        "record, reason",
        [
            pytest.param({"type": "fricke", "x": 0}, "fricke pair-spec has no key 't'", id="missing-key"),
            pytest.param(
                {"type": "matrix", "a": None, "b": [1, 0, 0, 0]},
                "matrix pair-spec 'a' has a value of the wrong type: None",
                id="null-element",
            ),
            pytest.param(
                {"type": "matrix", "a": [1, 0, 0], "b": [1, 0, 0, 0]},
                "matrix pair-spec entries need 4 components",
                id="three-components",
            ),
            pytest.param(
                {"type": "matrix", "a": [1, 0, 0, 0], "b": [1, "abc", 0, 0]},
                "matrix pair-spec 'b' has a value of the wrong type: [1, 'abc', 0, 0]",
                id="non-numeric-component",
            ),
            # strings and booleans are not numbers, though float() accepts them
            pytest.param(
                {"type": "matrix", "a": "1000", "b": [1, 0, 0, 0]},
                "matrix pair-spec 'a' has a value of the wrong type: '1000'",
                id="digit-string-element",
            ),
            pytest.param(
                {"type": "matrix", "a": [1, 0, 0, 0], "b": [True, 0, 0, 0]},
                "matrix pair-spec 'b' has a value of the wrong type: [True, 0, 0, 0]",
                id="boolean-component",
            ),
            pytest.param(
                {"type": "fricke", "x": " 0.7 ", "t": 0.5},
                "fricke pair-spec 'x' has a value of the wrong type: ' 0.7 '",
                id="padded-string-coordinate",
            ),
            pytest.param({"type": "quaternion"}, "unknown pair-spec type 'quaternion'", id="unknown-type"),
            pytest.param(
                {"pairs": [{"type": "traces", "x": 0, "y": 0}]}, "traces pair-spec has no key 'z'", id="in-artifact"
            ),
        ],
    )
    @pytest.mark.parametrize("command", [["traces"], ["orbit", "--depth", "2"]], ids=["traces", "orbit"])
    def test_malformed_pair_spec_names_the_file(self, tmp_path, capsys, record, reason, command):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps(record))
        out = tmp_path / "out"
        assert run_cli(command[0], "--pair", str(pair_file), *command[1:], "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"su2gap: error: invalid pair-spec in {str(pair_file)!r}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "record",
        [{"type": "fricke", "x": 2.0, "t": 0.0}, {"type": "traces", "x": 1.9, "y": 1.9, "z": -1.9}],
        ids=["fricke", "traces"],
    )
    def test_pair_spec_outside_the_domain_exit_two(self, tmp_path, capsys, record):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps(record))
        out = tmp_path / "out"
        assert run_cli("traces", "--pair", str(pair_file), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("su2gap: domain error: ") and "invalid pair-spec" not in err
        assert not out.exists()

    def test_invalid_word(self, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.0, "t": 2.0}))
        assert (
            run_cli("defect", "--pair", str(pair_file), "--word", "xyz") == 1
        )


def readme_commands() -> list[list[str]]:
    """The argument lists of the su2gap lines in README.md's code blocks."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.partition("  #")[0].split() for line in readme.read_text().splitlines()]
    return [words[1:] for words in lines if words[:1] == ["su2gap"]]


class TestReadmeCommands:
    """Every su2gap command line that README.md shows runs and exits 0."""

    def test_the_block_is_found(self):
        commands = readme_commands()
        assert len(commands) >= 12
        assert {argv[0] for argv in commands} == set(parser_commands())

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_command_runs(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(["construct", "--fricke", "0.3", "0.7", "--out", "pair.json"]) == 0
        assert main(argv) == 0, capsys.readouterr().err
        assert capsys.readouterr().out


def parser_commands() -> list[str]:
    """Every subcommand name that build_parser registers."""
    (action,) = [a for a in build_parser()._actions if a.dest == "command"]
    return sorted(action.choices)


def table(key):
    """CSV rows from a JSON list of records, in the CSV column order."""
    return lambda record, columns: [[r[c] for c in columns] for r in record[key]]


def pair_table(record, columns):
    return [[i, *p["a"], *p["b"]] for i, p in enumerate(record["pairs"])]


class TestFormatsAgree:
    """The CSV and the JSON artifact of one invocation carry the same values."""

    # argv after the command name ("{pair}" stands for a pair file), and the
    # CSV rows recovered from the JSON document
    CASES = {
        "sample": (["--count", "3", "--seed", "5"], pair_table),
        "traces": (["--pair", "{pair}"], lambda r, cols: [[r[c] for c in cols]]),
        "construct": (["--fricke", "0.3", "0.7"], lambda r, cols: [r["a"] + r["b"]]),
        "phi-iterate": (["--t0", "1.9"], lambda r, cols: list(enumerate(r["orbit"]))),
        "fiber-image": (
            ["--t", "0.5", "--grid-points", "51"],
            lambda r, cols: [["analytic", *r["analytic"]], ["numeric", *r["numeric"]]],
        ),
        "orbit": (["--pair", "{pair}", "--depth", "3"], table("orbit")),
        "gap-profile": (["--pair", "{pair}", "--nmax", "6"], table("levels")),
        "defect": (
            ["--pair", "{pair}", "--word", "abAB", "--level", "4", "--trials", "5"],
            table("trials_data"),
        ),
        "density": (
            ["--samples", "500", "--bins", "4", "--seed", "5"],
            lambda r, cols: [
                [i, j, c]
                for i, line in enumerate(r["counts"])
                for j, c in enumerate(line)
            ],
        ),
        "fiber-sample": (["--t", "0.5", "--count", "3", "--seed", "5"], pair_table),
        "fiber-transport": (
            ["--t", "0.5", "--count", "50", "--seed", "5", "--bins", "4"],
            lambda r, cols: list(enumerate(r["counts"])),
        ),
    }

    @staticmethod
    def same(cell: str, value) -> bool:
        return cell == value if isinstance(value, str) else float(cell) == value

    @pytest.mark.parametrize("command", parser_commands())
    def test_csv_and_json_carry_the_same_values(self, tmp_path, command):
        assert command in self.CASES, f"no format-agreement case for {command!r}"
        args, json_rows = self.CASES[command]
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.3, "t": 0.7}))
        argv = [command] + [str(pair_file) if a == "{pair}" else a for a in args]
        code_csv, csv_out = run_to_file(tmp_path, "a.csv", *argv, "--format", "csv")
        code_json, json_out = run_to_file(tmp_path, "a.json", *argv, "--format", "json")
        assert code_csv == code_json == 0
        record = json.loads(json_out.read_text())
        lines = csv_out.read_text().splitlines()
        header = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        columns, *rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert header.pop("schema") == str(record["schema"])
        assert header.pop("command") == record["command"] == command
        for key, cell in header.items():
            assert self.same(cell, record[key]), key
        expected = json_rows(record, columns)
        assert len(rows) == len(expected)
        for row, values in zip(rows, expected):
            assert len(row) == len(values) == len(columns)
            assert all(self.same(c, v) for c, v in zip(row, values)), (row, values)


class TestStreamedOutput:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_and_stdout_carry_the_same_bytes(self, tmp_path, capsys, fmt):
        # 2,500 rows, so both the file and stdout take several batches
        _, pair_file = run_to_file(tmp_path, "pair.json", "sample", "--seed", "3")
        argv = ["orbit", "--pair", str(pair_file), "--depth", "12", "--max-points", "2500", "--format", fmt]
        capsys.readouterr()
        assert run_cli(*argv) == 0
        printed = capsys.readouterr().out
        code, out = run_to_file(tmp_path, f"orbit.{fmt}", *argv)
        assert code == 0
        assert out.read_text() == printed
        # CSV: five header lines and the column line before the rows
        points = json.loads(printed)["points"] if fmt == "json" else printed.count("\n") - 6
        assert points == 2500

    def test_sample_renders_its_draw_without_a_copy(self, tmp_path):
        # the 1.22 MiB draw, one row block of it as it is normalized, and the
        # renderer's batch; a (count, 8) copy of the draw beside it took 2.60 MiB.
        # A first call keeps one-time allocations out of the peak.
        argv = ["sample", "--count", "20000", "--format", "json", "--out", str(tmp_path / "pairs.json")]
        assert run_cli(*argv) == 0
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.45 * 2**20


class TestParserReuse:
    # defaults differ by command (sample writes JSON, phi-iterate CSV), and a
    # usage error sits between runs, so a value left over from one call
    # would change a later artifact
    ARGVS = [
        ["sample", "--count", "2", "--seed", "4", "--format", "csv"],
        ["sample", "--count", "2"],
        ["phi-iterate", "--t0", "1.9", "--format", "json"],
        ["phi-iterate", "--t0", "1.7"],
        ["phi-iterate"],
        ["construct", "--fricke", "0.3", "0.7"],
        ["fiber-image", "--t", "0.5", "--grid-points", "11", "--format", "json"],
        ["fiber-image", "--t", "-0.5", "--grid-points", "7"],
        ["construct", "--triple", "0.5", "-0.25", "1.0", "--format", "csv"],
        ["sample"],
    ]

    def test_reused_parser_matches_fresh_parser(self, capsys, monkeypatch):
        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        assert su2gap.cli._parser() is su2gap.cli._parser()
        reused = [run(argv) for argv in self.ARGVS]
        monkeypatch.setattr(su2gap.cli, "_parser", build_parser)
        fresh = [run(argv) for argv in self.ARGVS]
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]
        assert reused == fresh


# Renderer properties.  Keys and strings mix "%" (the writer's templates are
# %-formatted), escapes, non-ASCII and control characters.
TEXT = st.text(
    st.sampled_from('%"\\\n\x00\x7f\u00e9\u2603\U0001d11e') | st.characters(), max_size=6
)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e-310])
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | TEXT
NEAR_MISSES = ("order", "length", "nested", "bool", "int", "empty list", "empty dict")


@st.composite
def record_lists(draw):
    """Dicts with one key order and scalar or same-width float-list columns,
    sometimes with one record changed so that the records differ in shape."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    kind = st.sampled_from(["float", "int", "str", "list"])
    kinds = draw(st.lists(kind, min_size=len(keys), max_size=len(keys)))
    width = draw(st.integers(1, 3))
    strategy = {
        "float": FLOATS,
        "int": st.integers(),
        "str": TEXT,
        "list": st.lists(FLOATS, min_size=width, max_size=width),
    }
    fixed = st.fixed_dictionaries({key: strategy[kind] for key, kind in zip(keys, kinds)})
    records = draw(st.lists(fixed, min_size=1, max_size=6))
    miss = draw(st.sampled_from((None,) + NEAR_MISSES))
    i, key = draw(st.integers(0, len(records) - 1)), draw(st.sampled_from(keys))
    if miss == "order":
        records[i] = dict(reversed(records[i].items()))
    elif miss == "empty dict":
        records[i] = {}
    elif miss is not None:
        records[i][key] = {
            "length": [0.5] * (width + 1),
            "nested": {"x": [1.5]},
            "bool": True,
            "int": 7,
            "empty list": [],
        }[miss]
    return records


@st.composite
def declared_records(draw):
    """A _Records layout of scalar keys and (key, width) float lists, and
    rows for it, sometimes with a bool, an int or None in one row entry or
    None in all of one row's entries."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    kind = st.sampled_from(["float", "int", "str", "list"])
    kinds = draw(st.lists(kind, min_size=len(keys), max_size=len(keys)))
    width = draw(st.integers(1, 3))
    columns = tuple((key, width) if kind == "list" else key for key, kind in zip(keys, kinds))
    entry = {"float": FLOATS, "int": st.integers(), "str": TEXT, "list": FLOATS}
    slots = [entry[kind] for kind in kinds for _ in range(width if kind == "list" else 1)]
    rows = draw(st.lists(st.tuples(*slots).map(list), min_size=1, max_size=6))
    miss = draw(st.sampled_from([None, "bool", "int", "none", "none row"]))
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(slots) - 1))
    if miss == "none row":
        rows[i] = [None] * len(slots)
    elif miss is not None:
        rows[i][j] = {"bool": True, "int": 7, "none": None}[miss]
    return columns, rows


def record_dict(columns: tuple, row: list) -> dict:
    """The record a row stands for under a _Records layout."""
    record, entries = {}, iter(row)
    for column in columns:
        key, width = (column, 0) if isinstance(column, str) else column
        record[key] = [next(entries) for _ in range(width)] if width else next(entries)
    return record


# lists of one scalar type, the shape of most values outside the record lists
COLUMNS = st.one_of(
    [st.lists(kind, min_size=1) for kind in (st.none(), st.booleans(), st.integers(), FLOATS, TEXT)]
)
DOCUMENTS = st.recursive(
    SCALARS | COLUMNS | record_lists(),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=20,
)


def csv_cell(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


CSV_COLUMNS = {
    "float": FLOATS,
    "int": st.integers() | st.booleans(),
    "str": TEXT,
    "mixed": st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(), TEXT, st.none()),
}


@st.composite
def csv_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_COLUMNS)), min_size=1, max_size=5))
    row = st.tuples(*(CSV_COLUMNS[kind] for kind in kinds))
    return draw(st.lists(row, max_size=8))


# float64 array entries: the edge cases of repr and %.17g, and the non-finite
# values the renderer must refuse
ARRAY_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e-310, 1e16, 1e-5, math.inf, -math.inf, math.nan]
)
ARRAY_INTS = st.integers(-(2**63), 2**63 - 1)


@st.composite
def array_tables(draw):
    """Equal-length float64 and int64 array columns."""
    count = draw(st.integers(0, 7))
    kinds = draw(st.lists(st.sampled_from([ARRAY_FLOATS, ARRAY_INTS]), min_size=1, max_size=4))
    dtypes = {ARRAY_FLOATS: np.float64, ARRAY_INTS: np.int64}
    return [np.array(draw(st.lists(kind, min_size=count, max_size=count)), dtypes[kind]) for kind in kinds]


def rendered(fmt: str, table: list, records: bool):
    """_render's text for a table, or the message of the error it raises."""
    columns = [f"c{i}" for i in range(len(table))]
    extra = (lambda: {"rows": su2gap.cli._Records(tuple(columns), table)}) if records else dict
    try:
        return "".join(su2gap.cli._render("cmd", fmt, {"seed": 3}, columns, table, extra))
    except ConvergenceError as exc:
        return f"error: {exc}"


class TestRenderer:
    """_render against the json module and the per-cell CSV writer; a batch
    size of a few rows puts batch joins inside small record lists and tables."""

    @settings(max_examples=200, deadline=None)
    @given(
        meta=st.dictionaries(TEXT, SCALARS, max_size=3),
        data=st.dictionaries(TEXT, DOCUMENTS, max_size=4),
        batch=st.sampled_from([1, 2, 3, 1024]),
    )
    def test_json_equals_json_dumps(self, meta, data, batch):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(su2gap.cli, "_BATCH", batch)
            text = "".join(su2gap.cli._render("cmd", "json", meta, (), [], lambda: data))
        doc = {"schema": su2gap.cli.SCHEMA_VERSION, "command": "cmd"} | meta | data
        assert text == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(rows=csv_tables(), batch=st.sampled_from([1, 2, 3, 1024]))
    def test_csv_rows_equal_per_cell_reference(self, rows, batch):
        columns = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
        table = [list(column) for column in zip(*rows)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(su2gap.cli, "_BATCH", batch)
            text = "".join(su2gap.cli._render("cmd", "csv", {"seed": 3}, columns, table, dict))
        lines = ["# schema=1", "# command=cmd", "# seed=3", ",".join(columns)]
        lines += [",".join(csv_cell(v) for v in row) for row in rows]
        assert text == "\n".join(lines) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(table=array_tables(), batch=st.sampled_from([1, 2, 3, 1024]))
    def test_array_columns_render_as_their_lists(self, table, batch):
        # an array column is written exactly as its .tolist(), and a
        # non-finite entry is refused with the same message
        lists = [column.tolist() for column in table]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(su2gap.cli, "_BATCH", batch)
            for fmt, records in [("csv", False), ("json", True)]:
                assert rendered(fmt, table, records) == rendered(fmt, lists, records)

    def test_records_past_the_first_batch(self):
        # 2,500 orbit-shaped records with a near miss in the second batch
        records = [{"path": "S" * (i % 5), "x": i / 7, "t": -i / 3} for i in range(2500)]
        records[1500] = {"path": "X", "x": 1, "t": 0.5}
        text = "".join(su2gap.cli._render("cmd", "json", {}, (), [], lambda: {"orbit": records}))
        expected = {"schema": 1, "command": "cmd", "orbit": records}
        assert text == json.dumps(expected, indent=2, allow_nan=False) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(layout=declared_records(), batch=st.sampled_from([1, 2, 3, 1024]))
    def test_records_equal_their_dicts(self, layout, batch):
        # the rows of a _Records are written as the dicts of its layout
        columns, rows = layout
        records = su2gap.cli._Records(columns, [list(column) for column in zip(*rows)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(su2gap.cli, "_BATCH", batch)
            text = "".join(su2gap.cli._render("cmd", "json", {}, (), [], lambda: {"rows": records}))
        expected = {"schema": 1, "command": "cmd", "rows": [record_dict(columns, row) for row in rows]}
        assert text == json.dumps(expected, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_record_raises(self, bad):
        rows = [[n, n + 1, 0.5 if n != 1500 else bad] for n in range(2000)]
        columns = ("n", "dim", "gap")
        records = su2gap.cli._Records(columns, [list(column) for column in zip(*rows)])
        with pytest.raises(ConvergenceError, match="non-finite"):
            "".join(su2gap.cli._render("cmd", "json", {}, (), [], lambda: {"levels": records}))
        with pytest.raises(ValueError):
            json.dumps([dict(zip(columns, row)) for row in rows], allow_nan=False)

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["orbit", "--depth", "5"], "orbit"),
            (["gap-profile", "--nmax", "40"], "levels"),
            (["defect", "--word", "abAB", "--level", "4", "--trials", "60"], "trials_data"),
        ],
    )
    def test_record_commands_equal_json_dumps_of_dicts(self, tmp_path, monkeypatch, argv, key):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.3, "t": 0.7}))
        argv = [argv[0], "--pair", str(pair_file), *argv[1:], "--format", "json"]
        args = build_parser().parse_args(argv)
        meta, columns, table, _ = args.handler(args)
        rows = list(zip(*table))
        assert len(rows) > 20
        doc = {"schema": 1, "command": argv[0]} | meta | {key: [dict(zip(columns, row)) for row in rows]}
        monkeypatch.setattr(su2gap.cli, "_BATCH", 7)  # batch joins inside the records
        code, out = run_to_file(tmp_path, "artifact.json", *argv)
        assert code == 0
        assert out.read_text() == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    def test_pair_specs_equal_json_dumps_of_dicts(self, tmp_path, monkeypatch):
        # the pair specs are the only production records with list fields
        rng = np.random.default_rng(5)
        sampled = [su2gap.su2_core.haar_pair(rng) for _ in range(1500)]
        fiber = su2gap.measure_lab.sample_fiber(0.5, 300, 6)
        monkeypatch.setattr(su2gap.cli, "_BATCH", 7)  # batch joins inside the records
        for argv, meta, pairs in [
            (["sample", "--count", "1500", "--seed", "5"], {"seed": 5, "count": 1500}, sampled),
            (
                ["fiber-sample", "--t", "0.5", "--count", "300", "--seed", "6"],
                {"t": 0.5, "count": 300, "seed": 6},
                fiber,
            ),
        ]:
            if isinstance(pairs, np.ndarray):  # fiber-sample: rows of (w, x, y, z) of a, then of b
                specs = [{"type": "matrix", "a": row[:4], "b": row[4:]} for row in pairs.tolist()]
            else:
                specs = [su2gap.pair_to_spec(p) for p in pairs]
            doc = {"schema": 1, "command": argv[0]} | meta | {"pairs": specs}
            code, out = run_to_file(tmp_path, "pairs.json", *argv, "--format", "json")
            assert code == 0
            assert out.read_text() == json.dumps(doc, indent=2, allow_nan=False) + "\n"
