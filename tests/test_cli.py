"""End-to-end command-line behaviour: artifacts, round trips, exit codes."""

import json

import numpy as np
import pytest

import su2gap.cli
import su2gap.spectral
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
            su2gap.spectral, "_eigenvalues", lambda matrix, n: np.full(len(matrix), 1.5)
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

    def test_unwritable_out_exit_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run_cli("phi-iterate", "--t0", "1.9", "--out", str(out)) == 1
        assert "cannot write" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_artifact_exit_three(self, tmp_path, monkeypatch, fmt):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.0, "t": 2.0}))
        # a finite header with a NaN row, so both formats must look past meta
        levels = ((1, 0.5), (2, float("nan")))
        profile = GapProfile(levels=levels, min_gap=0.5, argmin_level=1)
        monkeypatch.setattr(su2gap.spectral, "gap_profile", lambda pair, n_max: profile)
        out = tmp_path / f"profile.{fmt}"
        argv = ["gap-profile", "--pair", str(pair_file), "--format", fmt]
        assert run_cli(*argv, "--out", str(out)) == 3
        assert not out.exists()

    def test_unreadable_pair_file(self, tmp_path):
        assert run_cli("traces", "--pair", str(tmp_path / "missing.json")) == 1

    def test_invalid_word(self, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"type": "fricke", "x": 0.0, "t": 2.0}))
        assert (
            run_cli("defect", "--pair", str(pair_file), "--word", "xyz") == 1
        )


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
