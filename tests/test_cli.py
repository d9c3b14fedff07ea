"""CLI surface: schemas, formats, exit codes, byte-level determinism."""

import contextlib
import csv
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmskew import errors, montecarlo
from pmskew.cli import build_parser, main
from pmskew.montecarlo import _chunk_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments, data_lines = [], []
    for line in text.splitlines():
        (comments if line.startswith("#") else data_lines).append(line)
    records = list(csv.reader(data_lines))
    header, rows = records[0], [dict(zip(records[0], r)) for r in records[1:]]
    return comments, header, rows


def _input_arg(data: bytes, source, tmp_path, monkeypatch):
    """The `pmskew test` input argument that reads `data` from `source`:
    a file, or a stdin that decodes strictly as UTF-8."""
    if source == "stdin":
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        return "-"
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    return str(path)


@pytest.fixture
def normal_file(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=np.array([42, 0], np.uint64)))
    path = tmp_path / "normal200.txt"
    path.write_text("".join(f"{v}\n" for v in rng.standard_normal(200)))
    return str(path)


class TestTestCommand:
    def test_four_rows_and_schema(self, capsys, normal_file):
        code, out, err = run(capsys, "test", normal_file)
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert comments == ["# n=200"]
        assert header == [
            "test",
            "defined",
            "raw_statistic",
            "z_value",
            "p_value",
            "reject_0.01",
            "reject_0.05",
            "reject_0.1",
            "reject_0.2",
        ]
        assert [r["test"] for r in rows] == [
            "spms",
            "sqrt_b1",
            "shapiro_wilk",
            "lin_mudholkar",
        ]
        for r in rows:
            assert r["defined"] == "true"
            p = float(r["p_value"])
            assert 0.0 <= p <= 1.0
            assert r["reject_0.2"] == ("true" if p < 0.2 else "false")

    def test_rejects_blatant_skew(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "exp.txt"
        path.write_text("".join(f"{v}\n" for v in rng.exponential(size=300)))
        code, out, _ = run(capsys, "test", str(path))
        assert code == 0
        _, _, rows = parse_csv(out)
        assert all(r["reject_0.01"] == "true" for r in rows)

    def test_csv_column_selection(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "two_col.csv"
        path.write_text(
            "".join(f"{i},{v}\n" for i, v in enumerate(rng.normal(size=60)))
        )
        code, out, _ = run(capsys, "test", str(path), "--col", "2")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 4

    def test_blank_lines_ignored(self, capsys, tmp_path):
        path = tmp_path / "gaps.txt"
        values = np.linspace(-2, 2, 20) ** 3
        path.write_text("\n\n".join(str(v) for v in values) + "\n")
        code, out, _ = run(capsys, "test", str(path))
        assert code == 0
        assert "# n=20" in out

    def test_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\nabc\n4.0\n")
        code, out, err = run(capsys, "test", str(path))
        assert code == 1
        assert "line 3" in err and "abc" in err
        assert out == ""

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_input_is_parse_error(
        self, capsys, tmp_path, monkeypatch, source
    ):
        # the undecodable byte fails as its line's number, even where
        # stdin itself decodes strictly
        arg = _input_arg(b"1\n2\n\xff\n", source, tmp_path, monkeypatch)
        code, out, err = run(capsys, "test", arg)
        assert code == 1
        assert out == ""
        assert err == "pmskew: error: line 3: not a number: '\\udcff'\n"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_byte_order_mark_is_dropped(
        self, capsys, tmp_path, monkeypatch, normal_file, source
    ):
        data = Path(normal_file).read_bytes()
        code, plain, _ = run(capsys, "test", normal_file)
        assert code == 0
        arg = _input_arg(b"\xef\xbb\xbf" + data, source, tmp_path, monkeypatch)
        code, out, _ = run(capsys, "test", arg)
        assert code == 0
        assert out == plain

    def test_missing_column_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "one_col.csv"
        path.write_text("1.0\n2.0\n")
        code, _, err = run(capsys, "test", str(path), "--col", "3")
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize("col", ["0", "-1"])
    @pytest.mark.parametrize(
        "text", ["1.0,2.0\n3.0,4.0\n", "\n\n"], ids=["csv", "blank_lines"]
    )
    def test_column_below_1_is_config_error(self, capsys, tmp_path, col, text):
        path = tmp_path / "two_col.csv"
        path.write_text(text)
        code, out, err = run(capsys, "test", str(path), "--col=" + col)
        assert code == 2
        assert out == ""
        assert err == f"pmskew: error: --col must be >= 1, got {col}\n"

    def test_column_checked_before_input_is_read(self, capsys):
        code, _, err = run(capsys, "test", "/no/such/file.txt", "--col", "0")
        assert code == 2
        assert "--col" in err

    def test_too_small_sample(self, capsys, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("1\n2\n3\n")
        code, out, err = run(capsys, "test", str(path))
        assert code == 1
        assert "n >= 8" in err

    def test_stdin(self, capsys, monkeypatch, normal_file, tmp_path):
        data = Path(normal_file).read_bytes()
        code, out, _ = run(
            capsys, "test", _input_arg(data, "stdin", tmp_path, monkeypatch)
        )
        assert code == 0
        assert "# n=200" in out

    @pytest.fixture
    def huge_file(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "huge.txt"
        values = 1e200 * (1.0 + 1e-3 * rng.standard_normal(10))
        path.write_text("".join(f"{float(v)!r}\n" for v in values))
        return str(path)

    def test_overflowing_statistics_are_undefined(self, capsys, huge_file):
        code, out, _ = run(capsys, "test", huge_file)
        assert code == 1
        _, header, rows = parse_csv(out)
        assert len(rows) == 4
        for r in rows:
            assert r["defined"] == "false", r["test"]
            assert r["raw_statistic"] == r["z_value"] == r["p_value"] == ""
            assert all(r[h] == "false" for h in header if h.startswith("reject_"))

    def test_overflow_writes_no_numpy_warnings(self, capsys, huge_file):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "test", huge_file)
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert err == "test: n=10, 4 tests\n"

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "test", "/no/such/file.txt")
        assert code == 3


class TestCalibrateCommand:
    def test_schema_and_values(self, capsys):
        code, out, err = run(
            capsys,
            "calibrate",
            "--n",
            "50,100",
            "--reps",
            "800",
            "--levels",
            "0.05,0.2",
            "--seed",
            "1",
        )
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert comments == ["# seed=1"]
        assert header == ["n", "reps", "level", "rejection_rate", "undefined"]
        assert len(rows) == 4
        assert [r["n"] for r in rows] == ["50", "50", "100", "100"]
        assert [r["level"] for r in rows] == ["0.05", "0.2", "0.05", "0.2"]
        for r in rows:
            assert 0.0 <= float(r["rejection_rate"]) <= 1.0
            assert r["reps"] == "800"
        assert "seed=1" in err

    def test_csv_round_trip_at_6_significant_digits(self, capsys):
        code, out, _ = run(
            capsys, "calibrate", "--n", "30", "--reps", "700", "--seed", "2"
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        for r in rows:
            v = float(r["rejection_rate"])
            assert format(v, ".6g") == r["rejection_rate"]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "calibrate",
            "--n",
            "30",
            "--reps",
            "500",
            "--seed",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "calibrate"
        assert doc["seed"] == 3
        assert len(doc["rows"]) == 4
        assert {r["level"] for r in doc["rows"]} == {0.01, 0.05, 0.10, 0.20}

    def test_empty_levels_is_config_error(self, capsys):
        code, out, err = run(
            capsys, "calibrate", "--n", "20", "--reps", "100", "--levels", ","
        )
        assert code == 2
        assert out == ""
        assert "levels" in err

    @pytest.mark.parametrize("sizes", [",", "", " , "])
    def test_empty_n_is_config_error(self, capsys, sizes):
        code, out, err = run(capsys, "calibrate", "--n", sizes, "--reps", "100")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--n" in err

    def test_rows_follow_the_given_sizes(self, capsys):
        argv = ["calibrate", "--reps", "700", "--levels", "0.05,0.2", "--seed", "4",
                "--n"]
        code, out, _ = run(capsys, *argv, "100,20,20")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["100"] * 2 + ["20"] * 4
        montecarlo._null_runs.cache_clear()  # each n alone, drawn at its n
        alone = {n: parse_csv(run(capsys, *argv, n)[1])[2] for n in ("100", "20")}
        assert rows == alone["100"] + alone["20"] + alone["20"]

    def test_readme_table_matches_output(self, capsys):
        # README gives a table of null rejection rates and the command that
        # prints it; the two must not drift apart
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        command = re.search(r"`pmskew (calibrate --n 8,20,50,100 [^`]*)`", readme)
        table = readme[command.end():].split("\n\n", 2)[1].splitlines()
        header = [cell.strip() for cell in table[0].strip("|").split("|")]
        assert header == ["n", "level 0.01", "level 0.05"]
        want = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table[2:]]
        code, out, _ = run(capsys, *command.group(1).split())
        assert code == 0
        _, _, rows = parse_csv(out)
        got = [[n] + [r["rejection_rate"] for r in rows if r["n"] == n]
               for n in dict.fromkeys(r["n"] for r in rows)]
        assert got == want


class TestPowerCommand:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_n_is_config_error(self, capsys, fmt):
        code, out, err = run(
            capsys, "power", "--n", ",", "--alt", "gamma:2", "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--n" in err

    def test_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "power",
            "--alt",
            "beta:2,1",
            "--n",
            "20,40",
            "--reps",
            "400",
            "--seed",
            "1",
            "--null-reps",
            "800",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["alt", "n", "reps", "level", "test", "power", "undefined"]
        assert len(rows) == 8
        assert {r["alt"] for r in rows} == {"beta:2,1"}
        assert [r["test"] for r in rows[:4]] == [
            "spms",
            "sqrt_b1",
            "shapiro_wilk",
            "lin_mudholkar",
        ]

    def test_tests_subset_and_asymptotic(self, capsys):
        code, out, _ = run(
            capsys,
            "power",
            "--alt",
            "gamma:3",
            "--n",
            "30",
            "--reps",
            "300",
            "--tests",
            "spms,lin_mudholkar",
            "--critical-values",
            "asymptotic",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r["test"] for r in rows] == ["spms", "lin_mudholkar"]

    def test_bad_alternative_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "power", "--alt", "beta:0,-1", "--n", "40", "--reps", "10"
        )
        assert code == 2
        assert "positive" in err

    def test_bad_test_name_is_config_error(self, capsys):
        code, _, err = run(
            capsys,
            "power",
            "--alt",
            "gamma:2",
            "--n",
            "40",
            "--reps",
            "10",
            "--tests",
            "anderson",
        )
        assert code == 2

    @pytest.mark.parametrize("null_reps", ["0", "-3"])
    def test_nonpositive_null_reps_is_config_error(self, capsys, null_reps):
        code, out, err = run(
            capsys, "power", "--alt", "gamma:2", "--n", "20", "--reps", "10",
            f"--null-reps={null_reps}",
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "null_reps" in err

    def test_warm_cache_output_matches_cold(self, capsys):
        argv = ["power", "--n", "20,30", "--reps", "300", "--null-reps",
                "900", "--seed", "8"]
        montecarlo._null_runs.cache_clear()
        code, cold, _ = run(capsys, *argv, "--alt", "gamma:2")
        assert code == 0
        code, _, _ = run(capsys, *argv, "--alt", "beta:3,2", "--threads", "2")
        assert code == 0
        assert montecarlo._null_runs.cache_info().currsize == 2
        code, warm, _ = run(capsys, *argv, "--alt", "gamma:2")
        assert code == 0
        runs = montecarlo._null_runs(
            900, 8, montecarlo.ALL_TESTS, 1, montecarlo.CALIBRATION_STREAM_BASE
        )
        assert sorted(runs) == [20, 30]
        assert warm == cold

    def test_rows_follow_the_given_sizes(self, capsys):
        argv = ["power", "--alt", "weibull:2", "--reps", "300", "--null-reps",
                "700", "--seed", "4", "--n"]
        code, out, _ = run(capsys, *argv, "50,20,20")
        assert code == 0
        comments, _, rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["50"] * 4 + ["20"] * 8
        montecarlo._null_runs.cache_clear()  # each n alone, drawn at its n
        alone = {n: parse_csv(run(capsys, *argv, n)[1])[2] for n in ("50", "20")}
        assert rows == alone["50"] + alone["20"] + alone["20"]

    # every row overflows and is undefined: the summary is all of stderr
    def test_undefined_rows_write_no_numpy_warnings(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                capsys, "power", "--alt", "weibull:0.001", "--n", "20", "--reps",
                "50", "--critical-values", "asymptotic",
            )
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert err.count("\n") == 1 and err.startswith("power: alt=weibull:0.001,")

    def test_every_size_checked_before_any_draw(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a chunk was drawn before every n was checked")

        monkeypatch.setattr(montecarlo, "_draw_chunk", no_draw)
        code, out, err = run(
            capsys, "power", "--alt", "gamma:2", "--n", "20,6000", "--tests",
            "shapiro_wilk", "--seed", "1",
        )
        assert code == 1
        assert out == ""
        assert err.strip().endswith("Shapiro-Wilk requires n <= 5000, got 6000")


class TestHistCommand:
    def test_conservation_and_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "hist",
            "--stat",
            "z",
            "--n",
            "50",
            "--reps",
            "2000",
            "--bins",
            "10",
            "--seed",
            "1",
        )
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["bin_left", "bin_right", "count"]
        assert len(rows) == 10
        meta = dict(c[2:].split("=", 1) for c in comments)
        assert meta == {"seed": "1", "stat": "z", "n": "50", "reps": "2000",
                        "out_of_range": meta["out_of_range"]}
        oor = int(meta["out_of_range"])
        assert sum(int(r["count"]) for r in rows) + oor == 2000
        lefts = [float(r["bin_left"]) for r in rows]
        rights = [float(r["bin_right"]) for r in rows]
        assert lefts[1:] == rights[:-1]

    def test_range_override(self, capsys):
        code, out, _ = run(
            capsys,
            "hist",
            "--n",
            "20",
            "--reps",
            "500",
            "--bins",
            "4",
            "--range=-0.5,0.5",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["bin_left"]) == -0.5
        assert float(rows[-1]["bin_right"]) == 0.5

    def test_bad_range_is_config_error(self, capsys):
        for bad in ("1,2,3", "-inf,inf", "0,inf"):
            code, out, err = run(
                capsys, "hist", "--n", "20", "--reps", "100", f"--range={bad}"
            )
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1

    def test_too_many_bins_exact_error_line(self, capsys, monkeypatch):
        # refused before the draw, so no edges or counts are allocated
        def no_draw(*args, **kwargs):
            raise AssertionError("a chunk was drawn before the bins check")

        monkeypatch.setattr("pmskew.montecarlo._draw_chunk", no_draw)
        code, out, err = run(
            capsys, "hist", "--n", "8", "--reps", "20", "--bins", "100000000000"
        )
        assert code == 2
        assert out == ""
        assert err == "pmskew: error: bins must be <= 1048576, got 100000000000\n"

    def test_range_numpy_cannot_bin_is_config_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "hist", "--n", "20", "--reps", "100", "--range=-1e308,1e308"
            )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "value_range" in err


class TestMomentsCommand:
    def test_single_rep_is_config_error(self, capsys):
        code, out, err = run(capsys, "moments", "--n", "20", "--reps", "1")
        assert code == 2
        assert out == ""
        assert "reps" in err

    def test_schema(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--n", "40", "--reps", "600", "--seed", "4"
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["n", "reps", "quantity", "empirical", "series", "se"]
        assert [r["quantity"] for r in rows] == [
            "mean",
            "variance",
            "third_moment",
            "kurtosis",
        ]


def csv_cell(value):
    """A parsed JSON value as the CSV output prints it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return format(value, ".6g")


class TestJsonMatchesCsv:
    """Every subcommand's --format json rows equal its CSV rows."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate", "--n", "30,50", "--reps", "500", "--seed", "3"],
            ["power", "--alt", "beta:2,1", "--n", "20,40", "--reps", "400",
             "--null-reps", "800", "--seed", "1"],
            ["power", "--alt", "gamma:3", "--n", "30", "--reps", "300",
             "--critical-values", "asymptotic", "--seed", "2"],
            ["hist", "--stat", "z", "--n", "50", "--reps", "2000", "--bins",
             "10", "--seed", "1"],
            ["hist", "--n", "20", "--reps", "500", "--bins", "4",
             "--range=-0.5,0.5"],
            ["moments", "--n", "40", "--reps", "600", "--seed", "4"],
        ],
        ids=["calibrate", "power-simulated", "power-asymptotic", "hist-z",
             "hist-range", "moments"],
    )
    def test_experiment_rows(self, capsys, argv):
        code, out_csv, _ = run(capsys, *argv)
        assert code == 0
        code, out_json, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        _, header, csv_rows = parse_csv(out_csv)
        doc = json.loads(out_json)
        assert doc["command"] == argv[0]
        assert [list(r) for r in doc["rows"]] == [header] * len(csv_rows)
        assert [
            {k: csv_cell(v) for k, v in r.items()} for r in doc["rows"]
        ] == csv_rows

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["calibrate", "--n", "20", "--reps", "100"], ["seed"]),
            (["power", "--alt", "gamma:2", "--n", "20", "--reps", "100",
              "--critical-values", "asymptotic"], ["seed"]),
            (["hist", "--n", "20", "--reps", "100"],
             ["seed", "stat", "n", "reps", "out_of_range"]),
            (["moments", "--n", "20", "--reps", "100"], ["seed"]),
        ],
        ids=["calibrate", "power", "hist", "moments"],
    )
    def test_top_level_key_order(self, capsys, argv, keys):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert list(json.loads(out)) == ["command", *keys, "rows"]

    def test_test_key_order(self, capsys, normal_file):
        code, out, _ = run(capsys, "test", normal_file, "--format", "json")
        assert code == 0
        assert list(json.loads(out)) == ["command", "n", "rows"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate", "--n", "20", "--reps", "100", "--seed", "6"],
            ["power", "--alt", "gamma:2", "--n", "20", "--reps", "100",
             "--critical-values", "asymptotic", "--seed", "6"],
            ["hist", "--n", "20", "--reps", "500", "--bins", "4",
             "--range=-0.5,0.5", "--seed", "6"],
            ["moments", "--n", "20", "--reps", "100", "--seed", "6"],
        ],
        ids=["calibrate", "power", "hist", "moments"],
    )
    def test_meta_matches_comments(self, capsys, argv):
        doc = self._meta_matches_comments(capsys, argv)
        if argv[0] == "hist":
            assert sum(r["count"] for r in doc["rows"]) + doc["out_of_range"] == 500

    def test_test_meta_matches_comments(self, capsys, normal_file):
        self._meta_matches_comments(capsys, ["test", normal_file])

    @staticmethod
    def _meta_matches_comments(capsys, argv):
        """The JSON document of argv, after checking one description per
        run: every JSON key but command and rows is a `# key=value` CSV
        comment, in the same order."""
        _, out_csv, _ = run(capsys, *argv)
        _, out_json, _ = run(capsys, *argv, "--format", "json")
        doc = json.loads(out_json)
        meta = [k for k in doc if k not in ("command", "rows")]
        assert parse_csv(out_csv)[0] == [f"# {k}={doc[k]}" for k in meta]
        return doc

    def test_test_rows(self, capsys, normal_file):
        code, out_csv, _ = run(capsys, "test", normal_file)
        assert code == 0
        code, out_json, _ = run(capsys, "test", normal_file, "--format", "json")
        assert code == 0
        _, _, csv_rows = parse_csv(out_csv)
        doc = json.loads(out_json)
        assert doc["n"] == 200
        assert [
            {k: csv_cell(v) for k, v in r.items()} for r in doc["rows"]
        ] == csv_rows


class TestDeterminismAndOutput:
    def test_byte_identical_across_threads(self, tmp_path, capsys):
        out1 = tmp_path / "t1.csv"
        out3 = tmp_path / "t3.csv"
        reps = _chunk_rows(15) + 100  # two chunks
        base = ["calibrate", "--n", "15", "--reps", str(reps), "--seed", "9"]
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "3", "--out", str(out3)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out3.read_bytes()

    def test_env_var_thread_default(self, tmp_path, capsys, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["hist", "--n", "12", "--reps", "900", "--seed", "5"]
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        monkeypatch.setenv("PMSKEW_THREADS", "2")
        assert main(base + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_garbage_env_var_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PMSKEW_THREADS", "many")
        code, _, err = run(capsys, "moments", "--n", "20", "--reps", "100")
        assert code == 2
        assert "PMSKEW_THREADS" in err

    @pytest.mark.parametrize(
        "argv, env, rule",
        [
            (["calibrate", "--n", "20", "--reps", "100", "--threads", "0"], None,
             ">= 1, got 0"),
            (["calibrate", "--n", "20", "--reps", "100"], "0", ">= 1, got 0"),
            (["hist", "--n", "20", "--reps", "100", "--threads", "0"], "2",
             ">= 1, got 0"),
            (["moments", "--n", "20", "--reps", "100"], "0", ">= 1, got 0"),
            (["calibrate", "--n", "20", "--reps", "100", "--threads", "1025"], None,
             "<= 1024, got 1025"),
            (["power", "--alt", "gamma:2", "--n", "20", "--reps", "100"], "1025",
             "<= 1024, got 1025"),
        ],
        ids=["flag", "env", "flag_over_env", "env_moments", "flag_1025", "env_1025"],
    )
    def test_zero_threads_exact_error_line(self, capsys, monkeypatch, argv, env, rule):
        # only the rejection: no pool is started with a large thread count
        if env is not None:
            monkeypatch.setenv("PMSKEW_THREADS", env)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"pmskew: error: threads must be {rule}\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["calibrate", "--n", "1,x"],
             "expected comma-separated integers: '1,x'"),
            (["calibrate", "--n", "20", "--levels", "0.05,x"],
             "expected comma-separated numbers: '0.05,x'"),
            (["hist", "--n", "20", "--range", "1,x"],
             "expected comma-separated numbers: '1,x'"),
            (["power", "--alt", "gamma:2", "--n", "20", "--tests", ","],
             "tests must be nonempty"),
        ],
        ids=["n_not_integer", "levels_not_number", "range_not_number", "tests_empty"],
    )
    def test_malformed_list_exact_error_line(self, capsys, argv, err):
        code, out, got = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert got == f"pmskew: error: {err}\n"

    def test_test_command_takes_no_threads(self, capsys, normal_file):
        # `test` draws nothing, so a thread count there is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["test", normal_file, "--threads", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_identical_command_line_identical_output(self, capsys):
        argv = ["power", "--alt", "weibull:2", "--n", "25", "--reps", "300",
                "--seed", "8", "--null-reps", "500"]
        code, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code == code_b == 0
        assert out_a == out_b

    def test_back_to_back_calls_match_solo_calls(self, capsys, normal_file):
        # the parser is built once per process: no call's options or
        # defaults may reach a later call
        argvs = [
            ["test", normal_file, "--format", "json"],
            ["test", normal_file],
            ["hist", "--n", "12", "--reps", "300", "--range=-1,1", "--seed", "5"],
            ["hist", "--n", "12", "--reps", "300", "--format", "json"],
            ["hist", "--n", "12", "--reps", "300"],
            ["calibrate", "--n", "12", "--reps", "300", "--levels", "0.1"],
            ["calibrate", "--n", "12", "--reps", "300", "--format", "json"],
        ]
        solo = []
        for argv in argvs:
            build_parser.cache_clear()
            solo.append(run(capsys, *argv))
        assert [r[0] for r in solo] == [0] * len(argvs)
        assert [run(capsys, *argv) for argv in argvs] == solo
        assert build_parser() is build_parser()

    def test_unwritable_out_is_io_error(self, capsys):
        code, _, err = run(
            capsys,
            "calibrate",
            "--n",
            "10",
            "--reps",
            "50",
            "--out",
            "/no/such/dir/x.csv",
        )
        assert code == 3
        assert "i/o" in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_numbers_use_6_significant_digits(self, capsys):
        code, out, _ = run(
            capsys, "hist", "--n", "20", "--reps", "400", "--bins", "7"
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        for r in rows:
            for field in ("bin_left", "bin_right"):
                assert format(float(r[field]), ".6g") == r[field]


_ERROR_TYPES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.PmskewError)
     and c is not errors.PmskewError),
    key=lambda c: c.__name__,
)


class TestErrorExitCodes:
    @pytest.mark.parametrize("error", _ERROR_TYPES, ids=lambda c: c.__name__)
    def test_every_error_type_exits_1_or_2(self, capsys, monkeypatch, error):
        # the CLI exits only through 0-3: each error type the package can
        # raise is a data error (1) or a configuration error (2)
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr("pmskew.cli.calibrate_curve", fail)
        code, out, err = run(capsys, "calibrate", "--n", "20")
        assert code in (1, 2)
        assert out == ""
        assert err == "pmskew: error: boom\n"


_AWKWARD = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 0.0]


class TestTestCommandProperty:
    """Over awkward data, `pmskew test` exits with a code in 0-3 and never
    reports a non-finite number in a defined row."""

    values = st.one_of(st.sampled_from(_AWKWARD), st.floats(-10.0, 10.0))
    column = st.one_of(
        st.lists(values, max_size=20),
        st.builds(lambda v, k: [v] * k, values, st.integers(0, 20)),  # constant
        st.builds(  # a genuine spread at an extreme scale
            lambda xs, scale: [x * scale for x in xs],
            st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=30),
            st.sampled_from([1.0, 1e-300, 1e-150, 1e150, 1e300]),
        ),
    )

    # lines that are not valid UTF-8
    raw_lines = st.lists(
        st.sampled_from([b"\xff\n", b"1\xfe5\n", b"\xc3\x28,2\n", b"3,\x80\n"]),
        max_size=2,
    )

    @settings(max_examples=60, deadline=None)
    @given(
        first=column,
        second=column,
        col=st.sampled_from([None, 1, 2]),
        fmt=st.sampled_from(["csv", "json"]),
        raw=raw_lines,
        at=st.integers(0, 30),
    )
    def test_exit_code_and_defined_rows(
        self, tmp_path_factory, first, second, col, fmt, raw, at
    ):
        if col is None:
            text = "".join(f"{v!r}\n" for v in first)
        else:
            pad = max(len(first), len(second))
            cells = [[repr(v) for v in c] + [""] * (pad - len(c))
                     for c in (first, second)]
            text = "".join(f"{a},{b}\n" for a, b in zip(*cells))
        lines = text.encode().splitlines(keepends=True)
        lines[at:at] = raw
        path = tmp_path_factory.getbasetemp() / "awkward.csv"
        path.write_bytes(b"".join(lines))
        argv = ["test", str(path), "--format", fmt]
        if col is not None:
            argv += ["--col", str(col)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if not out.getvalue():
            return
        if fmt == "json":
            rows = json.loads(out.getvalue())["rows"]
        else:
            rows = parse_csv(out.getvalue())[2]
        for r in rows:
            if r["defined"] in (True, "true"):
                for field in ("raw_statistic", "z_value", "p_value"):
                    assert math.isfinite(float(r[field])), (r["test"], field)
