"""CLI surface: schemas, formats, exit codes, byte-level determinism."""

import csv
import io
import json

import numpy as np
import pytest

from pmskew.cli import main


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

    def test_missing_column_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "one_col.csv"
        path.write_text("1.0\n2.0\n")
        code, _, err = run(capsys, "test", str(path), "--col", "3")
        assert code == 1
        assert "line 1" in err

    def test_too_small_sample(self, capsys, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("1\n2\n3\n")
        code, out, err = run(capsys, "test", str(path))
        assert code == 1
        assert "n >= 8" in err

    def test_stdin(self, capsys, monkeypatch, normal_file):
        data = open(normal_file).read()
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        code, out, _ = run(capsys, "test", "-")
        assert code == 0
        assert "# n=200" in out

    def test_overflowing_statistics_are_undefined(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "huge.txt"
        values = 1e200 * (1.0 + 1e-3 * rng.standard_normal(10))
        path.write_text("".join(f"{float(v)!r}\n" for v in values))
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = run(capsys, "test", str(path))
        assert code == 1
        _, header, rows = parse_csv(out)
        assert len(rows) == 4
        for r in rows:
            assert r["defined"] == "false", r["test"]
            assert r["raw_statistic"] == r["z_value"] == r["p_value"] == ""
            assert all(r[h] == "false" for h in header if h.startswith("reject_"))

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


class TestPowerCommand:
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
        from pmskew import montecarlo

        argv = ["power", "--n", "20,30", "--reps", "300", "--null-reps",
                "900", "--seed", "8"]
        montecarlo._null_cache.clear()
        code, cold, _ = run(capsys, *argv, "--alt", "gamma:2")
        assert code == 0
        code, _, _ = run(capsys, *argv, "--alt", "beta:3,2", "--threads", "2")
        assert code == 0
        assert sorted(k[0] for k in montecarlo._null_cache) == [20, 30]
        code, warm, _ = run(capsys, *argv, "--alt", "gamma:2")
        assert code == 0
        assert warm == cold


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
        oor = int(comments[1].split("=")[1])
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

    def test_hist_meta_matches_comments(self, capsys):
        argv = ["hist", "--n", "20", "--reps", "500", "--bins", "4",
                "--range=-0.5,0.5", "--seed", "6"]
        _, out_csv, _ = run(capsys, *argv)
        _, out_json, _ = run(capsys, *argv, "--format", "json")
        comments, _, rows = parse_csv(out_csv)
        doc = json.loads(out_json)
        assert comments == ["# seed=6", f"# out_of_range={doc['out_of_range']}"]
        assert sum(r["count"] for r in doc["rows"]) + doc["out_of_range"] == 500

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
        base = ["calibrate", "--n", "15", "--reps", "4200", "--seed", "9"]
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

    def test_identical_command_line_identical_output(self, capsys):
        argv = ["power", "--alt", "weibull:2", "--n", "25", "--reps", "300",
                "--seed", "8", "--null-reps", "500"]
        code, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code == code_b == 0
        assert out_a == out_b

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
