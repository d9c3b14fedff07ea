"""Command-line interface.

Subcommands: test (apply all four normality tests to a data file),
calibrate, power, hist, moments (the Monte Carlo experiments). Output is
CSV, or JSON via --format json. A run is described once, by its meta
items (an experiment's seed, with hist's statistic, n, reps and
out_of_range; test's n): they are the JSON document's top-level keys and,
in the same order, the CSV's `# key=value` header lines, so every
artifact names what reproduces it. Numbers are printed with 6
significant digits; output goes to --out, with "-" meaning stdout.

Exit codes: 0 success, 1 data error or degenerate statistic, 2 bad
invocation or configuration, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from .distributions import AlternativeSpec
from .errors import (
    InvalidParamsError,
    NonFiniteError,
    ParseError,
    SampleTooLargeError,
    SampleTooSmallError,
    ZeroVarianceError,
)
from .moments import Sample
from .montecarlo import (
    ALL_TESTS,
    Statistic,
    calibrate_curve,
    moment_validation,
    null_histogram,
    power_curve,
)
from .skewtests import (
    TestName,
    TestResult,
    lin_mudholkar_test,
    shapiro_wilk_test,
    spms_test,
    sqrt_b1_test,
)

__all__ = ["main"]

REPORT_LEVELS = (0.01, 0.05, 0.10, 0.20)

_DATA_ERRORS = (
    ParseError,
    NonFiniteError,
    ZeroVarianceError,
    SampleTooSmallError,
    SampleTooLargeError,
)

_TEST_FUNCS = {
    TestName.SPMS: spms_test,
    TestName.SQRT_B1: sqrt_b1_test,
    TestName.SHAPIRO_WILK: shapiro_wilk_test,
    TestName.LIN_MUDHOLKAR: lin_mudholkar_test,
}


def _fmt(value) -> str:
    """One CSV cell: ints verbatim, floats at 6 significant digits.

    Strings containing a comma or quote are quoted per RFC 4180 (the
    alt column holds labels like beta:2,1).
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".6g")


# bench/tracing.py times _csv, _json_doc and _write_output by name
def _csv(header: list[str], rows: list[list], meta: dict) -> str:
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_doc(meta: dict, rows: list[dict]) -> str:
    return json.dumps({**meta, "rows": rows}, indent=2) + "\n"


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit(args, header, rows, **meta) -> None:
    """Write rows as CSV, after one `# key=value` line per meta item, or
    with --format json as {"command": ..., **meta, "rows": [...]}."""
    if args.format == "json":
        rows = [dict(zip(header, row)) for row in rows]
        text = _json_doc({"command": args.command, **meta}, rows)
    else:
        text = _csv(header, rows, meta)
    _write_output(text, args.out)


def _list(text: str, convert=float, what="numbers") -> list:
    """The comma-separated items of text, each through convert; blank
    items are skipped."""
    try:
        return [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidParamsError(f"expected comma-separated {what}: {text!r}")


def _sizes(text: str) -> list[int]:
    """The --n list of sample sizes; at least one is required."""
    ns = _list(text, int, "integers")
    if not ns:
        raise InvalidParamsError(f"--n needs at least one sample size: {text!r}")
    return ns


def _read_sample(path: str, col: int | None) -> Sample:
    """Parse one number per line, or column `col` (1-based) of a CSV,
    each line split into fields as RFC 4180 quotes them.

    Blank lines are ignored. Any other non-numeric content is a ParseError
    naming the offending line; there is no header detection. A file and
    stdin are read alike, as UTF-8 bytes: a leading byte-order mark is
    dropped, and an undecodable byte fails as its line's number.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    raw_lines = data.decode("utf-8-sig", "surrogateescape").splitlines()
    values = []
    for lineno, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        if col is None:
            token = line.strip()
        else:
            try:
                fields = next(csv.reader([line]))
            except csv.Error as exc:  # a field over csv.field_size_limit()
                raise ParseError(f"line {lineno}: {exc}")
            if col > len(fields):
                found = len(fields)
                raise ParseError(f"line {lineno}: no column {col} (found {found})")
            token = fields[col - 1].strip()
        try:
            values.append(float(token))
        except ValueError:
            raise ParseError(f"line {lineno}: not a number: {token!r}")
    return Sample(np.array(values))


def cmd_test(args) -> int:
    if args.col is not None and args.col < 1:
        raise InvalidParamsError(f"--col must be >= 1, got {args.col}")
    sample = _read_sample(args.input, args.col)
    rows = []
    failures = []
    any_undefined = False
    for name in ALL_TESTS:
        try:
            result = _TEST_FUNCS[name](sample)
        except _DATA_ERRORS as exc:
            failures.append(f"{name.value}: {exc}")
            result = TestResult(name, math.nan, math.nan, math.nan, defined=False)
        any_undefined |= not result.defined
        numbers = [result.raw_statistic, result.z_value, result.p_value]
        rows.append(
            [name.value, result.defined]
            + (numbers if result.defined else [None] * 3)
            + [result.reject_at(level) for level in REPORT_LEVELS]
        )
    header = ["test", "defined", "raw_statistic", "z_value", "p_value"] + [
        f"reject_{level:g}" for level in REPORT_LEVELS
    ]
    _emit(args, header, rows, n=sample.n)
    for message in failures:
        print(f"warning: {message}", file=sys.stderr)
    print(f"test: n={sample.n}, {len(rows)} tests", file=sys.stderr)
    return 1 if any_undefined else 0


def cmd_calibrate(args) -> int:
    ns = _sizes(args.n)
    levels = _list(args.levels)
    rows = [
        [row.n, row.reps, level, rate, row.undefined_count]
        for row in calibrate_curve(ns, args.reps, levels, args.seed, args.threads)
        for level, rate in zip(row.levels, row.rejection_rates)
    ]
    header = ["n", "reps", "level", "rejection_rate", "undefined"]
    _emit(args, header, rows, seed=args.seed)
    print(
        f"calibrate: {len(rows)} rows ({len(ns)} n x {len(levels)} levels), "
        f"reps={args.reps}, seed={args.seed}",
        file=sys.stderr,
    )
    return 0


def cmd_power(args) -> int:
    alt = AlternativeSpec.parse(args.alt)
    ns = _sizes(args.n)
    tests = _list(args.tests, str.strip, "test names")
    cells = power_curve(
        alt,
        ns,
        args.reps,
        args.level,
        tests=tests,
        seed=args.seed,
        threads=args.threads,
        critical_values=args.critical_values,
        null_reps=args.null_reps,
    )
    rows = [
        [
            alt.label,
            cell.n,
            cell.reps,
            cell.level,
            test.value,
            cell.powers[test],
            cell.undefined_counts[test],
        ]
        for cell in cells
        for test in cell.powers
    ]
    header = ["alt", "n", "reps", "level", "test", "power", "undefined"]
    _emit(args, header, rows, seed=args.seed)
    print(
        f"power: alt={alt.label}, {len(rows)} rows, reps={args.reps}, "
        f"level={args.level:g}, criticals={args.critical_values}, "
        f"seed={args.seed}",
        file=sys.stderr,
    )
    return 0


def cmd_hist(args) -> int:
    value_range = None
    if args.range is not None:
        bounds = _list(args.range)
        if len(bounds) != 2:
            raise InvalidParamsError(f"--range needs two numbers: {args.range!r}")
        value_range = (bounds[0], bounds[1])
    result = null_histogram(
        args.stat,
        args.n,
        args.reps,
        args.bins,
        args.seed,
        threads=args.threads,
        value_range=value_range,
    )
    edges = result.bin_edges.tolist()
    rows = [list(row) for row in zip(edges, edges[1:], result.counts.tolist())]
    header = ["bin_left", "bin_right", "count"]
    _emit(
        args,
        header,
        rows,
        seed=args.seed,
        stat=str(result.statistic_name),
        n=result.n,
        reps=result.reps,
        out_of_range=result.out_of_range,
    )
    print(
        f"hist: stat={result.statistic_name}, n={result.n}, "
        f"reps={result.reps}, bins={len(rows)}, "
        f"out_of_range={result.out_of_range}, seed={args.seed}",
        file=sys.stderr,
    )
    return 0


def cmd_moments(args) -> int:
    result = moment_validation(args.n, args.reps, args.seed, threads=args.threads)
    rows = [
        [result.n, result.reps, row.quantity, row.empirical, row.series, row.se]
        for row in result.rows
    ]
    header = ["n", "reps", "quantity", "empirical", "series", "se"]
    _emit(args, header, rows, seed=args.seed)
    print(
        f"moments: n={result.n}, reps={result.reps}, "
        f"undefined={result.undefined_count}, seed={args.seed}",
        file=sys.stderr,
    )
    return 0


def _add_output(sub):
    sub.add_argument("--out", default="-", help="output path, - for stdout")
    sub.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="output format"
    )


def _add_common(sub):
    """The flags every experiment takes."""
    sub.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads, 1 to 1024 (default: %(default)s); never changes output",
    )
    _add_output(sub)


# built once per process: parse_args fills a fresh namespace on every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmskew",
        description=(
            "Pearson-measure-of-skewness normality test and its Monte Carlo "
            "calibration, power, and histogram experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="apply the four normality tests to a file")
    p.add_argument("input", help="data file, one number per line; - for stdin")
    p.add_argument(
        "--col", type=int, default=None, help="read this 1-based CSV column"
    )
    _add_output(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("calibrate", help="null rejection rates of the spms test")
    p.add_argument("--n", required=True, help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--levels", default=",".join(map(str, REPORT_LEVELS)))
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("power", help="power of the tests against an alternative")
    p.add_argument("--alt", required=True, help="e.g. beta:2,1 gamma:3 lognormal:0,0.5")
    p.add_argument("--n", required=True, help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument(
        "--tests",
        default=",".join(t.value for t in ALL_TESTS),
        help="comma-separated subset of "
        + ",".join(t.value for t in ALL_TESTS),
    )
    p.add_argument(
        "--critical-values",
        choices=["simulated", "asymptotic"],
        default="simulated",
        help="simulated: empirical null quantiles at the same n (default); "
        "asymptotic: nominal normal-approximation thresholds",
    )
    p.add_argument(
        "--null-reps",
        type=int,
        default=100_000,
        help="null replications behind simulated critical values",
    )
    _add_common(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("hist", help="null histogram of spms or its Z transform")
    p.add_argument("--stat", choices=[str(s) for s in Statistic], default="spms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--bins", type=int, default=60)
    p.add_argument(
        "--range", default=None, help="lo,hi bin range (default: mean +- 5 sd)"
    )
    _add_common(p)
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("moments", help="empirical null moments vs. series values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=100_000)
    _add_common(p)
    p.set_defaults(func=cmd_moments)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"pmskew: error: {exc}", file=sys.stderr)
        return 1
    except InvalidParamsError as exc:
        print(f"pmskew: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pmskew: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
