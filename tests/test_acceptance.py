"""End-to-end acceptance checks, one verdict line per criterion.

Every test runs the shipped experiment pipeline at seed 1 and compares
against its target with the tolerance stated inline. Criteria that are
known to be unattainable (see the comments at the individual checks) are
asserted as written and left failing rather than weakened; each test
prints `ACCEPTANCE <k> <name>: PASS|FAIL - <measurements>` and the
conftest hook echoes all lines after the run.

The heavy criteria repeat full-size experiments (10^5 replications) and
take a few minutes combined on one core.
"""

import math

import numpy as np
from scipy import stats as sstats
from scipy.special import ndtri

import pmskew
from pmskew import cli
from pmskew import montecarlo as mc
from pmskew import skewtests as sk
from pmskew.distributions import (
    POWER_STUDY_ALTERNATIVES,
    AlternativeSpec,
    Family,
    SeededStream,
)
from pmskew.moments import central_moment_arrays
from pmskew.skewtests import TestName as TN

SEED = 1
NORMAL = AlternativeSpec(Family.NORMAL)

REPORT_LINES: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    REPORT_LINES.append(line)
    print(line)
    return ok


def _sig5(value: float, target: float) -> bool:
    # agreement to 5 significant digits of the target
    tol = 0.5 * 10.0 ** (math.floor(math.log10(abs(target))) - 4)
    return abs(value - target) <= tol


# ---------------------------------------------------------------------------
# 1. Null calibration: rejection rates of the spms test at four sample
#    sizes, 10^5 replications, within 5 binomial SE of the target rates.

CALIBRATION_TARGETS = (
    (100, 0.01, 0.0112),
    (200, 0.05, 0.0519),
    (500, 0.05, 0.0504),
    (1000, 0.10, 0.1003),
    (1000, 0.20, 0.2004),
)


def test_criterion_1_null_calibration():
    reps = 100_000
    rates = {}
    for n in (100, 200, 500, 1000):
        row = pmskew.calibrate(n, reps, (0.01, 0.05, 0.10, 0.20), seed=SEED)
        rates[n] = dict(zip(row.levels, row.rejection_rates))
    worst = (0.0, "")
    ok = True
    for n, level, target in CALIBRATION_TARGETS:
        se = math.sqrt(target * (1.0 - target) / reps)
        dev = abs(rates[n][level] - target) / se
        if dev > worst[0]:
            worst = (dev, f"n={n} level={level:g}: {rates[n][level]:.5f} vs {target:g}")
        ok = ok and dev <= 5.0
    assert _report(
        1,
        "null calibration",
        ok,
        f"5 cells at 10^5 reps, worst {worst[0]:.1f}/5.0 binomial SE ({worst[1]})",
    )


# ---------------------------------------------------------------------------
# 2. Power study: the full 6-alternative x 5-size grid at 10^4
#    replications, level 0.05, size-adjusted critical values. Pinned
#    cells within the stated absolute tolerances, spms above sqrt_b1 in
#    at least 80% of the 30 cells, and spms within 2 paired SE of every
#    competitor on both beta alternatives.

GRID_SIZES = (40, 50, 60, 80, 100)

POWER_PINS = {
    ("beta:2,1", 40): {
        TN.SPMS: (0.771, 0.02),
        TN.SQRT_B1: (0.257, 0.02),
        TN.SHAPIRO_WILK: (0.706, 0.02),
        TN.LIN_MUDHOLKAR: (0.515, 0.02),
    },
    ("beta:3,2", 100): {TN.SPMS: (0.600, 0.02), TN.SQRT_B1: (0.114, 0.012)},
    ("weibull:2", 100): {TN.SPMS: (0.847, 0.015)},
    ("gamma:3", 60): {TN.SPMS: (0.900, 0.013)},
    ("lognormal:0,0.5", 40): {TN.SPMS: (0.764, 0.02), TN.LIN_MUDHOLKAR: (0.884, 0.015)},
}


def _reject_vectors(alt, n, reps, level):
    """Per-replication rejection indicators through power_study's tail rule."""
    tests = mc.ALL_TESTS
    su = pmskew.su_params(n)
    pools = mc._null_reference(n, SEED, 100_000, tests, threads=1)
    rejects = {t: mc._rejects(t, level, pools[t]) for t in tests}
    cols = {t: [] for t in tests}
    for span in mc._spans(reps, n):
        x = mc._draw_chunk(alt, n, SEED, span)
        stats = mc._chunk_statistics(x, tests, su)
        for t in tests:
            cols[t].append(rejects[t](*stats[t]))
    return {t: np.concatenate(cols[t]) for t in tests}


def test_criterion_2_power_study():
    reps, level = 10_000, 0.05
    powers = {}
    dominance = []
    for n in GRID_SIZES:
        for alt in POWER_STUDY_ALTERNATIVES:
            cell = pmskew.power_study(alt, n, reps, level, seed=SEED)
            powers[(alt.label, n)] = cell.powers
        # paired spms-vs-competitor differences on the beta alternatives
        # (common random numbers, so the SE comes from the paired indicator)
        for alt in POWER_STUDY_ALTERNATIVES[:2]:
            vecs = _reject_vectors(alt, n, reps, level)
            for comp in (TN.SQRT_B1, TN.SHAPIRO_WILK, TN.LIN_MUDHOLKAR):
                d = vecs[TN.SPMS].astype(np.int8) - vecs[comp].astype(np.int8)
                se = float(d.std(ddof=1)) / math.sqrt(reps)
                dominance.append(
                    (float(d.mean()) >= -2.0 * se, alt.label, n, comp, float(d.mean()), se)
                )

    pins_total, pins_ok, worst_pin = 0, 0, (0.0, "")
    for key, pinned in POWER_PINS.items():
        for test, (target, tol) in pinned.items():
            pins_total += 1
            dev = abs(powers[key][test] - target)
            if dev <= tol:
                pins_ok += 1
            if dev / tol > worst_pin[0]:
                worst_pin = (
                    dev / tol,
                    f"{key[0]} n={key[1]} {test}: {powers[key][test]:.3f} vs {target:g}+-{tol:g}",
                )
    beats = sum(1 for p in powers.values() if p[TN.SPMS] > p[TN.SQRT_B1])
    dom_bad = [d for d in dominance if not d[0]]
    # expected to fail on beta:2,1 at n=100: Shapiro-Wilk is ahead of spms
    # there by more than 2 paired SE (both powers are near 0.99)
    dom_msg = (
        "all within 2 paired SE"
        if not dom_bad
        else "; ".join(
            f"{a} n={n} {c}: diff {m:+.4f} < -2*{s:.4f}" for _, a, n, c, m, s in dom_bad
        )
    )
    ok = pins_ok == pins_total and beats >= 24 and not dom_bad
    assert _report(
        2,
        "power study",
        ok,
        f"pins {pins_ok}/{pins_total} (worst {worst_pin[0]:.2f}x tol, {worst_pin[1]}); "
        f"spms>sqrt_b1 in {beats}/30 cells (need >=24); beta dominance: {dom_msg}",
    )


# ---------------------------------------------------------------------------
# 3. Null moments: empirical mean/variance/third moment of spms at
#    n=1000 within 4 reported SE of 0 / 0.00154426 / 0, and empirical
#    kurtosis at n=500 within 5 SE of the series value beta2_spms(500).


def test_criterion_3_null_moments():
    at1000 = {r.quantity: r for r in pmskew.moment_validation(1000, 100_000, seed=SEED).rows}
    at500 = {r.quantity: r for r in pmskew.moment_validation(500, 100_000, seed=SEED).rows}
    kurt = at500["kurtosis"]
    checks = (
        ("mean", at1000["mean"].empirical, 0.0, 4.0 * at1000["mean"].se),
        ("variance", at1000["variance"].empirical, 0.00154426, 4.0 * at1000["variance"].se),
        ("third_moment", at1000["third_moment"].empirical, 0.0, 4.0 * at1000["third_moment"].se),
        ("kurtosis", kurt.empirical, kurt.series, 5.0 * kurt.se),
    )
    ok = True
    parts = []
    for name, got, target, tol in checks:
        ok = ok and abs(got - target) <= tol
        parts.append(f"{name} {got:.6g} vs {target:.6g}+-{tol:.2g}")
    assert _report(3, "null moments", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# 4. Series truncation: the median |spms - spms_series| over 1000 null
#    samples strictly decreases through n = 50, 100, 200, 400 and beats
#    the leading-term-only approximation V/(2*sqrt(n)) at every n.


def test_criterion_4_series_truncation():
    sizes = (50, 100, 200, 400)
    med_full, med_lead = [], []
    for n in sizes:
        err_full, err_lead = [], []
        for r in range(1000):
            s = pmskew.sample(NORMAL, n, SeededStream(SEED, r))
            value = pmskew.spms_statistic(pmskew.central_moments(s))
            state = pmskew.SeriesState.from_sample(s)
            err_full.append(abs(value - pmskew.spms_series(state)))
            err_lead.append(abs(value - state.V / (2.0 * math.sqrt(n))))
        med_full.append(float(np.median(err_full)))
        med_lead.append(float(np.median(err_lead)))
    decreasing = all(a > b for a, b in zip(med_full, med_full[1:]))
    beats_leading = all(f < l for f, l in zip(med_full, med_lead))
    ok = decreasing and beats_leading
    medians = ", ".join(f"n={n}: {m:.2e}" for n, m in zip(sizes, med_full))
    assert _report(
        4,
        "series truncation",
        ok,
        f"medians {medians}; strictly decreasing: {decreasing}; "
        f"below leading-term error at every n: {beats_leading}",
    )


# ---------------------------------------------------------------------------
# 5. Transform normality: at n=200 with 10^5 null replications, KS
#    distance of Z from N(0,1) below 0.005 and a 60-bin equal-probability
#    chi-square GOF p-value above 0.001.
#
# Expected to fail: the calibration targets of criterion 1 themselves put
# the n=200 null Z about 0.006 from Phi in sup-CDF distance (the 0.20-level
# rate 0.2117 alone forces >= (0.2117-0.20)/2), so no transform can satisfy
# both criteria; measured honestly and left red.


def test_criterion_5_transform_normality():
    reps, n = 100_000, 200
    su = pmskew.su_params(n)
    chunks = []
    for span in mc._spans(reps, n):
        x = mc._draw_chunk(NORMAL, n, SEED, span)
        _, z, defined = sk._batch_spms(central_moment_arrays(x), su)
        chunks.append(z[defined])
    z = np.concatenate(chunks)
    ks = float(sstats.kstest(z, "norm").statistic)
    edges = ndtri(np.linspace(0.0, 1.0, 61))
    counts, _ = np.histogram(z, bins=edges)
    expected = z.size / 60.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    chi2_p = float(sstats.chi2.sf(chi2, 59))
    ok = ks < 0.005 and chi2_p > 0.001
    assert _report(
        5,
        "transform normality",
        ok,
        f"{z.size} defined reps; KS {ks:.4f} (need <0.005); "
        f"60-bin chi2 {chi2:.0f}, p {chi2_p:.2e} (need >0.001)",
    )


# ---------------------------------------------------------------------------
# 6. Exact values: spms is exactly 0 on symmetric samples; spms({0,0,1})
#    = -0.353553 +- 1e-6; the full-series transform constants at n=200
#    match W^2=1.301648, delta=2.75433, alpha=2.57493 to 5 significant
#    digits; Shapiro-Wilk agrees with the reference implementation to 4
#    decimal places.
#
# The alpha target follows from the W^2 target: the symmetric S_U variate
# X = alpha*sinh(Z/delta), Z ~ N(0,1), has Var(X) = alpha^2*(W^2-1)/2
# (Johnson 1949; D'Agostino 1970), so unit variance fixes
# alpha = sqrt(2/(W^2-1)) = sqrt(2/0.301648) = 2.57493. The value
# sqrt(1/(W^2-1)) = 1.82075 would halve that variance and reject about
# 15% of null samples at the nominal 5% level.


def test_criterion_6_exact_values():
    def spms_of(vals):
        return pmskew.spms_statistic(pmskew.central_moments(pmskew.Sample(np.array(vals))))

    sym_zero = all(
        spms_of(v) == 0.0
        for v in ([-1.0, 0.0, 1.0], [-2.0, -1.0, 1.0, 2.0], [-3.0, -1.0, 0.0, 1.0, 3.0])
    )
    v001 = spms_of([0.0, 0.0, 1.0])
    pin_001 = abs(v001 - (-0.353553)) <= 1e-6

    su = pmskew.su_params(200, series="full")
    su_checks = (
        ("W^2", su.W2, 1.301648),
        ("delta", su.delta, 2.75433),
        ("alpha", su.alpha, 2.57493),
    )
    su_bad = [f"{k} {v:.6f} vs {t:g}" for k, v, t in su_checks if not _sig5(v, t)]

    # Shapiro-Wilk versus the independent reference implementation, plus
    # the classic n=11 weights example (printed reference value W = 0.79)
    max_dw = max_dp = 0.0
    for n in (8, 12, 25, 50, 100, 500, 2000):
        for spec in (NORMAL, AlternativeSpec(Family.GAMMA, (2.0,))):
            s = pmskew.sample(spec, n, SeededStream(SEED, n))
            res = pmskew.shapiro_wilk_test(s)
            ref_w, ref_p = sstats.shapiro(s.values)
            max_dw = max(max_dw, abs(res.raw_statistic - float(ref_w)))
            max_dp = max(max_dp, abs(res.p_value - float(ref_p)))
    weights = [148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236.0]
    w1965 = pmskew.shapiro_wilk_test(pmskew.Sample(np.array(weights))).raw_statistic
    sw_ok = max_dw < 5e-5 and max_dp < 5e-5 and round(w1965, 2) == 0.79

    ok = sym_zero and pin_001 and not su_bad and sw_ok
    assert _report(
        6,
        "exact values",
        ok,
        f"symmetric spms == 0: {sym_zero}; spms(0,0,1) = {v001:.6f}; "
        f"transform constants: {'; '.join(su_bad) if su_bad else 'all match to 5 digits'}; "
        f"SW max |dW| {max_dw:.1e}, max |dp| {max_dp:.1e}, W(weights) {w1965:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. Determinism: every experiment subcommand produces byte-identical
#    output for the same seed regardless of --threads.


def test_criterion_7_thread_determinism(tmp_path):
    runs = (
        ["calibrate", "--n", "50", "--reps", "9000"],
        ["power", "--alt", "beta:2,1", "--n", "40", "--reps", "6000",
         "--null-reps", "20000"],
        ["hist", "--stat", "z", "--n", "60", "--reps", "9000", "--bins", "40"],
        ["moments", "--n", "50", "--reps", "9000"],
    )
    same = []
    for i, args in enumerate(runs):
        blobs = []
        for threads in ("1", "3"):
            mc._null_runs.cache_clear()  # force the pools to be rebuilt per run
            out = tmp_path / f"run{i}-t{threads}.csv"
            code = cli.main(args + ["--seed", str(SEED), "--threads", threads,
                                    "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        same.append(blobs[0] == blobs[1])
    ok = all(same)
    assert _report(
        7,
        "thread determinism",
        ok,
        "byte-identical CSV for threads 1 vs 3 on "
        + ", ".join(
            f"{r[0]}={'yes' if s else 'NO'}" for r, s in zip(runs, same)
        ),
    )
