"""Pearson-measure-of-skewness normality test and Monte Carlo experiments.

The statistic spms = sqrt(b1) * (b2 + 3) / (2 * (5*b2 - 6*b1 - 9)) is the
sample version of Pearson's (mean - mode) / standard deviation. Under
normality its null moments admit asymptotic series in 1/n, and a Johnson
S_U transform of spms / sqrt(lambda2(n)) is close to standard normal,
giving a two-sided test of normality. The package also provides the
skewness-based sqrt(b1) test, Shapiro-Wilk (AS R94), and the Lin-Mudholkar
test for comparison, plus seeded Monte Carlo experiments (calibration,
power, histograms, moment validation) with thread-count-independent,
byte-reproducible output.
"""

from .distributions import (
    POWER_STUDY_ALTERNATIVES,
    AlternativeSpec,
    Family,
    SeededStream,
    draw_values,
    population_moments,
    sample,
)
from .errors import (
    InvalidConfigError,
    InvalidLevelError,
    InvalidParamsError,
    NonFiniteError,
    ParseError,
    PmskewError,
    SampleTooLargeError,
    SampleTooSmallError,
    ZeroVarianceError,
)
from .moments import MomentSummary, Sample, central_moments
from .montecarlo import (
    ALL_TESTS,
    CalibrationRow,
    HistogramData,
    MomentRow,
    MomentValidation,
    PowerCell,
    Statistic,
    calibrate,
    calibrate_curve,
    moment_validation,
    null_histogram,
    power_curve,
    power_study,
)
from .skewtests import (
    SeriesState,
    TestName,
    TestResult,
    lin_mudholkar_test,
    population_pms,
    shapiro_wilk_test,
    spms_series,
    spms_statistic,
    spms_test,
    sqrt_b1_test,
)
from .su_transform import (
    NULL_MOMENT_SERIES,
    SuTransform,
    beta2_spms,
    lambda2,
    lambda4,
    su_params,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # moments
    "Sample",
    "MomentSummary",
    "central_moments",
    # statistic and tests
    "TestName",
    "TestResult",
    "SeriesState",
    "spms_statistic",
    "spms_series",
    "population_pms",
    "spms_test",
    "sqrt_b1_test",
    "shapiro_wilk_test",
    "lin_mudholkar_test",
    # null moment series and transform
    "NULL_MOMENT_SERIES",
    "SuTransform",
    "lambda2",
    "lambda4",
    "beta2_spms",
    "su_params",
    # distributions
    "Family",
    "AlternativeSpec",
    "SeededStream",
    "POWER_STUDY_ALTERNATIVES",
    "draw_values",
    "sample",
    "population_moments",
    # experiments
    "Statistic",
    "CalibrationRow",
    "PowerCell",
    "HistogramData",
    "MomentRow",
    "MomentValidation",
    "ALL_TESTS",
    "calibrate",
    "calibrate_curve",
    "power_curve",
    "power_study",
    "null_histogram",
    "moment_validation",
    # errors
    "PmskewError",
    "NonFiniteError",
    "ZeroVarianceError",
    "SampleTooSmallError",
    "SampleTooLargeError",
    "InvalidParamsError",
    "InvalidLevelError",
    "InvalidConfigError",
    "ParseError",
]
