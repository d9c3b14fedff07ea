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

Each public name is declared once, in its module's __all__; the package
exports exactly the union of those lists, plus __version__.
"""

from . import distributions, errors, moments, montecarlo, skewtests, su_transform
from .distributions import *
from .errors import *
from .moments import *
from .montecarlo import *
from .skewtests import *
from .su_transform import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *moments.__all__,
    *skewtests.__all__,
    *su_transform.__all__,
    *distributions.__all__,
    *montecarlo.__all__,
    *errors.__all__,
]
