"""The printed byte contract on a second SIMD code path.

numpy chooses some of its loops at run time among the SIMD targets it was
built for, and a few of those loops (np.log, np.exp, np.cbrt, a ** 1.5)
round differently by target. This test re-runs the CLI digest cases of
test_byte_contract.py in a child process with every dispatch target this
CPU supports switched off through NPY_DISABLE_CPU_FEATURES, so the printed
output is also checked on numpy's baseline loops. The child also runs the
check that each scalar test on a Sample equals its chunk row bit for bit:
a Sample's tests finish on Python floats, through the same numpy loops as
a chunk row where a step's last bit depends on the target, and that must
hold on the baseline loops too, also on the degenerate rows at extreme
scales of test_skewtests.py's corpus. It also runs
test_accuracy.py's bounds on the error of each raw statistic, of each
test's z and of the normal functions, which must hold on every loop, and
test_normal.py, whose port of Cephes's ndtr and ndtri must give scipy's
bits on the baseline loops too. The variable is set in the child's
environment only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pmskew
import test_normal
from test_accuracy import BOUNDS, NORMAL_BOUNDS, Z_BOUNDS
from test_byte_contract import GOLDEN
from test_skewtests import AGREEMENT_SIZES, CORPUS_SIZES

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

TESTS = Path(__file__).resolve().parent

# run in the child: fail unless every target is off, then the digest cases,
# the chunk-against-scalar agreement, on the mixed chunk and on the
# degenerate corpus, the accuracy bounds and the normal functions' bits
_CHILD = """
import sys
import pytest
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
on = [t for t in sys.argv[1:] if umath.__cpu_features__.get(t)]
if on:
    sys.exit(f"dispatch targets still on: {on}")
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider",
                      "-k", "stdout_digest or chunk_masks_match_scalar_results"
                            " or degenerate_corpus"
                            " or mpmath_worst_error or bit_for_bit",
                      "test_byte_contract.py", "test_skewtests.py",
                      "test_accuracy.py", "test_normal.py"]))
"""


def _supported_targets() -> list[str]:
    dispatch = getattr(_umath, "__cpu_dispatch__", [])
    return [t for t in dispatch if _umath.__cpu_features__.get(t)]


def test_cli_digests_with_dispatch_targets_disabled():
    targets = _supported_targets()
    if not targets:
        pytest.skip("this CPU supports none of numpy's dispatch targets")
    src = str(Path(pmskew.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *targets],
        cwd=TESTS,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-4000:]
    # every Monte Carlo digest at threads 1 and 2, the two `pmskew test`
    # digests, the agreement check at each of its row lengths and the
    # corpus check at each of its own, the accuracy bound of each raw
    # statistic, of each test's z and of each normal function, and every
    # test of test_normal.py
    normal_tests = sum(name.startswith("test_") for name in vars(test_normal))
    count = (
        2 * len(GOLDEN) + 2 + len(AGREEMENT_SIZES) + len(CORPUS_SIZES)
        + len(BOUNDS) + len(Z_BOUNDS) + len(NORMAL_BOUNDS) + normal_tests
    )
    expected = f"{count} passed"
    assert child.stdout.splitlines()[-1].startswith(expected), child.stdout
