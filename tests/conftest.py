import os

# The golden hashes were recorded at 1 BLAS thread, the count perfbench pins,
# so the tests check the bytes the benchmark produces. A BLAS product can sum
# in another order at another thread count (toy-sr's first Conv forward does
# at 2 threads). Pin the count before numpy loads, so the goldens do not depend
# on the host's core count. Subprocesses started by tests inherit the pin.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import glob  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from numpy._core._multiarray_umath import (  # noqa: E402
    __cpu_baseline__, __cpu_dispatch__, __cpu_features__)

from hwnas.spaces import toy_classification_supernet  # noqa: E402


def _openblas_core():
    """The kernel set numpy's bundled OpenBLAS picked for this CPU, or why it
    cannot be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas64_*"))
    if not libs:
        return "unknown (no bundled libscipy_openblas64_)"
    # the library numpy has loaded already, so the core it runs on
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    """The platform the bytes of the golden and kernel tests depend on: the
    goldens were recorded with OpenBLAS's SkylakeX kernels and numpy's
    X86_V4 loops, at 1 BLAS thread."""
    simd = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return [f"OpenBLAS core: {_openblas_core()}, "
            f"threads: {os.environ['OPENBLAS_NUM_THREADS']}",
            f"numpy {np.__version__} SIMD: baseline {' '.join(__cpu_baseline__)}; "
            f"dispatched {simd or 'none'}"]


def pytest_terminal_summary(terminalreporter, config):
    # -q, as the tier-1 command runs, hides the header: name the platform here
    if config.get_verbosity() < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


@pytest.fixture
def toy_supernet():
    return toy_classification_supernet()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
