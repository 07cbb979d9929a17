import os

# The golden hashes were recorded at 1 BLAS thread, the count perfbench pins,
# so the tests check the bytes the benchmark produces. A BLAS product can sum
# in another order at another thread count (toy-sr's first Conv forward does
# at 2 threads). Pin the count before numpy loads, so the goldens do not depend
# on the host's core count. Subprocesses started by tests inherit the pin.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from hwnas.spaces import toy_classification_supernet  # noqa: E402


@pytest.fixture
def toy_supernet():
    return toy_classification_supernet()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
