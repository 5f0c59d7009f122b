import numpy as np
import pytest

from mrdd import gen_appendix_d


@pytest.fixture(scope="session")
def appendix_d_small():
    """Shared (0.1, 0.05) sample, n=50k, for cheap estimation tests."""
    return gen_appendix_d(0.1, 0.05, 50_000, 0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240809)
