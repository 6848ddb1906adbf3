import numpy as np
import pytest
from scipy.stats import qmc

from fracheat import sobol


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("dim", range(1, sobol.MAX_DIM + 1))
def test_unscrambled_points_equal_scipy(dim):
    want = qmc.Sobol(dim, scramble=False, bits=52).random(1 << 10)
    got = sobol._gray_points(sobol._V[:dim], 0, 1 << 10, 0)
    assert np.array_equal(got.T, (want * 2.0**52).astype(np.uint64))


def test_blocks_equal_the_whole_and_must_be_aligned():
    v = sobol._V[:5]
    whole = sobol._gray_points(v, 0, 3 << 10, 0)
    blocks = [sobol._gray_points(v, start, 1 << 10, 0) for start in (0, 1 << 10, 2 << 10)]
    assert np.array_equal(np.concatenate(blocks, axis=1), whole)
    with pytest.raises(ValueError):
        sobol._gray_points(v, 1 << 9, 1 << 10, 0)


def test_scrambled_net_is_stratified_and_inside_unit_interval():
    n = 1 << 12
    u = sobol.ScrambledSobol(sobol.MAX_DIM, n, rng(1)).stream(0, n)
    for column in u:
        assert np.array_equal(np.sort(np.floor(column * n)), np.arange(n))
    assert u.min() > 0.0 and u.max() < 1.0
    # every value is (k + 1/2) 2^-52 for an integer k below 2^52
    k = np.round(u * 2.0**52 - 0.5)
    assert np.array_equal((k + 0.5) * 2.0**-52, u)
    assert k.min() >= 0 and k.max() < 2.0**52


def test_scrambles_differ_and_repeat_by_seed():
    a = sobol.ScrambledSobol(3, 100, rng(7)).stream(0, 100)
    b = sobol.ScrambledSobol(3, 100, rng(7)).stream(0, 100)
    c = sobol.ScrambledSobol(3, 100, rng(8)).stream(0, 100)
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_dimension_limit_named():
    with pytest.raises(ValueError, match="32"):
        sobol.ScrambledSobol(sobol.MAX_DIM + 1, 16, rng())
    with pytest.raises(ValueError):
        sobol.ScrambledSobol(0, 16, rng())
