import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special
from scipy.stats import qmc

from fracheat import sobol


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("dim", [*range(1, 33), 33, 64, 1111])
def test_unscrambled_points_equal_scipy(dim):
    n = 1 << 8 if dim > 64 else 1 << 10
    want = qmc.Sobol(dim, scramble=False, bits=52).random(n)
    got = sobol._gray_points(sobol._direction_numbers(dim), 0, n, 0)
    assert np.array_equal(got.T, (want * 2.0**52).astype(np.uint64))


def test_rows_are_built_once_and_kept():
    # a wider net extends the rows a narrower one built, and the import of
    # the driver builds none (run where no net has been built yet)
    code = ("from fracheat import cli, sobol\n"
            "print(len(sobol._V), end=' ')\n"
            "v = sobol._direction_numbers(3).copy()\n"
            "print(len(sobol._V), end=' ')\n"
            "print(len(sobol._direction_numbers(40)), len(sobol._V), end=' ')\n"
            "print(bool((sobol._direction_numbers(3) == v).all()))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["0", "3", "40", "40", "True"]


def test_blocks_equal_the_whole_and_must_be_aligned():
    v = sobol._direction_numbers(5)
    whole = sobol._gray_points(v, 0, 3 << 10, 0)
    blocks = [sobol._gray_points(v, start, 1 << 10, 0) for start in (0, 1 << 10, 2 << 10)]
    assert np.array_equal(np.concatenate(blocks, axis=1), whole)
    with pytest.raises(ValueError):
        sobol._gray_points(v, 1 << 9, 1 << 10, 0)


def test_scrambled_net_is_stratified_and_inside_unit_interval():
    n = 1 << 12
    u = sobol.ScrambledSobol(64, n, rng(1)).stream(0, n)
    for column in u:
        assert np.array_equal(np.sort(np.floor(column * n)), np.arange(n))
        # every point at the same offset in its interval: a shifted grid
        assert np.unique(column * n % 1.0).size == 1
    assert u.min() > 0.0 and u.max() < 1.0
    # every value is (k + 1/2) 2^-52 for an integer k below 2^52
    k = np.round(u * 2.0**52 - 0.5)
    assert np.array_equal((k + 0.5) * 2.0**-52, u)
    assert k.min() >= 0 and k.max() < 2.0**52


def test_scramble_values_of_a_smooth_integrand_are_not_heavy_tailed():
    # the mean of theta^2 e^(-theta^2/2), theta standard normal, over 256
    # scrambles of 4096 points: kurtosis 2.1 to 2.8 at seeds 0-5, and 27 to
    # 120 with all 52 digits under the matrix scramble
    r = rng(4)
    vals = []
    for _ in range(256):
        x = special.ndtri(sobol.ScrambledSobol(1, 1 << 12, r).stream(0, 1 << 12)[0])
        vals.append(np.mean(x * x * np.exp(-x * x / 2)))
    z = (np.array(vals) - np.mean(vals)) / np.std(vals)
    assert np.mean(z**4) < 5.0


def test_scrambles_differ_and_repeat_by_seed():
    a = sobol.ScrambledSobol(3, 100, rng(7)).stream(0, 100)
    b = sobol.ScrambledSobol(3, 100, rng(7)).stream(0, 100)
    c = sobol.ScrambledSobol(3, 100, rng(8)).stream(0, 100)
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_dimension_limit_named():
    # the rows of scipy's Joe-Kuo table
    with pytest.raises(ValueError, match="21201"):
        sobol.ScrambledSobol(21202, 16, rng())
    with pytest.raises(ValueError):
        sobol.ScrambledSobol(0, 16, rng())
