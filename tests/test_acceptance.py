"""Acceptance gate: every criterion at its stated tolerance and budget."""

import numpy as np
import pytest
from scipy import special

from fracheat import acceptance
from fracheat import subordinator as sub

SEED = 20240801


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=lambda fn: fn.__name__.replace("criterion_", "")
)
def test_criterion(criterion):
    idx = acceptance.CRITERIA.index(criterion)
    result = criterion(np.random.SeedSequence([SEED, idx]))
    print(result.line())
    assert result.passed, result.detail


def test_seed_robustness_spot_checks():
    # a different seed must not flip the seeded criteria
    for fn in (
        acceptance.criterion_01_moment_identity,
        acceptance.criterion_05_robustness_trend,
        acceptance.criterion_06_coefficient_convention,
        acceptance.criterion_07_cross_pipeline,
        acceptance.criterion_08_trace_expansion,
        acceptance.criterion_09_exponent_exactness,
        acceptance.criterion_10_tail_bound,
        acceptance.criterion_11_relativistic_mixed,
    ):
        result = fn(np.random.SeedSequence([999, acceptance.CRITERIA.index(fn)]))
        assert result.passed, f"{result.name}: {result.detail}"


def test_corrupted_gamma_fails_loudly(monkeypatch):
    # x-dependent corruption of the gamma hook must break the moment criterion
    monkeypatch.setattr(sub, "_gamma", lambda x: special.gamma(x) * 1.05**x)
    result = acceptance.criterion_01_moment_identity(np.random.SeedSequence(SEED))
    assert not result.passed


def test_suite_filter_and_report():
    results = acceptance.acceptance_suite(seed=SEED, criteria=["12"], verbose=False)
    assert len(results) == 1
    assert results[0].passed
    assert "12" in results[0].name
