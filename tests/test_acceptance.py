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


STOCHASTIC = (
    acceptance.criterion_01_moment_identity,
    acceptance.criterion_05_robustness_trend,
    acceptance.criterion_06_coefficient_convention,
    acceptance.criterion_07_cross_pipeline,
    acceptance.criterion_10_tail_bound,
    acceptance.criterion_11_relativistic_mixed,
)


@pytest.mark.parametrize("seed", [999, 31337])
@pytest.mark.parametrize(
    "criterion", STOCHASTIC, ids=lambda fn: fn.__name__.replace("criterion_", "")
)
def test_stochastic_criterion_at_other_seed(criterion, seed):
    # two more seeds beside the main run, with the same gates; criteria 08
    # and 09 draw nothing from their seed, so test_criterion covers them
    result = criterion(np.random.SeedSequence([seed, acceptance.CRITERIA.index(criterion)]))
    assert result.passed, f"{result.name}: {result.detail}"


def test_corrupted_gamma_fails_loudly(monkeypatch):
    # x-dependent corruption of the gamma hook must break the moment criterion
    monkeypatch.setattr(sub, "_gamma", lambda x: special.gamma(x) * 1.05**x)
    result = acceptance.criterion_01_moment_identity(np.random.SeedSequence(SEED))
    assert not result.passed


def test_suite_replays_the_criterion_draws():
    # criterion i of the suite draws from SeedSequence([seed, i]), as
    # test_criterion does, so a suite run at SEED repeats those draws
    fn = acceptance.criterion_10_tail_bound
    (suite,) = acceptance.acceptance_suite(seed=SEED, criteria=["10"])
    direct = fn(np.random.SeedSequence([SEED, acceptance.CRITERIA.index(fn)]))
    assert (suite.passed, suite.detail, suite.checks) == (direct.passed, direct.detail,
                                                          direct.checks)


def test_suite_filter_and_report():
    results = acceptance.acceptance_suite(seed=SEED, criteria=["12"])
    assert len(results) == 1
    assert results[0].passed
    assert "12" in results[0].name


def test_criteria_are_listed_in_numeric_order():
    # declaring a criterion lists it; the suite seeds criterion i by its place
    names = [fn.__name__ for fn in acceptance.CRITERIA]
    assert [name[:13] for name in names] == [f"criterion_{i:02d}_" for i in range(1, 13)]
    assert all(getattr(acceptance, name) is fn for name, fn in zip(names, acceptance.CRITERIA))


def test_criterion_reports_its_failing_checks(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", [])

    @acceptance._criterion("99 example")
    def criterion_99_example(rng):
        return [(True, "a"), (False, "b"), (rng.uniform() < 2.0, "c"), (False, "d")], "three"

    result = criterion_99_example(np.random.SeedSequence(SEED))
    assert acceptance.CRITERIA == [criterion_99_example]
    assert criterion_99_example.__name__ == "criterion_99_example"
    assert (result.name, result.passed, result.detail, result.checks) == (
        "99 example", False, "three || b; d", ["a", "b", "c", "d"])
