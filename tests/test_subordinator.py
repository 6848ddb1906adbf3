import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from fracheat import coefficients as coeff
from fracheat import heat_kernel as hk
from fracheat import subordinator as sub
from fracheat import trace_oracle as oracle
from fracheat.potential import GaussianPotential


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# stable sampler


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.9, 0.975])
def test_kanter_log_matches_sine_reference(rho):
    # the half-angle form of log sin against np.sin, over (0, pi) including
    # points within 1e-12 of both ends; the smallest end is the smallest
    # nonzero uniform rng.uniform(0, pi) can return
    ends = np.array([np.pi * 2.0**-53, 1e-15, 1e-12, 1e-9, 1e-6])
    u = np.concatenate([ends, rng(1).uniform(0.0, np.pi, 20000),
                        np.pi - ends[2:], [np.nextafter(np.pi, 0.0)]])
    e = rng(2).standard_exponential(u.size)
    ref_a = (
        (rho / (1.0 - rho)) * np.log(np.sin(rho * u))
        + np.log(np.sin((1.0 - rho) * u))
        - np.log(np.sin(u)) / (1.0 - rho)
    )
    ref = ((1.0 - rho) / rho) * (ref_a - np.log(e))
    got = sub._kanter_log(rho, u, e)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(np.exp(got), np.exp(ref), rtol=1e-13, atol=0.0)


def test_kanter_blocks_match_one_shot():
    # the blocked transform equals the transform of the whole batch, also
    # with a partial last block and for a 2-D batch
    n = 2 * sub._BLOCK + 123
    u = rng(3).uniform(0.0, np.pi, (n, 3))
    e = rng(4).standard_exponential((n, 3))
    whole = np.exp(sub._kanter_log(0.9, u, e))
    assert np.array_equal(sub._kanter_unit(0.9, u, e, np.empty(u.shape)), whole)
    # column-major columns, as a scrambled Sobol block holds them, block by
    # rows alike
    f_u, f_e = np.asfortranarray(u), np.asfortranarray(e)
    assert np.array_equal(sub._kanter_unit(0.9, f_u, f_e, np.empty(u.shape)), whole)
    # and into its own uniforms
    assert np.array_equal(sub._kanter_unit(0.9, f_u, f_e, f_u), whole)


def test_alpha2_is_deterministic():
    assert sub.sample_stable(2.0, 0.7, rng(), size=1).tolist() == [0.7]
    assert np.all(sub.sample_stable(2.0, 0.7, rng(), size=5) == 0.7)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sub.sample_stable(2.5, 1.0, rng(), size=1)
    with pytest.raises(ValueError):
        sub.sample_stable(0.0, 1.0, rng(), size=1)
    with pytest.raises(ValueError):
        sub.sample_stable(1.0, -1.0, rng(), size=1)


def test_levy_half_density_ks():
    # alpha = 1: S_1 has the closed-form density (2 sqrt(pi))^-1 s^-3/2 e^{-1/(4s)},
    # CDF erfc(1/(2 sqrt(s)))
    s = sub.sample_stable(1.0, 1.0, rng(1), size=10**6)
    ks = stats.kstest(s, lambda x: special.erfc(1.0 / (2.0 * np.sqrt(x))))
    assert ks.statistic < 0.005


def test_laplace_transform_example():
    # alpha = 1.5, lam = 2: E e^{-2 S_1} = exp(-2^{0.75}) ~ 0.1862
    s = sub.sample_stable(1.5, 1.0, rng(2), size=10**6)
    x = np.exp(-2.0 * s)
    z = (x.mean() - math.exp(-(2.0**0.75))) / (x.std(ddof=1) / 1000.0)
    assert abs(z) < 3.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
def test_laplace_law_stable(alpha):
    n = 10**6
    t = 0.7
    s = sub.sample_stable(alpha, t, rng(3), size=n)
    for lam in (0.5, 1.0, 2.0, 5.0):
        x = np.exp(-lam * s)
        want = math.exp(-t * lam ** (alpha / 2.0))
        assert abs(x.mean() - want) <= 4.0 * x.std(ddof=1) / math.sqrt(n)


def test_self_similarity_two_sample_ks():
    n = 10**5
    alpha, t = 1.5, 0.3
    a = sub.sample_stable(alpha, t, rng(4), size=n)
    b = t ** (2.0 / alpha) * sub.sample_stable(alpha, 1.0, rng(5), size=n)
    assert stats.ks_2samp(a, b).pvalue > 1e-3


def test_seed_reproducibility():
    a = sub.sample_stable(1.3, 1.0, rng(42), size=10)
    b = sub.sample_stable(1.3, 1.0, rng(42), size=10)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# moments


def test_moment_closed_forms():
    # Gamma(2)/Gamma(3/2) = 2/sqrt(pi)
    assert sub.stable_moment(1.0, -0.5) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
    assert sub.stable_moment(1.7, 0.0) == 1.0
    with pytest.raises(ValueError):
        sub.stable_moment(1.0, 0.5)


def test_moment_matches_kernel_identity():
    # (4 pi)^{1/2} p_1^{(1)}(0) with p_1^{(1)}(0) = 1/pi equals E[S^{-1/2}]
    lhs = math.sqrt(4.0 * math.pi) / math.pi
    assert sub.stable_moment(1.0, -0.5) == pytest.approx(lhs, rel=1e-12)


def test_moment_divergence_toward_alpha_half():
    vals = [sub.stable_moment(1.0, 0.5 - 10.0**-k) for k in (1, 3, 5, 7)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1e6


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
def test_moment_law(alpha):
    n = 10**6
    s = sub.sample_stable(alpha, 1.0, rng(6), size=n)
    for eta in (-1.5, -1.0, -0.5, 0.2 * alpha):
        x = s**eta
        want = sub.stable_moment(alpha, eta)
        assert abs(x.mean() - want) <= 4.0 * x.std(ddof=1) / math.sqrt(n)


def test_gamma_fault_injection_hook(monkeypatch):
    # corrupting the gamma hook must corrupt the moment oracle visibly
    # (x-dependent fault: a constant factor would cancel in the gamma ratio)
    clean = sub.stable_moment(1.0, -0.5)
    monkeypatch.setattr(sub, "_gamma", lambda x: special.gamma(x) * 1.05**x)
    assert abs(sub.stable_moment(1.0, -0.5) - clean) > 0.01 * clean


# ---------------------------------------------------------------------------
# increments


def increments(alpha, lam, r):
    # increments_batch with Kanter's inputs drawn from r as sample_increments draws them
    shape = lam.shape if alpha < 2.0 else (lam.shape[0], 0)
    return sub.increments_batch(alpha, lam, r.uniform(0.0, np.pi, shape),
                                r.standard_exponential(shape))


def test_increments_deterministic_case():
    head, incs, total = sub.sample_increments(2.0, [0.6, 0.2], rng())
    assert head == pytest.approx(0.6, abs=1e-15)
    assert incs == pytest.approx([0.4], abs=1e-15)
    assert total == pytest.approx(1.0, abs=1e-15)
    assert total == head + np.sum(incs)


def test_increments_partition_identity_bit_exact():
    for seed in range(20):
        lam = np.sort(rng(seed).uniform(0.01, 0.99, 4))[::-1]
        head, incs, total = sub.sample_increments(1.2, lam, rng(seed + 100))
        assert incs.shape == (3,)
        assert total == head + np.sum(incs)
        assert head > 0 and np.all(incs > 0)


@pytest.mark.parametrize("j", [2, 3, 4, 5, 6])
def test_increments_column_arithmetic_matches_reductions(j):
    # gaps and totals by column arithmetic equal the np.diff and .sum(axis=1)
    # expressions they replaced, bit for bit
    lam = np.sort(rng(j).uniform(0.001, 0.999, (5000, j)), axis=1)[:, ::-1]
    heads, incs, totals = increments(2.0, lam, rng())
    assert np.array_equal(incs, -np.diff(lam, axis=1))
    assert np.array_equal(totals, heads + incs.sum(axis=1))
    heads, incs, totals = increments(1.3, lam, rng(j + 10))
    assert np.array_equal(totals, heads + incs.sum(axis=1))


def test_increments_rejects_bad_lambda():
    with pytest.raises(ValueError):
        sub.sample_increments(1.0, [0.2, 0.6], rng())
    with pytest.raises(ValueError):
        sub.sample_increments(1.0, [1.2, 0.6], rng())
    with pytest.raises(ValueError):
        sub.sample_increments(1.0, [0.5], rng())


def test_increments_total_is_S1():
    # total =d= S_1, so E[total^{-1/2}] = 2/sqrt(pi) at alpha = 1
    n = 10**6
    lam = np.tile([0.6, 0.2], (n, 1))
    _, _, totals = increments(1.0, lam, rng(7))
    x = totals**-0.5
    want = 2.0 / math.sqrt(math.pi)
    assert abs(x.mean() - want) <= 3.0 * x.std(ddof=1) / math.sqrt(n)


def test_increment_marginal_law():
    # increments[0] =d= S_{0.2} at lam = (0.7, 0.5, 0.1): E e^{-S_{0.2}} = e^{-0.2}
    n = 10**6
    lam = np.tile([0.7, 0.5, 0.1], (n, 1))
    _, incs, _ = increments(1.0, lam, rng(8))
    x = np.exp(-incs[:, 0])
    assert abs(x.mean() - math.exp(-0.2)) <= 3.0 * x.std(ddof=1) / math.sqrt(n)


# ---------------------------------------------------------------------------
# tail bounds


def test_tail_bound_constants():
    v, p = sub.tail_lower_bound(1.0)
    assert v == pytest.approx(0.25, abs=1e-15)
    assert p == pytest.approx((1.0 - math.exp(-0.25)) / 2.0, rel=1e-12)
    assert p == pytest.approx(0.11060, abs=5e-6)
    assert sub.N1_CLOSED_FORM == pytest.approx(1.786, abs=5e-4)
    with pytest.raises(ValueError):
        sub.tail_lower_bound(2.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_chebyshev_upper_tail(alpha):
    # proof-side bound P(S_1 <= 1) <= e^{-v_alpha}
    v, _ = sub.tail_lower_bound(alpha)
    n = 10**6
    s = sub.sample_stable(alpha, 1.0, rng(9), size=n)
    freq = np.mean(s <= 1.0)
    assert freq <= math.exp(-v) + 4.0 * math.sqrt(freq * (1 - freq) / n)


def test_tail_interval_probability_alpha1():
    n = 10**6
    s = sub.sample_stable(1.0, 1.0, rng(10), size=n)
    freq = np.mean((s > 1.0) & (s < 1.786))
    assert freq >= sub.tail_lower_bound(1.0)[1]


# ---------------------------------------------------------------------------
# relativistic


def test_relativistic_small_mass_matches_stable():
    n = 10**6
    a = sub.sample_relativistic(1.0, 1e-8, 1.0, rng(11), size=n)
    b = sub.sample_stable(1.0, 1.0, rng(12), size=n)
    assert stats.ks_2samp(a, b).statistic < 0.005


def test_relativistic_laplace_law():
    # E e^{-S_{t,m}} = exp(-t ((1 + 1)^{1/2} - 1)) ~ 0.8129 at alpha=1, m=1, t=0.5
    n = 10**6
    s = sub.sample_relativistic(1.0, 1.0, 0.5, rng(13), size=n)
    x = np.exp(-s)
    want = math.exp(-0.5 * (math.sqrt(2.0) - 1.0))
    assert want == pytest.approx(0.8129, abs=5e-5)
    assert abs(x.mean() - want) <= 3.0 * x.std(ddof=1) / math.sqrt(n)


def test_relativistic_laplace_law_pooled_over_seeds():
    # the benchmark's relativistic draw (alpha=1, m=1, t=0.5) at 64 seeds:
    # each seed's z of the Laplace law should be a standard normal, so the
    # pooled mean lies within 4 sd of 0 (sd 1/8), the spread within about
    # 4 sd of 1 (sd ~0.09) and no single |z| far in the tail
    n, seeds = 1 << 16, 64
    draws = [sub.sample_relativistic(1.0, 1.0, 0.5, rng(seed), size=n) for seed in range(seeds)]
    for lam in (0.5, 1.0):
        want = math.exp(-0.5 * (math.sqrt(1.0 + lam) - 1.0))
        x = np.exp(-lam * np.stack(draws))
        z = (x.mean(axis=1) - want) / (x.std(axis=1, ddof=1) / math.sqrt(n))
        assert abs(z.mean()) <= 0.5
        assert 0.65 <= z.std(ddof=1) <= 1.35
        assert np.abs(z).max() <= 4.5


# Laplace laws away from m = 1 and a = 1, where a wrong tilt m^{1/alpha} or
# a wrong weight a^{1/beta} shows (|z| >= 162 at lam = 1); thresholds fixed
# before the first run: |z| <= 4 at 10^6 draws, at every lam and seed
@pytest.mark.parametrize("alpha,m,t", [(1.5, 2.0, 0.5), (1.0, 3.0, 0.2)])
@pytest.mark.parametrize("seed", [41, 42])
def test_relativistic_laplace_law_off_unit_mass(alpha, m, t, seed):
    spec = sub.SubordinatorSpec.relativistic(alpha, m)
    s = sub.sample_relativistic(alpha, m, t, rng(seed), size=10**6)
    for lam in (0.5, 1.0, 2.0):
        x = np.exp(-lam * s)
        want = math.exp(-t * float(spec.laplace_exponent(lam)))
        z = (x.mean() - want) / (x.std(ddof=1) / math.sqrt(s.size))
        assert abs(z) <= 4.0, (lam, z)


@pytest.mark.parametrize("alpha,beta,a", [(0.8, 1.6, 0.5), (1.2, 1.8, 3.0)])
@pytest.mark.parametrize("seed", [43, 44])
def test_mixed_laplace_law_off_unit_weight(alpha, beta, a, seed):
    spec = sub.SubordinatorSpec.mixed(alpha, beta, a)
    s = sub.sample_mixed(alpha, beta, a, 1.0, rng(seed), size=10**6)
    for lam in (0.5, 1.0, 2.0):
        x = np.exp(-lam * s)
        want = math.exp(-float(spec.laplace_exponent(lam)))
        z = (x.mean() - want) / (x.std(ddof=1) / math.sqrt(s.size))
        assert abs(z) <= 4.0, (lam, z)


def test_relativistic_acceptance_rate():
    n = 4 * 10**5
    _, proposals, accepted = sub.sample_relativistic(
        1.0, 1.0, 0.5, rng(14), size=n, return_stats=True
    )
    want = math.exp(-0.5)
    sigma = math.sqrt(want * (1 - want) / proposals)
    assert abs(accepted / proposals - want) <= 4.0 * sigma


def test_relativistic_rate_floor():
    with pytest.raises(RuntimeError):
        sub.sample_relativistic(1.0, 100.0, 1.0, rng(), size=10)
    with pytest.raises(ValueError):
        sub.sample_relativistic(1.0, -1.0, 1.0, rng(), size=1)


# ---------------------------------------------------------------------------
# mixed


def test_mixed_small_a_matches_stable():
    n = 10**6
    a = sub.sample_mixed(0.8, 1.6, 1e-8, 1.0, rng(15), size=n)
    b = sub.sample_stable(0.8, 1.0, rng(16), size=n)
    assert stats.ks_2samp(a, b).statistic < 0.005


def test_mixed_laplace_law():
    # phi_a(1) = 1 + 1 = 2 at alpha=0.8, beta=1.6, a=1
    n = 10**6
    s = sub.sample_mixed(0.8, 1.6, 1.0, 1.0, rng(17), size=n)
    x = np.exp(-s)
    assert abs(x.mean() - math.exp(-2.0)) <= 3.0 * x.std(ddof=1) / math.sqrt(n)


def test_mixed_moment_bound():
    # E[S_{1,a}^{-1/4}] <= 2 (1 + a^{2/beta})^{-1/4} max(E S_alpha^{-1/4}, E S_beta^{-1/4})
    alpha, beta, a = 0.8, 1.6, 1.0
    n = 10**6
    s = sub.sample_mixed(alpha, beta, a, 1.0, rng(18), size=n)
    x = s**-0.25
    bound = (
        2.0
        * (1.0 + a ** (2.0 / beta)) ** -0.25
        * max(sub.stable_moment(alpha, -0.25), sub.stable_moment(beta, -0.25))
    )
    assert x.mean() <= bound + 4.0 * x.std(ddof=1) / math.sqrt(n)


def test_mixed_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sub.sample_mixed(1.6, 0.8, 1.0, 1.0, rng(), size=1)
    with pytest.raises(ValueError):
        sub.sample_mixed(0.8, 1.6, -1.0, 1.0, rng(), size=1)


# ---------------------------------------------------------------------------
# density and spec helpers


def test_density_half_values():
    want = math.exp(-0.25) / (2.0 * math.sqrt(math.pi))
    assert sub.density_half(1.0, 1.0) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.21970, abs=5e-6)
    assert sub.density_half(1.0, 1e-8) < 1e-300 or sub.density_half(1.0, 1e-8) == 0.0


def test_density_half_normalization():
    val, _ = integrate.quad(lambda s: sub.density_half(1.0, s), 0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_subordinator_spec_families():
    st = sub.SubordinatorSpec.stable(1.2)
    rel = sub.SubordinatorSpec.relativistic(1.0, 2.0)
    mix = sub.SubordinatorSpec.mixed(0.8, 1.6, 0.5)
    for spec in (st, rel, mix):
        assert spec.laplace_exponent(0.0) == pytest.approx(0.0, abs=1e-14)
        lams = np.array([0.1, 1.0, 5.0, 20.0])
        vals = spec.laplace_exponent(lams)
        assert np.all(np.diff(vals) > 0)
    assert st.laplace_exponent(4.0) == pytest.approx(4.0**0.6)
    assert rel.laplace_exponent(1.0) == pytest.approx(math.sqrt(1.0 + 4.0) - 2.0)
    assert mix.laplace_exponent(1.0) == pytest.approx(1.5)
    s = mix.sample(0.5, rng(19), size=100)
    assert np.all(s > 0)


# refusals no other test covers; each rule has one owner, reached from every caller
REFUSALS = {
    "spec-stable-alpha": (lambda: sub.SubordinatorSpec("stable", 5.0), "alpha"),
    "spec-relativistic-alpha2": (lambda: sub.SubordinatorSpec("relativistic", 2.0, m=1.0),
                                  "alpha"),
    "spec-relativistic-m": (lambda: sub.SubordinatorSpec("relativistic", 1.0), "needs m"),
    "spec-mixed-beta": (lambda: sub.SubordinatorSpec("mixed", 1.6, beta=0.8, a=1.0), "beta"),
    "spec-mixed-a": (lambda: sub.SubordinatorSpec("mixed", 0.8, beta=1.6), "needs a"),
    "spec-mixed-beta-a": (lambda: sub.SubordinatorSpec("mixed", 0.8), "needs beta, a"),
    "spec-unknown-family": (lambda: sub.SubordinatorSpec("lorentz", 1.0), "unknown family"),
    "spec-stable-unused": (lambda: sub.SubordinatorSpec("stable", 1.5, m=3.0, a=2.0),
                           "does not use m, a"),
    "spec-relativistic-unused": (
        lambda: sub.SubordinatorSpec("relativistic", 1.0, m=1.0, beta=0.5), "does not use beta"),
    "spec-mixed-unused": (lambda: sub.SubordinatorSpec("mixed", 0.8, m=1.0, beta=1.6, a=1.0),
                          "does not use m"),
    # a given parameter is refused at any value, 0.0 included
    "spec-stable-m-zero": (lambda: sub.SubordinatorSpec("stable", 1.5, m=0.0), "does not use m"),
    "spec-relativistic-a-zero": (
        lambda: sub.SubordinatorSpec("relativistic", 1.0, m=1.0, a=0.0), "does not use a"),
    "spec-mixed-m-zero": (lambda: sub.SubordinatorSpec("mixed", 0.8, m=0.0, beta=1.6, a=1.0),
                          "does not use m"),
    "relativistic-kernel-m-zero": (
        lambda: hk.relativistic_kernel_at_zero(1, 1.0, 0.0, 0.5, 1000, rng()), "mass m"),
    "relativistic-kernel-m-negative": (
        lambda: hk.relativistic_kernel_at_zero(1, 1.0, -1.0, 0.5, 1000, rng()), "mass m"),
    "mixed-kernel-beta-equal": (
        lambda: hk.mixed_kernel_at_zero(1, 1.2, 1.2, 1.0, 0.5, 1000, rng()), "beta"),
    "mixed-kernel-beta-below": (
        lambda: hk.mixed_kernel_at_zero(1, 1.6, 0.8, 1.0, 0.5, 1000, rng()), "beta"),
    "oracle-dimension": (
        lambda: oracle._spectrum(oracle.SpectralGrid(1, 10.0, 32), 1.0,
                                 GaussianPotential(1.0, 1.0, center=(0.0, 0.0))), "dimension"),
    "hamiltonian-dimension": (
        lambda: oracle.build_hamiltonian(oracle.SpectralGrid(2, 10.0, 16), 1.0,
                                         GaussianPotential(1.0, 1.0)), "dimension"),
    "K2-d1-alpha1.4": (lambda: coeff.deterministic_constant_K("K2", 1, 1.4), "violated"),
}


@pytest.mark.parametrize("call,match", REFUSALS.values(), ids=REFUSALS.keys())
def test_parameter_rules_refuse(call, match):
    with pytest.raises(ValueError, match=match):
        call()
