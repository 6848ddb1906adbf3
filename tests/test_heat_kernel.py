import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from fracheat import heat_kernel as hk
from fracheat import subordinator as sub


def rng(seed=0):
    return np.random.default_rng(seed)


def test_surface_area():
    assert hk.sphere_surface_area(1) == pytest.approx(2.0)
    assert hk.sphere_surface_area(2) == pytest.approx(2.0 * math.pi)
    assert hk.sphere_surface_area(3) == pytest.approx(4.0 * math.pi)


def test_kernel_at_zero_closed_forms():
    assert hk.kernel_at_zero(1, 2.0) == pytest.approx((4 * math.pi) ** -0.5, rel=1e-12)
    assert hk.kernel_at_zero(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    # d = 2 Cauchy: Gamma((d+1)/2) / pi^{(d+1)/2} at x = 0, t = 1
    want = math.gamma(1.5) / math.pi**1.5
    assert hk.kernel_at_zero(2, 1.0) == pytest.approx(want, rel=1e-12)
    assert hk.kernel_at_zero(2, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        hk.kernel_at_zero(0, 1.0)
    with pytest.raises(ValueError):
        hk.kernel_at_zero(1, 2.5)


@pytest.mark.parametrize("d,alpha,arg", [(4, 0.02, "200"), (1, 0.0058, "172.414")])
def test_kernel_at_zero_refuses_a_gamma_overflow(d, alpha, arg):
    # Gamma(d/alpha) is beyond the float range above d/alpha ~ 171.6, where
    # p_1(0) read inf and C_{d,alpha} = pi^{d/2} / p_1(0) read 0; twice the
    # alpha is finite
    with pytest.raises(ValueError, match=f"Gamma argument {arg}, overflows"):
        hk.kernel_at_zero(d, alpha)
    assert math.isfinite(hk.kernel_at_zero(d, 2 * alpha)) and hk.kernel_at_zero(d, 2 * alpha) > 0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_moment_identity(d, alpha):
    lhs = (4.0 * math.pi) ** (d / 2.0) * hk.kernel_at_zero(d, alpha)
    rhs = sub.stable_moment(alpha, -d / 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_kernel_value_cauchy():
    assert hk.kernel_value(1, 1.0, 1.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-9)
    assert hk.kernel_value(1, 1.0, 2.0, 1.0) == pytest.approx(2.0 / (5.0 * math.pi), rel=1e-8)


@pytest.mark.parametrize("t", [0.05, 0.2, 1.0])
def test_kernel_value_cauchy_near_the_origin(t):
    # p_t(x) = t / (pi (t^2 + x^2)) at alpha = 1, on distances where the
    # cosine's first period is long against the range of exp(-t u)
    for x in (1e-4, 5e-4, 1e-3, 0.005, 0.01, 0.02):
        want = t / (math.pi * (t * t + x * x))
        assert hk.kernel_value(1, 1.0, t, x) == pytest.approx(want, rel=1e-9), x


@pytest.mark.parametrize("alpha", [1.5, 1.9])
def test_kernel_value_tends_to_the_value_at_zero(alpha):
    # p_t(0) - p_t(x) = O(x^2) for alpha > 1: a kernel near the origin lies
    # just below its maximum
    t = 0.3
    top = hk.kernel_at_zero(1, alpha) * t ** (-1.0 / alpha)
    for x in (1e-2, 1e-3, 5e-4, 1e-4):
        gap = 1.0 - hk.kernel_value(1, alpha, t, x) / top
        assert 0.0 <= gap <= 3.0 * x * x, x


def test_kernel_value_gaussian():
    want = (4.0 * math.pi) ** -0.5 * math.exp(-0.25)
    assert hk.kernel_value(1, 2.0, 1.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_kernel_value_d2_cauchy():
    # 2D Cauchy closed form: t Gamma(3/2) / (pi^{3/2} (t^2 + |x|^2)^{3/2})
    for t, x in ((0.5, 0.0), (0.5, 1.0), (0.8, (0.3, 0.4))):
        r2 = float(np.sum(np.square(x)))
        want = t * math.gamma(1.5) / (math.pi**1.5 * (t**2 + r2) ** 1.5)
        assert hk.kernel_value(2, 1.0, t, x) == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("d,alpha", [(1, 1.3), (2, 1.3), (1, 0.7)])
def test_kernel_scaling(d, alpha):
    for t in (0.3, 0.8):
        for r in (0.5, 1.5):
            x = np.zeros(d)
            x[0] = r
            lhs = hk.kernel_value(d, alpha, t, x)
            rhs = t ** (-d / alpha) * hk.kernel_value(d, alpha, 1.0, t ** (-1 / alpha) * x)
            assert lhs == pytest.approx(rhs, rel=1e-6)


def test_kernel_subordination_consistency():
    for t, x in ((0.5, 0.0), (0.5, 0.7), (0.9, 2.0)):
        direct = hk.kernel_value(1, 1.0, t, x)
        viasub = hk.kernel_value_subordination(1, t, x)
        assert direct == pytest.approx(viasub, rel=1e-6)


def test_kernel_is_subordinated_gaussian_general_alpha():
    # p_t^{(alpha)}(x) = E[(4 pi S_t)^{-d/2} exp(-|x|^2/(4 S_t))] checked by
    # Monte Carlo over exact subordinator samples at a non-special alpha
    alpha, t, x = 1.4, 0.5, 0.8
    n = 10**6
    s = sub.sample_stable(alpha, t, rng(7), size=n)
    w = (4.0 * math.pi * s) ** -0.5 * np.exp(-(x**2) / (4.0 * s))
    direct = hk.kernel_value(1, alpha, t, x)
    assert abs(w.mean() - direct) <= 4.0 * w.std(ddof=1) / math.sqrt(n)


def test_kernel_radial_monotone_and_dominated():
    xs = np.linspace(0.0, 4.0, 9)
    vals = [hk.kernel_value(1, 1.4, 0.6, x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    top = 0.6 ** (-1 / 1.4) * hk.kernel_at_zero(1, 1.4)
    assert all(v <= top * (1 + 1e-12) for v in vals)


def test_kernel_value_rejects():
    with pytest.raises(ValueError):
        hk.kernel_value(1, 1.0, -1.0, 0.0)


@pytest.mark.parametrize("d,alpha", [(2, 0.01), (2, 0.3), (3, 0.3)])
def test_kernel_value_refuses_more_subdivisions_than_quadpack_takes(d, alpha):
    # at alpha = 0.01 the truncation radius overflows a float; at alpha = 0.3
    # the subdivision hint exceeds QUADPACK's C int.  Both are refused before
    # any quadrature runs.
    with pytest.raises(ValueError, match="subdivisions"):
        hk.kernel_value(d, alpha, 0.01, 1.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_kernel_value_nonconvergence_still_named():
    # a hint QUADPACK takes, whose integral misses the error gate; QUADPACK's
    # roundoff warning on the way is part of that known failure
    # the whole message, so that no change of the integrand moves it unseen
    with pytest.raises(RuntimeError, match="^" + re.escape(
            "kernel quadrature did not converge: value=1.749e-05, err=1.8e-12, "
            "at-zero bound 1.575e+03") + "$"):
        hk.kernel_value(3, 0.8, 0.1, 5.0)


def test_kernel_value_refuses_a_value_above_the_origin(monkeypatch):
    # a quadrature that reports an exact value above p_t(0) does not pass
    monkeypatch.setattr(integrate, "quad", lambda *args, **kwargs: (1e6, 0.0))
    with pytest.raises(RuntimeError, match="did not converge"):
        hk.kernel_value(1, 1.5, 0.1, 0.5)


def _ufunc_kernel_quadrature(d, alpha, t, r):
    """kernel_value's d >= 2 quadrature with the scipy.special.jv ufunc integrand.

    Returns (value, error estimate) before kernel_value's convergence gate.
    """
    cut = hk._radius_cut(t, alpha)

    def f(u):
        return special.jv(d / 2.0 - 1.0, u * r) * u ** (d / 2.0) * math.exp(-t * u**alpha)

    val, err = integrate.quad(f, 0.0, cut, epsabs=1e-14, epsrel=hk._REL_TOL,
                              limit=200 + int(cut * r / math.pi))
    return (2.0 * math.pi) ** (-d / 2.0) * r ** (1.0 - d / 2.0) * val, err


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_kernel_value_bessel_integrand_matches_ufunc_reference():
    # the scalar Bessel call must give QUADPACK the ufunc's values bit for
    # bit, so every value and every refusal stays the same
    refused = []
    for point in itertools.product((2, 3), (0.8, 1.2, 1.5, 1.9), (0.1, 0.5),
                                   (0.5, 1.0, 2.0, 5.0)):
        want, err = _ufunc_kernel_quadrature(*point)
        try:
            got = hk.kernel_value(*point)
        except RuntimeError as e:
            assert f"value={want:.3e}, err={err:.1e}," in str(e), point
            refused.append(point)
        else:
            assert got == want, point
    assert refused == [(3, 0.8, 0.1, 5.0)]


# ---------------------------------------------------------------------------
# relativistic at-zero


def test_relativistic_kernel_small_mass():
    est = hk.relativistic_kernel_at_zero(1, 1.0, 1e-8, 0.5, 10**6, rng(1))
    want = hk.kernel_at_zero(1, 1.0) * 0.5**-1.0
    assert abs(est.value - want) <= 3.0 * est.stderr


def test_relativistic_kernel_limit_law():
    # t^{d/alpha} p_t^{(alpha,m)}(0) e^{-mt} -> p_1(0) as t -> 0
    d, alpha, m = 1, 1.0, 1.0
    p1 = hk.kernel_at_zero(d, alpha)
    gaps, last_se = [], 0.0
    for t in (1e-1, 1e-2, 1e-3):
        est = hk.relativistic_kernel_at_zero(d, alpha, m, t, 10**6, rng(2))
        val = t ** (d / alpha) * est.value * math.exp(-m * t)
        gaps.append(abs(val - p1))
        last_se = t ** (d / alpha) * est.stderr
    assert gaps[0] > gaps[-1]
    assert gaps[-1] <= 4.0 * last_se + 5e-3 * p1


def test_relativistic_kernel_lower_bound():
    # t^{d/alpha} p_t(0) >= (4 pi)^{-d/2} e^{-m} E[S_{1,m}^{-d/2}] for 0 < t < 1
    d, alpha, m = 1, 1.0, 1.0
    r = rng(3)
    s1m = sub.sample_relativistic(alpha, m, 1.0, r, size=10**6)
    w = s1m ** (-d / 2.0)
    bound = (4.0 * math.pi) ** (-d / 2.0) * math.exp(-m) * w.mean()
    bound_se = (4.0 * math.pi) ** (-d / 2.0) * math.exp(-m) * w.std(ddof=1) / 1000.0
    for t in (0.1, 0.5, 0.9):
        est = hk.relativistic_kernel_at_zero(d, alpha, m, t, 10**6, r)
        lhs = t ** (d / alpha) * est.value
        assert lhs >= bound - 4.0 * math.hypot(t ** (d / alpha) * est.stderr, bound_se)


def test_relativistic_kernel_rejects():
    with pytest.raises(ValueError):
        hk.relativistic_kernel_at_zero(1, 1.0, 1.0, 0.5, 50, rng())


# ---------------------------------------------------------------------------
# mixed at-zero


def test_mixed_kernel_small_a():
    est = hk.mixed_kernel_at_zero(1, 1.0, 1.5, 1e-10, 0.5, 10**6, rng(4))
    want = hk.kernel_at_zero(1, 1.0) * 0.5**-1.0
    assert abs(est.value - want) <= 3.0 * est.stderr


def test_mixed_kernel_lower_bound_ratio():
    # p_t^{(a)}(0) t^{d/beta} stays bounded below; it tends to p_1^{(beta)}(0)
    d, alpha, beta, a = 2, 0.8, 1.6, 1.0
    floor = 0.25 * hk.kernel_at_zero(d, beta)
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        est = hk.mixed_kernel_at_zero(d, alpha, beta, a, t, 5 * 10**5, rng(5))
        assert est.value * t ** (d / beta) >= floor


def test_mixed_kernel_comparability_band():
    # ratio to f_t^a(0) = min(t^{-d/alpha}, (a t)^{-d/beta}) stays in a fixed band
    d, alpha, beta, a = 2, 0.8, 1.6, 1.0
    ratios = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        est = hk.mixed_kernel_at_zero(d, alpha, beta, a, t, 5 * 10**5, rng(6))
        f = min(t ** (-d / alpha), (a * t) ** (-d / beta))
        ratios.append(est.value / f)
    assert max(ratios) / min(ratios) < 3.0
    assert min(ratios) > 0.0


# ---------------------------------------------------------------------------
# Monte Carlo at-zero estimates


def _radial_at_zero(d, t, phi):
    # (2 pi)^{-d} w_d int_0^inf r^{d-1} exp(-t phi(r^2)) dr, an independent route
    val, _ = integrate.quad(lambda r: r ** (d - 1) * math.exp(-t * phi(r * r)),
                            0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return (2.0 * math.pi) ** (-d) * hk.sphere_surface_area(d) * val


# the p_t(0) tasks of the benchmark: (estimator, exact value by radial quadrature)
AT_ZERO = {
    "relativistic d=1 alpha=1 m=1 t=0.5": (
        lambda n, r: hk.relativistic_kernel_at_zero(1, 1.0, 1.0, 0.5, n, r),
        lambda: _radial_at_zero(1, 0.5, lambda lam: (lam + 1.0) ** 0.5 - 1.0)),
    "mixed d=2 alpha=0.8 beta=1.6 a=1 t=0.1": (
        lambda n, r: hk.mixed_kernel_at_zero(2, 0.8, 1.6, 1.0, 0.1, n, r),
        lambda: _radial_at_zero(2, 0.1, lambda lam: lam**0.4 + lam**0.8)),
}


@pytest.mark.parametrize("name", list(AT_ZERO))
def test_at_zero_stderr_covers_radial_quadrature(name):
    # thresholds fixed before the first run: every |z| <= 4 over 20 seeds,
    # and at most 2 of 20 beyond 3
    estimate, exact = AT_ZERO[name]
    want = exact()
    ests = [estimate(1 << 16, rng(seed)) for seed in range(20)]
    z = np.array([(e.value - want) / e.stderr for e in ests])
    assert np.all(np.abs(z) <= 4.0), z
    assert np.sum(np.abs(z) > 3.0) <= 2, z
    assert all(e.n_samples == 1 << 16 and e.params["method"] == "mc" for e in ests)


def test_relativistic_sample_memory_is_bounded():
    # proposals come in capped batches: the peak stays near the output itself
    n = 1 << 22
    tracemalloc.start()
    try:
        sub.sample_relativistic(1.0, 1.0, 0.5, rng(2), size=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n


@pytest.mark.parametrize("estimate", [
    lambda n: hk.relativistic_kernel_at_zero(1, 1.0, 1.0, 0.5, n, rng(5)),
    lambda n: hk.mixed_kernel_at_zero(1, 0.8, 1.6, 1.0, 0.5, n, rng(5)),
], ids=["relativistic", "mixed"])
def test_at_zero_memory_is_three_arrays(estimate):
    # the draws overwrite their uniforms and the integrands are formed in
    # place: about three arrays of n floats at the peak (four before)
    n = 1 << 20
    tracemalloc.start()
    try:
        estimate(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 * 2**20
