import math

import numpy as np
import pytest
from scipy import integrate

from fracheat.potential import GaussianMixturePotential, GaussianPotential


def test_integral_power_unit_gaussian():
    v = GaussianPotential(1.0, 1.0)
    assert v.integral_power(1) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert v.integral_power(2) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
    assert v.fourier(0.0) == pytest.approx(v.integral_power(1), rel=1e-12)


def test_closed_form_energies_unit_gaussian():
    v = GaussianPotential(1.0, 1.0)
    assert v.dirichlet_energy() == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
    # brute-force oracles, written out directly
    bi, _ = integrate.quad(lambda x: (4 * x**2 - 2) ** 2 * math.exp(-2 * x**2), -20, 20)
    assert v.biharmonic_energy() == pytest.approx(bi, rel=1e-10)
    assert v.biharmonic_energy() == pytest.approx(3.0 * math.sqrt(math.pi / 2.0), rel=1e-12)
    wg, _ = integrate.quad(lambda x: 4 * x**2 * math.exp(-3 * x**2), -20, 20)
    assert v.weighted_gradient() == pytest.approx(wg, rel=1e-10)
    assert v.weighted_gradient() == pytest.approx((2.0 / 3.0) * math.sqrt(math.pi / 3.0), rel=1e-12)


def test_quadratic_scaling_in_amplitude():
    v1 = GaussianPotential(1.0, 1.3)
    v2 = GaussianPotential(2.0, 1.3)
    assert v2.dirichlet_energy() == pytest.approx(4.0 * v1.dirichlet_energy(), rel=1e-12)


def test_zero_potential():
    v = GaussianPotential(0.0, 1.0)
    assert v.biharmonic_energy() == 0.0
    assert v.weighted_gradient() == 0.0


def test_plancherel_cross_check():
    # (2 pi)^-d int |xi|^2 |Vhat|^2 equals int |grad V|^2
    v = GaussianPotential(1.3, 0.8)
    val, _ = integrate.quad(
        lambda xi: xi**2 * abs(v.fourier(xi)) ** 2, -np.inf, np.inf, limit=200
    )
    assert val / (2.0 * math.pi) == pytest.approx(v.dirichlet_energy(), rel=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_analytic_vs_brute_force_randomized(seed):
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(-2.0, 2.0)) or 1.0
    s = float(rng.uniform(0.5, 2.5))
    v = GaussianPotential(c, s)
    f = lambda x: c * math.exp(-(x**2) / s**2)
    lim = 12.0 * s
    num1, _ = integrate.quad(f, -lim, lim, epsabs=1e-13)
    assert v.integral_power(1) == pytest.approx(num1, rel=1e-8)
    num3, _ = integrate.quad(lambda x: f(x) ** 3, -lim, lim, epsabs=1e-13)
    assert v.integral_power(3) == pytest.approx(num3, rel=1e-8)
    der = lambda x: -2.0 * x / s**2 * f(x)
    numd, _ = integrate.quad(lambda x: der(x) ** 2, -lim, lim, epsabs=1e-13)
    assert v.dirichlet_energy() == pytest.approx(numd, rel=1e-8)
    numw, _ = integrate.quad(lambda x: f(x) * der(x) ** 2, -lim, lim, epsabs=1e-13)
    assert v.weighted_gradient() == pytest.approx(numw, rel=1e-8)


def test_d2_gaussian_closed_forms():
    v = GaussianPotential(1.5, 0.9, center=(0.0, 0.0))
    assert v.d == 2
    assert v.integral_power(2) == pytest.approx(1.5**2 * (0.9**2 * math.pi / 2.0), rel=1e-12)
    num, _ = integrate.dblquad(
        lambda y, x: (v.gradient((x, y)) ** 2).sum(),
        -9, 9, lambda x: -9, lambda x: 9, epsabs=1e-10,
    )
    assert v.dirichlet_energy() == pytest.approx(num, rel=1e-7)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_single_gaussian_closed_forms(d):
    # the single-Gaussian formulas, kept here as the reference for the
    # k-tuple route the class computes every functional by
    c, s = -1.3, 0.8
    for center in (np.zeros(d), np.linspace(0.7, -0.4, d)):
        v = GaussianPotential(c, s, center=center)
        for k in (1, 2, 3):
            want = c**k * (s * math.sqrt(math.pi / k)) ** d
            assert v.integral_power(k) == pytest.approx(want, rel=1e-13)
        half = (math.pi / 2.0) ** (d / 2.0)
        assert v.dirichlet_energy() == pytest.approx(c**2 * d * half * s ** (d - 2), rel=1e-13)
        want = c**2 * d * (d + 2) * half * s ** (d - 4)
        assert v.biharmonic_energy() == pytest.approx(want, rel=1e-13)
        want = (2.0 / 3.0) * c**3 * d * (math.pi / 3.0) ** (d / 2.0) * s ** (d - 2)
        assert v.weighted_gradient() == pytest.approx(want, rel=1e-13)


def test_shifted_gaussian_fourier():
    v = GaussianPotential(1.0, 1.0, center=0.7)
    z = v.fourier(2.0)
    want = math.sqrt(math.pi) * math.exp(-1.0) * np.exp(-1j * 0.7 * 2.0)
    assert z == pytest.approx(want, rel=1e-12)
    # real V: Vhat(-xi) = conj(Vhat(xi))
    assert v.fourier(-2.0) == pytest.approx(np.conj(z), rel=1e-12)
    # translation leaves the functionals alone
    assert v.integral_power(2) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_offcentre_fourier_matches_complex_exp(d):
    # the cos/sin phase against the complex-exp form it replaced
    v = GaussianMixturePotential([1.0, -0.6, 0.3], [1.0, 0.5, 1.4],
                                 np.array([[0.4, -0.2], [-0.3, 0.5], [0.0, 0.9]])[:, :d])
    xi = np.random.default_rng(d).normal(0.0, 3.0, (1 << 14, d))
    amp = v.c * (v.s * math.sqrt(math.pi)) ** d
    envelope = amp * np.exp(-(v.s**2) * (xi**2).sum(axis=-1)[:, None] / 4.0)
    want = (envelope * np.exp(-1j * (xi[:, None, :] * v.x0).sum(axis=-1))).sum(axis=-1)
    got = v.fourier(xi)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
    assert v.fourier(xi[0]) == pytest.approx(complex(want[0]), rel=1e-15)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("centred", [True, False])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_theta_weight_matches_fourier_products(k, centred, d):
    # the fused weight against the product of fourier and proposal_density
    # calls it replaces, by equality: on a partial and on a full row block
    r = np.random.default_rng(10 * k + d)
    x0 = np.zeros((k, d)) if centred else r.uniform(-1.0, 1.0, (k, d))
    v = GaussianMixturePotential([1.0, -0.6, 0.3][:k], [1.0, 0.5, 1.4][:k], x0, d=d)
    for j in (2, 3, 4):
        for n in (1000, 1 << 14):
            th = v.proposal_sample(r.random((n, (j - 1) * (d + (k > 1)))), j - 1)
            w = v.fourier(-th.sum(axis=1))
            for i in range(j - 1):
                w = np.multiply(w, v.fourier(th[:, i, :]))
            want = np.real(w) / np.prod(v.proposal_density(th), axis=1)
            assert np.array_equal(v.theta_weight(th), want)


@pytest.mark.parametrize("d", [1, 2])
def test_theta_weight_does_not_depend_on_the_block_size(d):
    # a full 2^14-row block and its first 100 rows multiply the complex
    # factors of an off-centre j = 3 weight in the same operand order
    r = np.random.default_rng(40 + d)
    v = GaussianMixturePotential([1.0, -0.6], [1.0, 0.5], r.uniform(-1.0, 1.0, (2, d)), d=d)
    th = v.proposal_sample(r.random((1 << 14, 2 * (d + 1))), 2)
    assert np.array_equal(v.theta_weight(th)[:100], v.theta_weight(th[:100]))


# ---------------------------------------------------------------------------
# mixtures


def mixture():
    return GaussianMixturePotential(
        amplitudes=[1.0, -0.4], widths=[1.0, 1.8], centers=[0.0, 0.9], d=1
    )


def test_mixture_integral_power_vs_quadrature():
    v = mixture()
    for k in (1, 2, 3):
        num, _ = integrate.quad(lambda x: v.evaluate(x) ** k, -30, 30, epsabs=1e-13)
        assert v.integral_power(k) == pytest.approx(num, rel=1e-9)
    assert v.fourier(0.0) == pytest.approx(v.integral_power(1), rel=1e-12)


def test_mixture_energies_vs_direct_quadrature():
    v = mixture()
    num, _ = integrate.quad(lambda x: (v.gradient(x) ** 2).sum(), -30, 30, epsabs=1e-12)
    assert v.dirichlet_energy() == pytest.approx(num, rel=1e-8)
    num, _ = integrate.quad(lambda x: v.evaluate(x) * (v.gradient(x) ** 2).sum(), -30, 30)
    assert v.weighted_gradient() == pytest.approx(num, rel=1e-8)
    num, _ = integrate.quad(lambda x: v.laplacian(x) ** 2, -30, 30, epsabs=1e-12)
    assert v.biharmonic_energy() == pytest.approx(num, rel=1e-8)


def test_d2_mixture_energies_vs_dblquad():
    v = GaussianMixturePotential([1.0, -0.5], [1.0, 2.0], [[0.0, 0.0], [1.0, 0.3]], d=2)
    integrands = [
        (v.dirichlet_energy(), lambda p: (v.gradient(p) ** 2).sum()),
        (v.weighted_gradient(), lambda p: v.evaluate(p) * (v.gradient(p) ** 2).sum()),
    ]
    for got, f in integrands:
        num, _ = integrate.dblquad(lambda y, x: f((x, y)), -21, 21, -21, 21,
                                   epsabs=1e-11, epsrel=1e-9)
        assert got == pytest.approx(num, rel=1e-7)


def test_mixture_norms():
    v = mixture()
    num, _ = integrate.quad(lambda x: abs(v.evaluate(x)), -30, 30, limit=400)
    assert v.l1_norm == pytest.approx(num, rel=1e-6)


def test_proposal_density_normalized_and_consistent():
    v = mixture()
    mass, _ = integrate.quad(v.proposal_density, -np.inf, np.inf, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)
    # sampler/density consistency: E_q[phi(theta)/q(theta)] = int phi
    rng = np.random.default_rng(3)
    th = v.proposal_sample(rng.random((200_000, 2)), 1)[:, 0]
    phi = np.exp(-0.5 * th[..., 0] ** 2) / math.sqrt(2 * math.pi)
    w = phi / v.proposal_density(th)
    assert abs(w.mean() - 1.0) <= 4.0 * w.std(ddof=1) / math.sqrt(len(w))


def test_proposal_dominates_fourier():
    v = mixture()
    xi = np.linspace(-6, 6, 201)
    env = v.proposal_density(xi) * v.proposal_mass
    assert np.all(np.abs(v.fourier(xi)) <= env * (1 + 1e-12))


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixturePotential([1.0], [0.0], [0.0], d=1)
    with pytest.raises(ValueError):
        GaussianMixturePotential([1.0, 2.0], [1.0], [0.0], d=1)
