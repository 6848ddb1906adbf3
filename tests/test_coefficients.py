import math

import numpy as np
import pytest

from fracheat import coefficients as coeff
from fracheat import subordinator as sub
from fracheat.potential import GaussianMixturePotential, GaussianPotential


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# L_j functional


def test_lj_zero_thetas():
    part = sub.sample_increments(1.0, [0.6, 0.2], rng(1))
    assert coeff.eval_Lj(part, [0.0]) == 0.0


def test_lj_deterministic_alpha2():
    # j = 2, alpha = 2: L_2 = (1 - l1 + l2)(l1 - l2) |theta|^2
    part = sub.sample_increments(2.0, [0.6, 0.2], rng())
    assert coeff.eval_Lj(part, [1.0]) == pytest.approx(0.6 * 0.4, rel=1e-12)
    assert coeff.eval_Lj(part, [2.0]) == pytest.approx(0.6 * 0.4 * 4.0, rel=1e-12)


@pytest.mark.parametrize("j,d", [(2, 1), (3, 1), (4, 1), (3, 2)])
def test_lj_forms_agree_and_bounds(j, d):
    r = rng(j * 10 + d)
    for _ in range(2500):
        lam = np.sort(r.uniform(0.001, 0.999, j))[::-1]
        part = sub.sample_increments(1.2, lam, r)
        th = r.normal(size=(j - 1, d))
        expanded = coeff.eval_Lj(part, th)
        compact = coeff.eval_Lj_compact(part, th)
        assert expanded >= 0.0
        scale = max(abs(expanded), abs(compact), 1e-30)
        assert abs(expanded - compact) / scale < 1e-10
        gam2 = (np.cumsum(th, axis=0) ** 2).sum()
        assert expanded <= part.total * gam2 * (1 + 1e-12)


def test_lj_shape_validation():
    part = sub.sample_increments(1.0, [0.6, 0.2], rng())
    with pytest.raises(ValueError):
        coeff.eval_Lj(part, [1.0, 2.0])


# ---------------------------------------------------------------------------
# K constants


def test_deterministic_k_values():
    assert coeff.deterministic_constant_K("K1", 1) == pytest.approx(1.0 / 12.0, abs=1e-11)
    assert coeff.deterministic_constant_K("K2", 3) == pytest.approx(1.0 / 60.0, abs=1e-11)
    assert coeff.deterministic_constant_K("K3", 1) == pytest.approx(1.0 / 24.0, abs=1e-10)


@pytest.mark.parametrize("which,exact", [("K1", 1 / 12), ("K2", 1 / 60), ("K3", 1 / 24)])
def test_mc_matches_quadrature_at_alpha2(which, exact):
    est = coeff.mc_constant_K(which, 2, 2.0, 4 * 10**6, rng(5))
    assert est.within(exact, 4.0)
    assert abs(est.value - exact) / exact < 1e-3


def test_k_validity_ranges():
    with pytest.raises(ValueError):
        coeff.mc_constant_K("K1", 1, 0.4, 100, rng())
    with pytest.raises(ValueError):
        coeff.mc_constant_K("K2", 1, 1.2, 100, rng())
    with pytest.raises(ValueError):
        coeff.mc_constant_K("K2", 2, 0.9, 100, rng())
    # fine: K1 at d >= 2 for small alpha; K2 at d = 3 above 1/2
    coeff.mc_constant_K("K1", 2, 0.4, 1000, rng())
    coeff.mc_constant_K("K2", 3, 0.6, 1000, rng())


def test_k1_upper_bound_d2():
    # 0 < K1(d, alpha) <= E[S_1^{1-d/2}]/4 for d >= 2
    est = coeff.mc_constant_K("K1", 2, 1.2, 10**6, rng(6))
    assert 0.0 < est.value <= sub.stable_moment(1.2, 0.0) / 4.0 + 4 * est.stderr


def test_constants_at_alpha2_exact():
    assert coeff.constant_L(1, 2.0, 0, rng()).value == pytest.approx(1 / 12, abs=1e-11)
    assert coeff.constant_N(2, 2.0, 0, rng()).value == pytest.approx(1 / 120, abs=1e-11)
    assert coeff.constant_M(1, 2.0, 0, rng()).value == pytest.approx(1 / 12, abs=1e-10)


def test_constant_reproducibility():
    a = coeff.constant_L(1, 1.7, 10**5, rng(9)).value
    b = coeff.constant_L(1, 1.7, 10**5, rng(9)).value
    assert a == b


@pytest.mark.parametrize("j", [2, 3, 4])
def test_sorted_simplex_equals_sort(j):
    got = coeff._sorted_simplex(rng(5), 10_001, j)
    want = np.sort(rng(5).uniform(0.0, 1.0, (10_001, j)), axis=1)[:, ::-1]
    assert np.array_equal(got, want)


# Values and stderrs of two estimates at a fixed seed, recorded with the
# unblocked, np.sin-based Kanter transform that preceded the half-angle,
# row-blocked one.  The sample count is a multiple of neither the chunk nor
# the block size, so the partial last chunk and block are both exercised.
PINNED_N = 2**20 + 3 * 2**14 + 77
PINNED_K3 = (0.03750484443862226, 1.253807030004014e-05)
PINNED_C12 = (0.14436096735940726, 0.0001694151679751642)


def test_same_seed_same_estimates():
    k3 = coeff.mc_constant_K("K3", 1, 1.8, PINNED_N, rng(31415))
    mix = GaussianMixturePotential([1.0, -0.6], [1.0, 0.5], [0.4, -0.3])
    c12 = coeff.mc_coefficient_Cnj(mix, 1, 2, 1, 1.8, PINNED_N, rng(27182))
    assert (k3.value, k3.stderr) == pytest.approx(PINNED_K3, rel=1e-12, abs=0.0)
    assert (c12.value, c12.stderr) == pytest.approx(PINNED_C12, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# full coefficients


def test_c0j_convention_gate_centered():
    v = GaussianPotential(1.0, 1.0)
    for j in (2, 3):
        want = v.integral_power(j) / math.factorial(j)
        est = coeff.mc_coefficient_Cnj(v, 0, j, 1, 1.0, 10**6, rng(10 + j))
        assert est.within(want, 4.0)


def test_c0j_convention_gate_shifted_and_mixture():
    # a shifted center exercises the complex phases; the identity
    # C_{0,j} = int V^j / j! must survive them
    v = GaussianPotential(1.0, 1.0, center=0.8)
    want = v.integral_power(2) / 2.0
    est = coeff.mc_coefficient_Cnj(v, 0, 2, 1, 1.2, 10**6, rng(14))
    assert est.within(want, 4.0)
    w = GaussianMixturePotential([1.0, -0.5], [1.0, 1.6], [0.0, 0.7], d=1)
    want = w.integral_power(3) / 6.0
    est = coeff.mc_coefficient_Cnj(w, 0, 3, 1, 1.2, 2 * 10**6, rng(15))
    assert est.within(want, 4.0)


def test_c0j_convention_gate_d2():
    v = GaussianPotential(1.0, 1.0, center=(0.0, 0.0))
    want = v.integral_power(2) / 2.0
    est = coeff.mc_coefficient_Cnj(v, 0, 2, 2, 1.0, 10**6, rng(13))
    assert est.within(want, 4.0)


def test_c12_matches_constant_route():
    v = GaussianPotential(1.0, 1.0)
    alpha = 1.6
    c12 = coeff.mc_coefficient_Cnj(v, 1, 2, 1, alpha, 2 * 10**6, rng(16))
    lc = coeff.constant_L(1, alpha, 2 * 10**6, rng(17))
    diff = c12.value - lc.value * v.dirichlet_energy()
    assert abs(diff) <= 4.0 * math.hypot(c12.stderr, lc.stderr * v.dirichlet_energy())


def test_c13_factor_against_weighted_gradient():
    # at alpha = 2 the full estimator must reproduce M_{d,2} * int V |grad V|^2
    # with M_{d,2} = 2 K3 = 1/12; this pins the factor 2 in the K3 reduction
    v = GaussianPotential(1.0, 1.0)
    est = coeff.mc_coefficient_Cnj(v, 1, 3, 1, 2.0, 4 * 10**6, rng(18))
    want = coeff.constant_M(1, 2.0, 0, rng()).value * v.weighted_gradient()
    assert est.within(want, 4.0)
    assert abs(est.value - want) / want < 0.01


def test_c22_matches_constant_N_at_alpha2():
    v = GaussianPotential(1.0, 1.0)
    est = coeff.mc_coefficient_Cnj(v, 2, 2, 1, 2.0, 4 * 10**6, rng(19))
    want = coeff.constant_N(1, 2.0, 0, rng()).value * v.biharmonic_energy()
    assert est.within(want, 4.0)


def test_cnj_zero_potential():
    v = GaussianPotential(0.0, 1.0)
    est = coeff.mc_coefficient_Cnj(v, 0, 2, 1, 1.0, 10**4, rng(20))
    assert est.value == 0.0


def test_cnj_validity_rejection():
    v = GaussianPotential(1.0, 1.0)
    with pytest.raises(ValueError, match="violated"):
        coeff.mc_coefficient_Cnj(v, 2, 2, 1, 1.0, 100, rng())
    with pytest.raises(ValueError):
        coeff.mc_coefficient_Cnj(v, 0, 1, 1, 1.0, 100, rng())


# ---------------------------------------------------------------------------
# schedules, validity, remainder


def test_phi_exponent():
    assert coeff.phi_exponent(3, 1, 1.0) == 4.0
    assert coeff.phi_exponent(5, 2, 1.0) == 6.0


def test_schedule_alpha1_example():
    sched = coeff.exponent_schedule(5, 2, 1.0, 1)
    assert sched.cutoff == 6.0
    assert np.allclose(sched.exponents, [1, 2, 3, 4, 4, 5, 5])
    for e in sched.entries:
        assert e.exponent == pytest.approx(2.0 * e.n / 1.0 + e.j)
        assert e.sign == (-1) ** (e.n + e.j)
    assert (sched.entries[0].n, sched.entries[0].j, sched.entries[0].sign) == (0, 1, -1)


def test_schedule_sorted_by_nj_near_two():
    # for alpha in (2(J-3)/(J-2), 2) exponent order coincides with n+j order
    J = 5
    sched = coeff.exponent_schedule(J, J - 2, 1.9, 1)
    nj = [e.n + e.j for e in sched.entries]
    assert nj == sorted(nj)


def test_matrix_aj_printed_examples():
    a6 = coeff.matrix_AJ(6, 1.0)
    assert np.array_equal(
        a6,
        np.array(
            [
                [2, 0, 0, 0, 0],
                [3, 4, 0, 0, 0],
                [4, 5, 6, 0, 0],
                [5, 6, 7, 8, 0],
                [6, 7, 8, 9, 10],
            ],
            dtype=float,
        ),
    )
    a2 = coeff.matrix_AJ(5, 2.0)
    for r in range(4):
        row = a2[r, : r + 1]
        assert np.all(row == r + 2)


def test_validate_params():
    # d=1, M=1: basic needs alpha > 1, improved alpha > 1/2
    assert not coeff.validate_params(1, 0.9, 1).basic_ok
    assert coeff.validate_params(1, 1.1, 1).basic_ok
    assert coeff.validate_params(1, 0.6, 1).improved_ok
    assert not coeff.validate_params(1, 0.4, 1).improved_ok
    # d=3, M=2: improved needs alpha > 1/2
    assert coeff.validate_params(3, 0.6, 2).improved_ok
    assert not coeff.validate_params(3, 0.4, 2).improved_ok
    assert coeff.validate_params(1, 1.8, 2).max_M == 2
    assert coeff.validate_params(1, 0.4, 1).max_M == 0
    with pytest.raises(ValueError):
        coeff.validate_params(1, 2.0, 1)


def test_remainder_bound():
    v0 = GaussianPotential(0.0, 1.0)
    assert coeff.remainder_bound(v0, 2, 1, 0.5) == 0.0
    v = GaussianPotential(1.0, 1.0)
    vals = [coeff.remainder_bound(v, 2, 1, t) for t in (0.1, 0.4, 0.8)]
    assert vals[0] < vals[1] < vals[2]
    want = (2 * math.pi) ** 4 * math.exp(0.5) * math.sqrt(math.pi) / 6.0
    assert coeff.remainder_bound(v, 2, 1, 0.5) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        coeff.remainder_bound(v, 2, 1, 1.5)


def test_c_d_alpha_at_two():
    for d in (1, 2, 3):
        assert coeff.c_d_alpha(d, 2.0) == pytest.approx((2 * math.pi) ** d, rel=1e-12)


def test_xi_integral_identity_j2():
    # the pivotal frequency integral behind every coefficient:
    #   int exp(-t(1-l1+l2)|xi|^a - t(l1-l2)|xi-th|^a) dxi
    #     = C_{d,a} p_t(0) E[S_1^{-d/2} exp(-t^{2/a} L_2)]
    # checked by independent quadrature vs Monte Carlo at d=1, alpha=1
    from scipy import integrate

    from fracheat.heat_kernel import kernel_at_zero

    alpha, t, th = 1.0, 0.3, 1.2
    l1, l2 = 0.7, 0.3
    head_w, inc_w = 1.0 - (l1 - l2), l1 - l2

    def integrand(xi):
        return math.exp(-t * head_w * abs(xi) ** alpha
                        - t * inc_w * abs(xi - th) ** alpha)

    lhs, _ = integrate.quad(integrand, -np.inf, np.inf, limit=400)

    n = 2 * 10**6
    r = rng(30)
    heads = head_w ** (2 / alpha) * sub.sample_stable(alpha, 1.0, r, size=n)
    incs = inc_w ** (2 / alpha) * sub.sample_stable(alpha, 1.0, r, size=n)
    totals = heads + incs
    l2val = heads * incs * th**2 / totals
    f = totals**-0.5 * np.exp(-(t ** (2 / alpha)) * l2val)
    scale = coeff.c_d_alpha(1, alpha) * kernel_at_zero(1, alpha) * t ** (-1 / alpha)
    rhs, rhs_se = scale * f.mean(), scale * f.std(ddof=1) / math.sqrt(n)
    assert abs(lhs - rhs) <= 4.0 * rhs_se
