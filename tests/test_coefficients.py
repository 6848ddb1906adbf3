import functools
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from fracheat import coefficients as coeff
from fracheat import sobol
from fracheat import subordinator as sub
from fracheat.potential import GaussianMixturePotential, GaussianPotential


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# L_j functional


def _lj(heads, incs, totals, th):
    # L_j from the term table: sum over the terms (a, b) of
    # X_a X_b |Gamma_a - Gamma_b|^2, over S_1
    x = [heads, *incs.T]
    pairs = coeff._pairs(len(x))
    return sum(x[a] * x[b] * q for (a, b), q in zip(pairs, coeff._lj_forms(th))) / totals


def _lj_one(part, thetas):
    # L_j of one (head, incs, total) from sample_increments, as a batch of one
    head, incs, total = part
    th = np.asarray(thetas, dtype=float).reshape(1, incs.size, -1)
    return float(_lj(np.array([head]), incs[None, :], np.array([total]), th)[0])


def test_lj_zero_thetas():
    part = sub.sample_increments(1.0, [0.6, 0.2], rng(1))
    assert _lj_one(part, [0.0]) == 0.0


def test_lj_deterministic_alpha2():
    # j = 2, alpha = 2: L_2 = (1 - l1 + l2)(l1 - l2) |theta|^2
    part = sub.sample_increments(2.0, [0.6, 0.2], rng())
    assert _lj_one(part, [1.0]) == pytest.approx(0.6 * 0.4, rel=1e-12)
    assert _lj_one(part, [2.0]) == pytest.approx(0.6 * 0.4 * 4.0, rel=1e-12)


def _lj_compact_exact(head, incs, th):
    # the compact defining form L_j = sum_k inc_k |gamma_k|^2
    # - |sum_k inc_k gamma_k|^2 / S_1 in exact rational arithmetic: in floats
    # it cancels to ~eps * sum_k inc_k |gamma_k|^2 when one increment of the
    # heavy-tailed law dominates, which is why the package uses the expanded form
    inc = [Fraction(x) for x in incs]
    gam, acc = [], [Fraction(0)] * th.shape[1]
    for row in th:
        acc = [a + Fraction(x) for a, x in zip(acc, row)]
        gam.append(acc)
    lead = sum(i * sum(g * g for g in gk) for i, gk in zip(inc, gam))
    vec = [sum(i * gk[c] for i, gk in zip(inc, gam)) for c in range(th.shape[1])]
    return float(lead - sum(v * v for v in vec) / (Fraction(head) + sum(inc)))


@pytest.mark.parametrize("j,d", [(2, 1), (3, 1), (4, 1), (3, 2)])
def test_lj_forms_agree_and_bounds(j, d):
    # the expanded form against the compact form, on 2500 cases drawn as one batch
    r = rng(j * 10 + d)
    lam = np.sort(r.uniform(0.001, 0.999, (2500, j)), axis=1)[:, ::-1]
    heads, incs, totals = sub.increments_batch(
        1.2, lam, r.uniform(0.0, np.pi, lam.shape), r.standard_exponential(lam.shape))
    th = r.normal(size=(2500, j - 1, d))
    expanded = _lj(heads, incs, totals, th)
    compact = np.array([_lj_compact_exact(*case) for case in zip(heads, incs, th)])
    assert np.all(expanded >= 0.0)
    scale = np.maximum(np.maximum(np.abs(expanded), np.abs(compact)), 1e-30)
    assert np.all(np.abs(expanded - compact) / scale < 1e-10)
    gam2 = (np.cumsum(th, axis=1) ** 2).sum(axis=(1, 2))
    assert np.all(expanded <= totals * gam2 * (1 + 1e-12))


@pytest.mark.parametrize("j,n,count", [(2, 0, 1), (2, 2, 1), (3, 1, 3), (3, 2, 6), (4, 2, 21)])
def test_multisets_expand_the_power(j, n, count):
    # sum_M count_M prod_{t in M} z_t = (sum_t z_t)^n over the C(j, 2) terms
    terms = coeff._multisets(j, n)
    assert len(terms) == count and len(set(m for m, _ in terms)) == count
    z = rng(j + n).uniform(0.5, 2.0, (j * (j - 1) // 2, 8))
    got = sum(c * math.prod((z[t] for t in m), start=np.ones(8)) for m, c in terms)
    assert got == pytest.approx(z.sum(axis=0) ** n, rel=1e-13)


# ---------------------------------------------------------------------------
# K constants


def test_deterministic_k_values():
    assert coeff.deterministic_constant_K("K1", 1, 2.0) == pytest.approx(1.0 / 12.0, abs=1e-11)
    assert coeff.deterministic_constant_K("K2", 3, 2.0) == pytest.approx(1.0 / 60.0, abs=1e-11)
    assert coeff.deterministic_constant_K("K3", 1, 2.0) == pytest.approx(1.0 / 24.0, abs=1e-10)


# K2 at d <= 2 is left out: its Monte Carlo integrand has infinite variance
# there for every alpha < 2, so a z-score would mean nothing
@pytest.mark.parametrize("which,d,alpha", [("K1", 1, 1.8), ("K3", 2, 1.2), ("K2", 3, 1.5),
                                           ("K1", 3, 0.8)])
@pytest.mark.parametrize("seed", [0, 31337])
def test_exact_K_matches_mc(which, d, alpha, seed):
    est = coeff.mc_constant_K(which, d, alpha, 1 << 21, rng(seed))
    exact = coeff.deterministic_constant_K(which, d, alpha)
    assert abs(est.value - exact) <= 4.0 * est.stderr


def test_exact_K_at_alpha2_and_validity():
    for d in (1, 2, 3):
        got = [coeff.deterministic_constant_K(w, d, 2.0) for w in ("K1", "K2", "K3")]
        assert got == pytest.approx([1 / 12, 1 / 60, 1 / 24], rel=1e-14)
    for args in [("K1", 1, 0.5), ("K2", 1, 1.5), ("K2", 2, 1.0), ("K2", 3, 0.5),
                 ("K1", 2, 2.5), ("K1", 2, 0.0), ("K4", 1, 2.0)]:
        with pytest.raises(ValueError):
            coeff.deterministic_constant_K(*args)


def test_exact_L_matches_algebraic_form():
    # L_{d,alpha} = alpha^2 Gamma(2 + (d-2)/alpha) / (24 d Gamma(d/alpha)), the
    # form obtained by cancelling Gamma(d/2) between C_{d,alpha} and K1
    for d in (1, 2, 3):
        for alpha in (0.8, 1.0, 1.2, 1.5, 1.8, 1.95, 2.0):
            want = alpha**2 * math.gamma(2 + (d - 2) / alpha) / (24 * d * math.gamma(d / alpha))
            if alpha == 2.0:
                got = coeff.constant_L(d, alpha, 0, rng()).value
            else:
                k1 = coeff.deterministic_constant_K("K1", d, alpha)
                got = coeff.c_d_alpha(d, alpha) / (2 * math.pi) ** d * k1
            assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("which,exact", [("K1", 1 / 12), ("K2", 1 / 60), ("K3", 1 / 24)])
def test_mc_matches_quadrature_at_alpha2(which, exact):
    est = coeff.mc_constant_K(which, 2, 2.0, 4 * 10**6, rng(5))
    assert abs(est.value - exact) <= 4.0 * est.stderr
    assert abs(est.value - exact) / exact < 1e-3


@pytest.mark.parametrize("d,alpha,arg", [(1, 0.0058, "172.414"), (3, 0.01, "300")])
def test_increment_moment_refuses_a_gamma_overflow(d, alpha, arg):
    # E[S_1^{-d/2}] needs Gamma(d/alpha), beyond the float range below
    # alpha ~ d/171.6; just above that it is finite
    with pytest.raises(ValueError, match=f"Gamma argument {arg} overflows"):
        coeff._increment_moment((), 2, 0, d, alpha)
    assert math.isfinite(coeff._increment_moment((), 2, 0, d, 2 * alpha))


def test_k_validity_ranges():
    with pytest.raises(ValueError):
        coeff.mc_constant_K("K1", 1, 0.4, 100, rng())
    with pytest.raises(ValueError):
        coeff.mc_constant_K("K2", 1, 1.2, 100, rng())
    with pytest.raises(ValueError):
        coeff.mc_constant_K("K2", 2, 0.9, 100, rng())
    # admitted, but its sampled integrand has an infinite variance
    with pytest.raises(ValueError, match="infinite variance"):
        coeff.mc_constant_K("K2", 3, 0.6, 1000, rng())
    # fine: K1 at d >= 2 for small alpha; K2 at d = 3 above 1
    coeff.mc_constant_K("K1", 2, 0.4, 1000, rng())
    coeff.mc_constant_K("K2", 3, 1.05, 1000, rng())


@pytest.mark.parametrize("which,d,alpha", [("K1", 1, 0.8), ("K1", 1, 1.0), ("K3", 1, 0.8),
                                           ("K3", 1, 1.0), ("K2", 3, 0.8)])
def test_mc_K_refuses_infinite_variance(which, d, alpha):
    # (head inc)^n / S^{n+d/2} has an infinite second moment at alpha <= 2n - d
    with pytest.raises(ValueError, match=r"infinite variance at alpha <= 2n - d = 1"):
        coeff.mc_constant_K(which, d, alpha, 4096, rng())


@pytest.mark.parametrize("constant,which,d", [(coeff.constant_L, "K1", 1),
                                              (coeff.constant_M, "K3", 1),
                                              (coeff.constant_N, "K2", 3)])
def test_constants_take_the_closed_form_where_mc_is_refused(constant, which, d):
    factor = {"K1": coeff.c_d_alpha(d, 0.8) / (2.0 * math.pi) ** d,
              "K2": coeff.c_d_alpha(d, 0.8) / (2.0 * (2.0 * math.pi) ** d),
              "K3": 2.0 * coeff.c_d_alpha(d, 0.8) / (2.0 * math.pi) ** d}[which]
    est = constant(d, 0.8, 4096, rng())
    assert est.value == factor * coeff.deterministic_constant_K(which, d, 0.8)
    assert est.stderr == 0.0 and est.n_samples == 0
    assert est.params["method"] == "closed_form"


def test_k1_just_above_the_variance_bound_stays_sampled():
    est = coeff.constant_L(1, 1.05, 4096, rng(2))
    assert est.params["method"] == "rqmc" and est.stderr > 0.0


def _doubled_moments(which, d, alpha):
    # the second moment of mc_constant_K's integrand: the increment moments
    # of the doubled multisets, n' = 2n and d' = 2d
    if which == "K3":
        return [coeff._increment_moment(m, 3, 2, 2 * d, alpha) for m, _ in coeff._multisets(3, 2)]
    n = 2 if which == "K2" else 1
    return [coeff._increment_moment((0,) * 2 * n, 2, 2 * n, 2 * d, alpha)]


def test_k2_at_d_le_2_is_sampled_despite_its_infinite_variance():
    # the benchmark's "N d=2 alpha=1.5" task checks stderr > 0; its revision
    # (ROADMAP direction 5) removes _k2_sampled_anyway and this test with it
    assert coeff._k2_sampled_anyway("K2", 2) and not coeff._k_variance_infinite("K2", 2, 1.5)
    with pytest.raises(ValueError, match="diverges"):
        _doubled_moments("K2", 2, 1.5)
    est = coeff.constant_N(2, 1.5, 4096, rng(3))
    assert est.params["method"] == "rqmc" and est.stderr > 0.0


def test_mc_K_refuses_exactly_where_the_second_moment_diverges():
    admitted = infinite = 0
    for which, d, alpha in itertools.product(("K1", "K2", "K3"), (1, 2, 3, 4),
                                             [round(0.01 * k, 2) for k in range(1, 200)]):
        try:
            coeff._k_validity(which, d, alpha)
        except ValueError:
            continue
        try:
            _doubled_moments(which, d, alpha)
            diverges = False
        except ValueError as exc:
            # a Gamma overflow at small alpha is a finite moment
            diverges = "diverges" in str(exc)
        admitted += 1
        infinite += diverges
        refused = coeff._k_variance_infinite(which, d, alpha)
        assert refused == (diverges and not coeff._k2_sampled_anyway(which, d)), (which, d, alpha)
    assert (admitted, infinite) == (1988, 298)


def test_k1_upper_bound_d2():
    # 0 < K1(d, alpha) <= E[S_1^{1-d/2}]/4 for d >= 2
    est = coeff.mc_constant_K("K1", 2, 1.2, 10**6, rng(6))
    assert 0.0 < est.value <= sub.stable_moment(1.2, 0.0) / 4.0 + 4 * est.stderr


def test_constants_at_alpha2_exact():
    assert coeff.constant_L(1, 2.0, 0, rng()).value == pytest.approx(1 / 12, abs=1e-11)
    assert coeff.constant_N(2, 2.0, 0, rng()).value == pytest.approx(1 / 120, abs=1e-11)
    assert coeff.constant_M(1, 2.0, 0, rng()).value == pytest.approx(1 / 12, abs=1e-10)


def test_constant_reproducibility():
    a = coeff.constant_L(1, 1.7, 10**5, rng(9))
    b = coeff.constant_L(1, 1.7, 10**5, rng(9))
    assert a == b
    v = GaussianMixturePotential([1.0, -0.6], [1.0, 0.5], [0.4, -0.3])
    a = coeff.mc_coefficient_Cnj(v, 1, 2, 1, 1.8, 10**4, rng(9))
    assert a == coeff.mc_coefficient_Cnj(v, 1, 2, 1, 1.8, 10**4, rng(9))


@pytest.mark.parametrize("j", [2, 3, 4])
def test_sorted_simplex_equals_sort(j):
    got = coeff._sorted_simplex(rng(5).uniform(0.0, 1.0, (10_001, j)))
    want = np.sort(rng(5).uniform(0.0, 1.0, (10_001, j)), axis=1)[:, ::-1]
    assert np.array_equal(got, want)


# Values and stderrs of two randomized quasi-Monte Carlo estimates at a fixed
# seed.  The sample count is a multiple of neither SCRAMBLES nor the block
# size, so the round-up to whole scrambles and the partial last row block
# are both exercised.
PINNED_N = 2**20 + 3 * 2**14 + 77
PINNED_K3 = (0.0374793341404539, 2.4328762993739673e-06)
PINNED_C12 = (0.14443941481258746, 1.528535019947596e-06)


def test_same_seed_same_estimates():
    k3 = coeff.mc_constant_K("K3", 1, 1.8, PINNED_N, rng(31415))
    mix = GaussianMixturePotential([1.0, -0.6], [1.0, 0.5], [0.4, -0.3])
    c12 = coeff.mc_coefficient_Cnj(mix, 1, 2, 1, 1.8, PINNED_N, rng(27182))
    assert (k3.value, k3.stderr) == pytest.approx(PINNED_K3, rel=1e-12, abs=0.0)
    assert (c12.value, c12.stderr) == pytest.approx(PINNED_C12, rel=1e-12, abs=0.0)
    rounded = coeff.SCRAMBLES * -(-PINNED_N // coeff.SCRAMBLES)
    assert k3.n_samples == c12.n_samples == rounded
    for est in (k3, c12):
        assert est.params["method"] == "rqmc" and est.params["scrambles"] == coeff.SCRAMBLES


# Three more paths of the C_{n,j} integrand at the same sample count: a
# centred Gaussian at j = 3, an off-centre mixture at j = 3 (complex
# products of three Fourier factors) and an off-centre mixture in d = 2.
PINNED_PATHS = {
    "C13 gaussian d=1 alpha=1.8": (
        lambda: (GaussianPotential(1.0, 1.0), 1, 3, 1, 1.8, 16180),
        (0.05096298555073926, 9.997566454550696e-07)),
    "C03 mixture d=1 alpha=1.8": (
        lambda: (GaussianMixturePotential([1.0, -0.6], [1.0, 0.5], [0.4, -0.3]), 0, 3, 1, 1.8,
                 14142),
        (0.10798884694218885, 1.1842010011894315e-05)),
    "C12 mixture d=2 alpha=1.5": (
        lambda: (GaussianMixturePotential([1.0, -0.5], [1.0, 2.0], [[0.0, 0.0], [1.0, 0.3]], d=2),
                 1, 2, 2, 1.5, 17320),
        (0.13977549988714386, 4.5646742881858445e-06)),
}


@pytest.mark.parametrize("case", PINNED_PATHS.values(), ids=PINNED_PATHS.keys())
def test_same_seed_same_estimates_more_paths(case):
    args, pinned = case
    v, n, j, d, alpha, seed = args()
    est = coeff.mc_coefficient_Cnj(v, n, j, d, alpha, PINNED_N, rng(seed))
    assert (est.value, est.stderr) == pytest.approx(pinned, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("v,j", [(GaussianPotential(1.0, 1.0), 3),
                                 (GaussianMixturePotential([1.0, -0.6], [1.0, 0.5],
                                                           [0.4, -0.3]), 2)])
def test_cnj_weights_each_row_block_once(monkeypatch, v, j):
    # the integrand takes its theta weight from one theta_weight call per row
    # block, never from separate fourier and proposal_density calls
    calls = {"fourier": 0, "proposal_density": 0, "theta_weight": 0}
    for name in calls:
        original = getattr(GaussianMixturePotential, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(GaussianMixturePotential, name, counted)
    m = sub._BLOCK + 5
    coeff.mc_coefficient_Cnj(v, 1, j, 1, 1.8, coeff.SCRAMBLES * m, rng(4))
    blocks = len(list(sub._row_blocks(m)))
    assert blocks == 2
    assert calls == {"fourier": 0, "proposal_density": 0,
                     "theta_weight": coeff.SCRAMBLES * blocks}


def test_scramble_blocks_match_whole_scrambles(monkeypatch):
    # a scramble generated and evaluated in blocks of points gives the
    # estimate of the whole scramble at once, up to summation order
    v = GaussianMixturePotential([1.0, -0.6], [1.0, 0.5], [0.4, -0.3])
    n = coeff.SCRAMBLES * 5000
    whole = coeff.mc_coefficient_Cnj(v, 1, 3, 1, 1.8, n, rng(3))
    monkeypatch.setattr(coeff, "_CHUNK", 1 << 10)
    blocked = coeff.mc_coefficient_Cnj(v, 1, 3, 1, 1.8, n, rng(3))
    assert blocked.value == pytest.approx(whole.value, rel=1e-12)
    assert blocked.stderr == pytest.approx(whole.stderr, rel=1e-9)


@pytest.mark.parametrize("n,j,terms", [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 3), (2, 3, 6)])
def test_cnj_records_its_terms(n, j, terms):
    # the multisets of n of the C(j, 2) terms of S_1 L_j, one theta factor each
    v, d, alpha = (OFF_CENTRE, 1, 1.8) if n < 2 else (CENTRED_3D, 3, 1.5)
    est = coeff.mc_coefficient_Cnj(v, n, j, d, alpha, 4096, rng(8))
    assert est.params["terms"] == terms


def test_point_dimension_limit_named():
    # (j-1)(d+1) theta columns per point with a mixture at d = 3: 24 at j = 7
    # run at every n, and the 36 of C_{0,10} tend to int V^10 / 10!; the
    # Sobol table's own limit is test_sobol's
    v = GaussianMixturePotential([1.0, 0.5], [1.0, 2.0], np.zeros((2, 3)))
    est = coeff.mc_coefficient_Cnj(v, 1, 7, 3, 1.5, 1000, rng())
    assert est.params["terms"] == 21 and est.stderr > 0.0
    want = v.integral_power(10) / math.factorial(10)
    for seed in range(3):
        est = coeff.mc_coefficient_Cnj(v, 0, 10, 3, 1.5, 1 << 18, rng(seed))
        assert abs(est.value - want) <= 4.0 * est.stderr


def test_wide_blocks_hold_fewer_points(monkeypatch):
    # a block holds at most _CHUNK points of 32 columns: the 64 columns of
    # C_{0,17} for a d = 3 mixture stream blocks of at most half the points
    # of the 32 of C_{0,9}, with the estimate of each whole scramble at once
    blocks = {}

    class Recording(sobol.ScrambledSobol):
        def stream(self, start, count):
            blocks.setdefault(len(self._shift), set()).add(count)
            return super().stream(start, count)

    v = GaussianMixturePotential([1.0, 0.5], [1.0, 2.0], np.zeros((2, 3)))
    n = coeff.SCRAMBLES << 12
    whole = [coeff.mc_coefficient_Cnj(v, 0, j, 3, 1.5, n, rng(4)) for j in (9, 17)]
    monkeypatch.setattr(coeff, "_CHUNK", 1 << 10)
    monkeypatch.setattr(coeff, "ScrambledSobol", Recording)
    for j, want in zip((9, 17), whole):
        est = coeff.mc_coefficient_Cnj(v, 0, j, 3, 1.5, n, rng(4))
        assert est.value == pytest.approx(want.value, rel=1e-12)
    assert max(blocks[64]) <= max(blocks[32]) // 2


def test_c0j_draws_no_increments(monkeypatch):
    # every increment factor is exact: no C_{n,j} at any n draws lam or an
    # increment, while mc_constant_K still does
    def refuse(*args, **kwargs):
        raise AssertionError("increments drawn")

    v = GaussianMixturePotential([1.0, -0.6], [1.0, 0.5], [0.4, -0.3])
    monkeypatch.setattr(coeff, "increments_batch", refuse)
    for n, j, alpha in ((0, 3, 1.2), (0, 2, 2.0), (1, 2, 1.8), (1, 3, 2.0), (2, 2, 1.9)):
        est = coeff.mc_coefficient_Cnj(v, n, j, 1, alpha, 4096, rng(6))
        assert est.params["increments"] == "exact"
        assert est.params["method"] == "rqmc" and est.params["scrambles"] == coeff.SCRAMBLES
    with pytest.raises(AssertionError, match="increments drawn"):
        coeff.mc_constant_K("K1", 1, 1.8, 4096, rng(6))


@pytest.mark.parametrize("v,d", [
    (GaussianPotential(1.0, 1.0, center=0.8), 1),
    (GaussianMixturePotential([1.0, -0.5], [1.0, 2.0], [[0.0, 0.0], [1.0, 0.3]], d=2), 2),
], ids=["gaussian d=1", "mixture d=2"])
def test_c0j_same_draws_at_every_alpha(v, d):
    # the theta draws do not depend on alpha, and C_{d,alpha} E[S_1^{-d/2}]
    # = (2 pi)^d for every alpha: only its rounding may differ
    values = [coeff.mc_coefficient_Cnj(v, 0, 3, d, alpha, 4096, rng(5)).value
              for alpha in (0.7, 1.3, 2.0)]
    assert values == pytest.approx([values[-1]] * 3, rel=1e-14, abs=0.0)


def test_c0j_high_order_within_the_point_dimension_limit():
    # (j-1)(d+1) = 24 theta columns at j = 7, d = 3 with a mixture
    v = GaussianMixturePotential([1.0, 0.5], [1.0, 2.0], np.zeros((2, 3)))
    est = coeff.mc_coefficient_Cnj(v, 0, 7, 3, 1.5, 1 << 18, rng(7))
    want = v.integral_power(7) / math.factorial(7)
    assert abs(est.value - want) <= 4.0 * est.stderr


def test_estimators_do_not_import_scipy_stats():
    # scipy.stats costs about 0.3 s to import; the estimators and the oracle
    # must not need it, nor the Bessel module only d >= 2 kernels use
    code = ("import sys, numpy as np, fracheat\n"
            "from fracheat import coefficients as c, heat_kernel as h, potential as p\n"
            "from fracheat import trace_oracle as o\n"
            "r = np.random.default_rng(0)\n"
            "c.mc_coefficient_Cnj(p.GaussianPotential(1.0, 1.0), 1, 2, 1, 1.8, 4096, r)\n"
            "h.relativistic_kernel_at_zero(1, 1.0, 1.0, 0.5, 4096, r)\n"
            "h.mixed_kernel_at_zero(2, 0.8, 1.6, 1.0, 0.1, 4096, r)\n"
            "o.trace_difference_curve(p.GaussianPotential(1.0, 1.0, d=2), 1.3,\n"
            "                         o.SpectralGrid(2, 10.0, 16), [0.01, 0.1])\n"
            "print([m for m in ('scipy.stats', 'scipy.special.cython_special')\n"
            "       if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def _exact_l_gradient(v, alpha):
    # L_{d,alpha} int |grad V|^2, C_{1,2}'s closed form
    d = v.d
    return (coeff.c_d_alpha(d, alpha) * coeff.deterministic_constant_K("K1", d, alpha)
            / (2.0 * math.pi) ** d * v.dirichlet_energy())


def _exact_n_biharmonic(v, alpha):
    # N_{d,alpha} int |Delta V|^2, C_{2,2}'s closed form
    d = v.d
    return (coeff.c_d_alpha(d, alpha) * coeff.deterministic_constant_K("K2", d, alpha)
            / (2.0 * (2.0 * math.pi) ** d) * v.biharmonic_energy())


OFF_CENTRE = GaussianMixturePotential([1.0, -0.6], [1.0, 0.5], [0.4, -0.3])
CENTRED_2D = GaussianPotential(1.0, 1.0, center=(0.0, 0.0))
CENTRED_3D = GaussianPotential(1.0, 1.0, center=(0.0, 0.0, 0.0))

# Coverage of the scramble-based stderr over 20 scramble seeds, with the
# thresholds fixed before the first run: every |z| <= 4, and at most 2 of 20
# beyond 3 (t with 31 degrees of freedom puts 0.5% there).
COVERAGE = {
    "K1 d=1 alpha=1.8": (lambda n, r: coeff.mc_constant_K("K1", 1, 1.8, n, r),
                         lambda: coeff.deterministic_constant_K("K1", 1, 1.8)),
    "K3 d=2 alpha=1.2": (lambda n, r: coeff.mc_constant_K("K3", 2, 1.2, n, r),
                         lambda: coeff.deterministic_constant_K("K3", 2, 1.2)),
    "C_02 gaussian alpha=1": (
        lambda n, r: coeff.mc_coefficient_Cnj(GaussianPotential(1.0, 1.0), 0, 2, 1, 1.0, n, r),
        lambda: GaussianPotential(1.0, 1.0).integral_power(2) / 2.0),
    "C_12 gaussian alpha=1.8": (
        lambda n, r: coeff.mc_coefficient_Cnj(GaussianPotential(1.0, 1.0), 1, 2, 1, 1.8, n, r),
        lambda: _exact_l_gradient(GaussianPotential(1.0, 1.0), 1.8)),
    "C_03 mixture alpha=1.8": (
        lambda n, r: coeff.mc_coefficient_Cnj(OFF_CENTRE, 0, 3, 1, 1.8, n, r),
        lambda: OFF_CENTRE.integral_power(3) / 6.0),
    "C_13 mixture alpha=1.8": (
        lambda n, r: coeff.mc_coefficient_Cnj(OFF_CENTRE, 1, 3, 1, 1.8, n, r),
        lambda: 2.0 * coeff.c_d_alpha(1, 1.8) * coeff.deterministic_constant_K("K3", 1, 1.8)
        / (2.0 * math.pi) * OFF_CENTRE.weighted_gradient()),
    "C_22 gaussian d=1 alpha=1.8": (
        lambda n, r: coeff.mc_coefficient_Cnj(GaussianPotential(1.0, 1.0), 2, 2, 1, 1.8, n, r),
        lambda: _exact_n_biharmonic(GaussianPotential(1.0, 1.0), 1.8)),
    "C_22 gaussian d=2 alpha=1.5": (
        lambda n, r: coeff.mc_coefficient_Cnj(CENTRED_2D, 2, 2, 2, 1.5, n, r),
        lambda: _exact_n_biharmonic(CENTRED_2D, 1.5)),
    "C_22 gaussian d=3 alpha=1.5": (
        lambda n, r: coeff.mc_coefficient_Cnj(CENTRED_3D, 2, 2, 3, 1.5, n, r),
        lambda: _exact_n_biharmonic(CENTRED_3D, 1.5)),
}


@functools.cache
def _coverage_z(name):
    estimate, exact = COVERAGE[name]
    want = exact()
    return np.array([(e.value - want) / e.stderr
                     for e in (estimate(1 << 16, rng(seed)) for seed in range(20))])


@pytest.mark.parametrize("name", list(COVERAGE))
def test_rqmc_stderr_covers_exact_value(name):
    z = _coverage_z(name)
    assert np.all(np.abs(z) <= 4.0), z
    assert np.sum(np.abs(z) > 3.0) <= 2, z


def test_rqmc_stderr_is_neither_too_wide_nor_too_narrow():
    # the pooled z of every COVERAGE entry, band fixed before the first run:
    # a doubled stderr gives a spread of about 0.58 and a halved one 2.31
    z = np.concatenate([_coverage_z(name) for name in COVERAGE])
    assert z.size == 180 and 0.75 <= z.std(ddof=1) <= 1.5, z.std(ddof=1)


# ---------------------------------------------------------------------------
# full coefficients


def test_c0j_convention_gate_centered():
    v = GaussianPotential(1.0, 1.0)
    for j in (2, 3):
        want = v.integral_power(j) / math.factorial(j)
        est = coeff.mc_coefficient_Cnj(v, 0, j, 1, 1.0, 10**6, rng(10 + j))
        assert abs(est.value - want) <= 4.0 * est.stderr


def test_c0j_convention_gate_shifted_and_mixture():
    # a shifted center exercises the complex phases; the identity
    # C_{0,j} = int V^j / j! must survive them
    v = GaussianPotential(1.0, 1.0, center=0.8)
    want = v.integral_power(2) / 2.0
    est = coeff.mc_coefficient_Cnj(v, 0, 2, 1, 1.2, 10**6, rng(14))
    assert abs(est.value - want) <= 4.0 * est.stderr
    w = GaussianMixturePotential([1.0, -0.5], [1.0, 1.6], [0.0, 0.7], d=1)
    want = w.integral_power(3) / 6.0
    est = coeff.mc_coefficient_Cnj(w, 0, 3, 1, 1.2, 2 * 10**6, rng(15))
    assert abs(est.value - want) <= 4.0 * est.stderr


def test_c0j_convention_gate_d2():
    v = GaussianPotential(1.0, 1.0, center=(0.0, 0.0))
    want = v.integral_power(2) / 2.0
    est = coeff.mc_coefficient_Cnj(v, 0, 2, 2, 1.0, 10**6, rng(13))
    assert abs(est.value - want) <= 4.0 * est.stderr


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
    assert abs(est.value - want) <= 4.0 * est.stderr
    assert abs(est.value - want) / want < 0.01


def test_c22_matches_constant_N_at_alpha2():
    v = GaussianPotential(1.0, 1.0)
    est = coeff.mc_coefficient_Cnj(v, 2, 2, 1, 2.0, 4 * 10**6, rng(19))
    want = coeff.constant_N(1, 2.0, 0, rng()).value * v.biharmonic_energy()
    assert abs(est.value - want) <= 4.0 * est.stderr


def test_cnj_zero_potential():
    # the exact 0 of a zero potential records no sampling, since none ran
    v = GaussianPotential(0.0, 1.0)
    est = coeff.mc_coefficient_Cnj(v, 0, 2, 1, 1.0, 10**4, rng(20))
    assert (est.value, est.stderr, est.n_samples) == (0.0, 0.0, 0)
    assert est.params["method"] == "zero_potential" and "scrambles" not in est.params


def test_cnj_validity_rejection():
    v = GaussianPotential(1.0, 1.0)
    with pytest.raises(ValueError, match="violated"):
        coeff.mc_coefficient_Cnj(v, 2, 2, 1, 1.0, 100, rng())
    with pytest.raises(ValueError):
        coeff.mc_coefficient_Cnj(v, 0, 1, 1, 1.0, 100, rng())


@pytest.mark.parametrize("n,d,alpha,refused", [
    (2, 1, 1.9, True), (2, 2, 1.5, True), (1, 1, 0.9, True), (1, 1, 1.1, False),
    (2, 3, 1.5, False), (1, 1, 1.0, True),
])
def test_cnj_refuses_infinite_variance(n, d, alpha, refused):
    # where alpha <= 2n - d the sampled increment factor x_M of C_{n,2} has
    # an infinite variance: its second moment, the increment moment of M + M
    # with S_1^-(2n+d), is refused as divergent.  The exact factor computes
    # every cell, within 4 sigma of its closed form; validate_params admits all
    v = GaussianPotential(1.0, 1.0, center=(0.0,) * d)
    m = (0,) * n
    if refused:
        with pytest.raises(ValueError, match="diverges"):
            coeff._increment_moment(m + m, 2, 2 * n, 2 * d, alpha)
    else:
        coeff._increment_moment(m + m, 2, 2 * n, 2 * d, alpha)
    est = coeff.mc_coefficient_Cnj(v, n, 2, d, alpha, 1 << 20, rng(2))
    want = (_exact_l_gradient if n == 1 else _exact_n_biharmonic)(v, alpha)
    assert abs(est.value - want) <= 4.0 * est.stderr, (est.value - want) / est.stderr


# (j, n, d, alpha) with alpha > 2n - d, where a sampled x_M has a finite
# variance and its RQMC mean a sound error bar
SAMPLED_MOMENTS = [(2, 1, 1, 1.8), (3, 1, 1, 1.5), (2, 2, 3, 1.5), (3, 2, 3, 1.5),
                   (3, 1, 2, 1.2)]


@pytest.mark.parametrize("j,n,d,alpha", SAMPLED_MOMENTS)
@pytest.mark.parametrize("seed", [0, 1])
def test_increment_moment_matches_sampled_moments(j, n, d, alpha, seed):
    # thresholds fixed before the first run: every multiset's mean of x_M
    # over 2^20 points of _increments' columns, SCRAMBLES scrambles of 2^15,
    # lies within 4 sigma of _increment_moment
    terms, pairs = coeff._multisets(j, n), coeff._pairs(j)
    r, m = rng(seed), 1 << 15
    means = []
    for _ in range(coeff.SCRAMBLES):
        u = sobol.ScrambledSobol(3 * j, m, r).stream(0, m).T
        heads, incs, totals = coeff._increments(alpha, u[:, :j], u[:, j:])
        x, s = [heads, *incs.T], totals ** -(n + d / 2.0)
        means.append([math.prod((x[pairs[t][0]] * x[pairs[t][1]] for t in ms), start=s).mean()
                      for ms, _ in terms])
    means = np.array(means)
    exact = np.array([coeff._increment_moment(ms, j, n, d, alpha) for ms, _ in terms])
    z = (means.mean(axis=0) - exact) / (means.std(axis=0, ddof=1) / math.sqrt(coeff.SCRAMBLES))
    assert np.all(np.abs(z) <= 4.0), z


def test_order_admitted_exactly_where_increment_moments_are_finite():
    # _require_order admits n exactly where every Gamma argument of
    # _increment_moment is positive, n < alpha + d/2; the alpha grid misses
    # the boundaries, which lie on multiples of 1/2
    for d, n, j in itertools.product((1, 2, 3), (1, 2), (2, 3)):
        for alpha in [0.05 + 0.1 * k for k in range(20)] + [2.0]:
            try:
                coeff._require_order(n, d, alpha, "C")
                admitted = True
            except ValueError:
                admitted = False
            try:
                for ms, _ in coeff._multisets(j, n):
                    coeff._increment_moment(ms, j, n, d, alpha)
                finite = True
            except ValueError:
                finite = False
            assert admitted == finite == (alpha == 2.0 or n < alpha + d / 2.0), (d, n, alpha)


def test_increment_moment_special_cases():
    # the empty multiset is E[S_1^{-d/2}]; at alpha = 2 the increments are
    # their times, Dirichlet(2, 1, 1) at j = 3: E[g_0 g_1] = 1/10, E[g_1 g_2] = 1/20
    for d, alpha in ((1, 0.7), (2, 1.3), (3, 1.9)):
        assert coeff._increment_moment((), 2, 0, d, alpha) == pytest.approx(
            sub.stable_moment(alpha, -d / 2.0), rel=1e-14)
    got = [coeff._increment_moment((t,), 3, 1, 2, 2.0) for t in range(3)]
    assert got == pytest.approx([1 / 10, 1 / 10, 1 / 20], rel=1e-14)


# ---------------------------------------------------------------------------
# schedules and validity


def test_phi_exponent():
    assert coeff.phi_exponent(3, 1, 1.0) == 4.0
    assert coeff.phi_exponent(5, 2, 1.0) == 6.0


def test_schedule_alpha1_example():
    sched = coeff.exponent_schedule(5, 2, 1.0, 1)
    assert sched.cutoff == 6.0
    assert np.allclose([e.exponent for e in sched.entries], [1, 2, 3, 4, 4, 5, 5])
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


# ---------------------------------------------------------------------------
# samplers on their own uniform columns


def test_samplers_transform_their_columns():
    # each sampler is the inverse transform of its columns: the simplex sorts
    # them, Kanter's inputs are pi U and -log U, a mixture's theta picks its
    # component by the cdf of the weights and scales the normals ndtri(U)
    u = sobol.ScrambledSobol(14, 64, rng(2)).stream(0, 64).T
    heads, incs, totals = coeff._increments(1.5, u[:, :2], u[:, 2:6])
    lam = np.sort(u[:, :2], axis=1)[:, ::-1]
    want = sub.increments_batch(1.5, lam, np.pi * u[:, 2:4], -np.log(u[:, 4:6]))
    assert all(np.array_equal(a, b) for a, b in zip((heads, incs, totals), want))
    v = GaussianMixturePotential([1.0, -1.0, 0.5], [1.0, 0.5, 2.0], [0.0, 0.0, 0.0])
    th = v.proposal_sample(u[:, 6:12], 3)
    comp = (u[:, 6:9] >= 0.4).astype(int) + (u[:, 6:9] >= 0.8)
    assert np.array_equal(th[..., 0], special.ndtri(u[:, 9:12]) * np.sqrt(2.0) / v.s[comp])
    g = GaussianPotential(1.0, 0.5, center=[0.0, 0.0])
    assert np.array_equal(g.proposal_sample(u[:, 12:14], 1),
                          (special.ndtri(u[:, 12:14]) * np.sqrt(2.0) / 0.5)[:, None, :])


def test_samplers_refuse_a_wrong_column_count():
    # a column declared but not consumed, or consumed but not declared,
    # would silently correlate two inputs or waste a dimension
    u = rng(3).random((16, 8))
    with pytest.raises(ValueError, match="j >= 2"):
        coeff._sorted_simplex(u[:, :1])
    lam = coeff._sorted_simplex(u[:, :3])
    for alpha, width in ((1.5, 2), (1.5, 4), (2.0, 3)):
        with pytest.raises(ValueError, match="Kanter inputs"):
            sub.increments_batch(alpha, lam, u[:, :width], u[:, 4:4 + width])
    with pytest.raises(ValueError, match="Kanter inputs"):
        coeff._increments(1.5, u[:, :2], u[:, 2:7])
    v = GaussianMixturePotential([1.0, -0.5], [1.0, 2.0], [0.0, 1.0])
    for width in (3, 5):
        with pytest.raises(ValueError, match="take 4 columns"):
            v.proposal_sample(u[:, :width], 2)
    with pytest.raises(ValueError, match="take 2 columns"):
        GaussianPotential(1.0, 1.0).proposal_sample(u[:, :4], 2)
