"""Acceptance suite: every headline property at its stated budget and tolerance.

Each criterion is declared once, by _criterion, which seeds, times and lists
it; the suite runs them in order, prints one pass/fail line per criterion and
collects a machine-readable report.  Criteria are property-based (closed
forms, Monte Carlo error bars, cross-pipeline agreement) and desk-scale; the
seed is arbitrary and every tolerance is seed-robust.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import coefficients as coeff
from . import heat_kernel as hk
from . import potential as pot
from . import subordinator as sub
from . import trace_oracle as oracle

__all__ = ["CriterionResult", "acceptance_suite", "CRITERIA"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    seconds: float
    detail: str
    checks: list = field(default_factory=list)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name} ({self.seconds:.1f}s) {self.detail}"


#: The criteria in declaration order; the suite seeds criterion i with [seed, i].
CRITERIA = []


def _criterion(name):
    """Declare body(rng) -> (checks, detail), checks of (ok, message), as criterion ``name``.

    The criterion takes a seed, runs the body on default_rng(seed), times it
    and passes when every check does; it is appended to CRITERIA.
    """
    def declare(body):
        @functools.wraps(body)
        def criterion(seed) -> CriterionResult:
            t0 = time.time()
            checks, detail = body(np.random.default_rng(seed))
            passed = all(ok for ok, _ in checks)
            if not passed:
                failed = "; ".join(m for ok, m in checks if not ok)
                detail = detail + " || " + failed if detail else failed
            return CriterionResult(name, passed, time.time() - t0, detail, [m for _, m in checks])
        CRITERIA.append(criterion)
        return criterion
    return declare


def _conditional_moment(alpha: float, eta: float, n: int, rng) -> float:
    # Conditional Monte Carlo mean of S_1^eta: the exponential factor of the
    # Kanter representation S = (A(U)/E)^{(1-rho)/rho} is integrated out
    # analytically (E[E^{-kappa}] = Gamma(1 - kappa), kappa < 1 whenever
    # eta < alpha/2) and U is sampled on jittered strata.  Unbiased, same
    # draw count, variance far below the plain empirical mean; this is what
    # makes the 1%-relative clause meaningful at 1e6 samples for the
    # heavy-tailed cells like (alpha, eta) = (0.5, -1.5).
    rho = alpha / 2.0
    kappa = eta * (1.0 - rho) / rho
    u = (np.arange(n) + rng.uniform(0.0, 1.0, n)) * (np.pi / n)
    return float(special.gamma(1.0 - kappa) * np.exp(kappa * sub._log_a(rho, u)).mean())


@_criterion("01 moment identity")
def criterion_01_moment_identity(rng):
    """Empirical moments of S_1 vs Gamma(1-2 eta/alpha)/Gamma(1-eta)."""
    n = 10**6
    checks = []
    for alpha in (0.5, 1.0, 1.5, 1.9):
        for eta in (-1.5, -1.0, -0.5, 0.2 * alpha):
            exact = sub.stable_moment(alpha, eta)
            est = hk.Estimate.of_samples(sub.sample_stable(alpha, 1.0, rng, size=n) ** eta, 1.0)
            ok4 = abs(est.value - exact) <= 4.0 * est.stderr
            cond = _conditional_moment(alpha, eta, n, rng)
            ok1 = abs(cond - exact) <= 0.01 * abs(exact)
            checks.append(
                (ok4 and ok1,
                 f"alpha={alpha} eta={eta:.2f}: plain z={(est.value - exact) / est.stderr:+.2f}, "
                 f"conditional rel={abs(cond - exact) / exact:.2e}")
            )
    return checks, f"{len(checks)} (alpha, eta) cells, 1e6 samples each"


@_criterion("02 kernel-at-zero moment identity")
def criterion_02_kernel_moment_link(rng):
    """(4 pi)^{d/2} p_1(0) equals E[S_1^{-d/2}] to relative 1e-10."""
    checks = []
    for d in (1, 2, 3):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            lhs = (4.0 * math.pi) ** (d / 2.0) * hk.kernel_at_zero(d, alpha)
            rhs = sub.stable_moment(alpha, -d / 2.0)
            rel = abs(lhs - rhs) / rhs
            checks.append((rel <= 1e-10, f"d={d} alpha={alpha}: rel={rel:.1e}"))
    return checks, "12 (d, alpha) pairs"


@_criterion("03 Cauchy closed form")
def criterion_03_cauchy_closed_form(rng):
    """Quadrature kernel at d=1, alpha=1 vs t/(pi (t^2 + x^2)), abs 1e-6."""
    checks = []
    for t in (0.05, 0.1, 0.3, 0.6, 0.9):
        for x in (0.0, 0.5, 1.0, 3.0):
            got = hk.kernel_value(1, 1.0, t, x)
            want = t / (math.pi * (t**2 + x**2))
            err = abs(got - want)
            checks.append((err <= 1e-6, f"t={t} x={x}: abs err={err:.1e}"))
    return checks, "20-point (t, x) grid"


@_criterion("04 K constants at alpha=2")
def criterion_04_constants_at_two(rng):
    """Closed-form path: K1 = 1/12, K2 = 1/60, L = 1/12, N = 1/120."""
    k1 = coeff.deterministic_constant_K("K1", 2, 2.0)
    k2 = coeff.deterministic_constant_K("K2", 2, 2.0)
    checks = [
        (abs(k1 - 1.0 / 12.0) <= 1e-10, f"K1={k1!r}"),
        (abs(k2 - 1.0 / 60.0) <= 1e-10, f"K2={k2!r}"),
    ]
    for d in (1, 2):
        lv = coeff.constant_L(d, 2.0, 0, rng).value
        nv = coeff.constant_N(d, 2.0, 0, rng).value
        checks.append((abs(lv - 1.0 / 12.0) <= 1e-10, f"L(d={d},2)={lv!r}"))
        checks.append((abs(nv - 1.0 / 120.0) <= 1e-10, f"N(d={d},2)={nv!r}"))
    return checks, "closed-form path"


@_criterion("05 L constant tends to 1/12")
def criterion_05_robustness_trend(rng):
    """|L_{1,alpha} - 1/12| decreases over alpha in {1.7, 1.8, 1.9, 1.95}."""
    gaps = []
    for alpha in (1.7, 1.8, 1.9, 1.95):
        est = coeff.constant_L(1, alpha, 10**7, rng)
        gaps.append(abs(est.value - 1.0 / 12.0))
    checks = [
        (gaps[i] > gaps[i + 1], f"|gap|({i}) {gaps[i]:.5f} !> {gaps[i + 1]:.5f}")
        for i in range(3)
    ]
    checks.append((gaps[-1] < 0.015, f"final gap {gaps[-1]:.5f} >= 0.015"))
    return checks, "gaps " + ", ".join(f"{g:.5f}" for g in gaps)


@_criterion("06 coefficient convention gate")
def criterion_06_coefficient_convention(rng):
    """n=0 coefficients reproduce int V^j / j!: the convention gate."""
    v = pot.GaussianPotential(1.0, 1.0)
    checks = []
    for j in (2, 3):
        want = v.integral_power(j) / math.factorial(j)
        est = coeff.mc_coefficient_Cnj(v, 0, j, 1, 1.0, 2**22, rng)
        z = (est.value - want) / est.stderr
        rel = abs(est.value - want) / want
        checks.append(
            (abs(z) <= 4.0 and rel <= 0.02, f"j={j}: z={z:+.2f} rel={rel:.2e}")
        )
    return checks, "C_{0,2} = int V^2/2, C_{0,3} = int V^3/6"


@_criterion("07 cross-pipeline C_{1,2}")
def criterion_07_cross_pipeline(rng):
    """C_{1,2} estimate equals L_{1,alpha} * int |grad V|^2 within 3 sigma."""
    v = pot.GaussianPotential(1.0, 1.0)
    dir_e = v.dirichlet_energy()
    checks = []
    for alpha in (1.6, 1.8):
        c12 = coeff.mc_coefficient_Cnj(v, 1, 2, 1, alpha, 8 * 10**6, rng)
        lconst = coeff.constant_L(1, alpha, 8 * 10**6, rng)
        diff = c12.value - lconst.value * dir_e
        sigma = math.hypot(c12.stderr, lconst.stderr * dir_e)
        checks.append(
            (abs(diff) <= 3.0 * sigma,
             f"alpha={alpha}: diff={diff:+.2e} ({abs(diff) / sigma:.2f} sigma)")
        )
    return checks, "Fourier-side MC vs K1-route constant"


_WELL = pot.GaussianPotential(-1.0, 1.0)


@_criterion("08 trace expansion vs functionals")
def criterion_08_trace_expansion(rng):
    """Spectral oracle reproduces -int V, int V^2/2, -int V^3/6 at d=1, alpha=1."""
    grid = oracle.SpectralGrid(1, 40.0, 1024)
    tg = np.geomspace(1e-3, 1e-1, 40)
    v = _WELL
    curve = oracle.extrapolated_trace_curve(v, 1.0, grid, tg)
    gate_n = curve.meta["grid_doubling_max_rel_change"]
    gate_l = oracle.domain_convergence(v, 1.0, grid, tg)
    fit = oracle.fit_expansion(curve, [1.0, 2.0, 3.0, 4.0])
    targets = {
        1.0: (-v.integral_power(1), 0.01),
        2.0: (v.integral_power(2) / 2.0, 0.05),
        3.0: (-v.integral_power(3) / 6.0, 0.10),
    }
    checks = [
        (gate_n < 1e-4, f"grid gate {gate_n:.2e} >= 1e-4"),
        (gate_l < 1e-4, f"domain gate {gate_l:.2e} >= 1e-4"),
    ]
    rels = []
    for e, (want, tol) in targets.items():
        got, _ = fit.coefficient_at(e)
        rel = abs(got - want) / abs(want)
        rels.append(f"t^{e:g} {rel:.2%}")
        checks.append((rel <= tol, f"t^{e:g}: rel err {rel:.2%} > {tol:.0%}"))
    return checks, f"gates {gate_n:.1e}/{gate_l:.1e}; " + ", ".join(rels)


@_criterion("09 exponent exactness")
def criterion_09_exponent_exactness(rng):
    """The t^{2+2/alpha} term is absent at alpha=1 and present (negative) at alpha=1.8."""
    v = _WELL
    anom = 2.0 + 2.0 / 1.8
    grid = oracle.SpectralGrid(1, 40.0, 1024)
    tg = np.geomspace(0.05, 0.4, 50)
    anchors = {
        1.0: -v.integral_power(1),
        2.0: v.integral_power(2) / 2.0,
        3.0: -v.integral_power(3) / 6.0,
    }
    out = {}
    for alpha in (1.0, 1.8):
        curve = oracle.extrapolated_trace_curve(v, alpha, grid, tg)
        fit = oracle.fit_expansion(curve, [anom, 4.0, 5.0, 6.0], anchors=anchors)
        out[alpha] = fit.coefficient_at(anom)
    c1, s1 = out[1.0]
    c18, s18 = out[1.8]
    checks = [
        (abs(c1) <= 3.0 * s1, f"alpha=1 bogus coef {c1:+.4f} not within 3x{s1:.4f}"),
        (c18 < 0.0, f"alpha=1.8 coef {c18:+.4f} not negative"),
        (abs(c18) > 3.0 * s18, f"alpha=1.8 coef {c18:+.4f} not significant vs {s18:.4f}"),
    ]
    detail = (f"alpha=1: {c1:+.4f}+-{s1:.4f}; alpha=1.8: {c18:+.5f}+-{s18:.5f} "
              f"(expect ~ -L_1,1.8 * {v.dirichlet_energy():.4f})")
    return checks, detail


@_criterion("10 subordinator tail bound")
def criterion_10_tail_bound(rng):
    """P(1 < S_1 < N_alpha) >= (1 - exp(-v_alpha))/2 at 1e6 samples."""
    n = 10**6
    checks = []
    for alpha in (0.5, 1.0, 1.5):
        _, p_lower = sub.tail_lower_bound(alpha)
        if alpha == 1.0:
            n_alpha = sub.N1_CLOSED_FORM
        else:
            n_alpha = sub.upper_threshold(alpha, rng, n_samples=n)
        s = sub.sample_stable(alpha, 1.0, rng, size=n)
        freq = float(np.mean((s > 1.0) & (s < n_alpha)))
        checks.append(
            (freq >= p_lower,
             f"alpha={alpha}: P(1<S<{n_alpha:.3f})={freq:.5f} < bound {p_lower:.5f}")
        )
    return checks, "N_1 = 1.786 closed form; empirical thresholds elsewhere"


@_criterion("11 relativistic/mixed laws")
def criterion_11_relativistic_mixed(rng):
    """Laplace laws, acceptance rate, and the mixed-kernel lower bound."""
    n = 10**6
    checks = []
    # relativistic Laplace laws at the unit mass and at masses whose tilt
    # m^{2/alpha} is not m; the rejection acceptance rate at the first
    for alpha, m, t in ((1.0, 1.0, 0.5), (1.5, 2.0, 0.5), (1.0, 3.0, 0.2)):
        spec_rel = sub.SubordinatorSpec.relativistic(alpha, m)
        srel, proposals, accepted = sub.sample_relativistic(
            alpha, m, t, rng, size=n, return_stats=True
        )
        for lam in (0.5, 1.0, 2.0, 5.0):
            emp = hk.Estimate.of_samples(np.exp(-lam * srel), 1.0)
            z = (emp.value - math.exp(-t * spec_rel.laplace_exponent(lam))) / emp.stderr
            checks.append((abs(z) <= 4.0, f"relativistic m={m} lam={lam}: z={z:+.2f}"))
        if m == 1.0:
            rate, want = accepted / proposals, math.exp(-m * t)
            sigma = math.sqrt(want * (1.0 - want) / proposals)
            checks.append(
                (abs(rate - want) <= 3.0 * sigma,
                 f"acceptance rate {rate:.5f} vs e^-mt {want:.5f} "
                 f"({abs(rate - want) / sigma:.2f} sigma)")
            )
    # mixed Laplace laws at the unit weight and at weights whose scale
    # a^{2/beta} is not a
    for ab in ((0.8, 1.6, 1.0), (0.8, 1.6, 0.5), (1.2, 1.8, 3.0)):
        spec_mix = sub.SubordinatorSpec.mixed(*ab)
        smix = sub.sample_mixed(*ab, 1.0, rng, size=n)
        for lam in (0.5, 1.0, 2.0, 5.0):
            emp = hk.Estimate.of_samples(np.exp(-lam * smix), 1.0)
            z = (emp.value - math.exp(-spec_mix.laplace_exponent(lam))) / emp.stderr
            checks.append((abs(z) <= 4.0, f"mixed a={ab[2]} lam={lam}: z={z:+.2f}"))
    ab = dict(alpha=0.8, beta=1.6, a=1.0)
    # mixed kernel at zero: p_t(0) t^{d/beta} bounded below along the t grid
    d = 2
    floor = 0.25 * hk.kernel_at_zero(d, ab["beta"])
    ratios = []
    for tt in (1e-1, 1e-2, 1e-3, 1e-4):
        est = hk.mixed_kernel_at_zero(d, ab["alpha"], ab["beta"], ab["a"], tt, 2 * 10**6, rng)
        ratios.append(est.value * tt ** (d / ab["beta"]))
    checks.append(
        (min(ratios) >= floor,
         f"mixed kernel ratio min {min(ratios):.4f} < floor {floor:.4f}")
    )
    return checks, f"kernel ratios {['%.4f' % r for r in ratios]} floor {floor:.4f}"


@_criterion("12 schedule fidelity")
def criterion_12_schedule_fidelity(rng):
    """A_6(1) and A_7(2/3) reproduce the tabulated exponent matrices exactly."""
    a6 = np.array([
        [2, 0, 0, 0, 0],
        [3, 4, 0, 0, 0],
        [4, 5, 6, 0, 0],
        [5, 6, 7, 8, 0],
        [6, 7, 8, 9, 10],
    ], dtype=float)
    a7 = np.array([
        [2, 0, 0, 0, 0, 0],
        [3, 5, 0, 0, 0, 0],
        [4, 6, 8, 0, 0, 0],
        [5, 7, 9, 11, 0, 0],
        [6, 8, 10, 12, 14, 0],
        [7, 9, 11, 13, 15, 17],
    ], dtype=float)
    checks = [
        (np.array_equal(coeff.matrix_AJ(6, 1.0), a6), "A_6(1) mismatch"),
        (np.allclose(coeff.matrix_AJ(7, 2.0 / 3.0), a7, rtol=0, atol=1e-12),
         "A_7(2/3) mismatch"),
    ]
    return checks, "entry-exact matrices"


def acceptance_suite(seed: int, criteria):
    """Run the acceptance criteria, printing one line each; returns the CriterionResults.

    ``criteria`` is None for all of them, else tags such as "02" of which a
    criterion's name must contain one.  Criterion i draws from
    ``SeedSequence([seed, i])``, as in the tests, so a seed replays their draws.
    """
    results = []
    for i, fn in enumerate(CRITERIA):
        if criteria is not None and not any(tag in fn.__name__ for tag in criteria):
            continue
        res = fn(np.random.SeedSequence([seed, i]))
        results.append(res)
        print(res.line(), flush=True)
    return results
