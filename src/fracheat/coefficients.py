"""Expansion coefficients of the normalized heat-trace difference.

The small-time expansion of Tr(exp(-t H_V) - exp(-t H_alpha)) / p_t(0) is

    -t int V + sum_{n,j} (-1)^{n+j} C_{n,j}(V) t^{2n/alpha + j} + remainder,

with

    C_{n,j}(V) = C_{d,alpha} / ((2 pi)^{jd} n!) *
        int_{I_j} int E[S_1^{-d/2} L_j^n] Vhat(theta_1)...Vhat(theta_{j-1})
                                          Vhat(-(theta_1+...+theta_{j-1})) dtheta dlam,

where I_j is the ordered simplex 0 < lam_j < ... < lam_1 < 1,
C_{d,alpha} = pi^{d/2} / p_1^{(alpha)}(0), and L_j is a nonnegative random
quadratic form in the partial sums gamma_k = theta_1 + ... + theta_k weighted
by the subordinator increments.  This module evaluates L_j, estimates the
C_{n,j} and the closed-family constants K1/K2/K3 and L/M/N by randomized
quasi-Monte Carlo (closed Gamma-function forms of K1/K2/K3 at alpha = 2),
and generates exponent schedules with their validity conditions.

Both estimators run through one engine, _mc_estimate: each estimator
declares the column widths of its samplers (_sorted_simplex,
increments_batch, the potential's proposal_sample), every block of
scrambled Sobol points is split once by those widths, and each sampler
transforms its own columns and refuses any other count.  SCRAMBLES
independent scrambles of ceil(n / SCRAMBLES) points each are averaged, and
the stderr is the spread of the scramble means.
That stderr holds also where the integrand's fourth moment is infinite
(K1 at d = 1), but it needs a finite variance (not K2 at d <= 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .heat_kernel import Estimate, kernel_at_zero
from .potential import _add
from .sobol import ScrambledSobol
from .subordinator import _row_blocks, _validate_alpha, increments_batch

__all__ = [
    "ScheduleEntry",
    "ExponentSchedule",
    "ValidityReport",
    "c_d_alpha",
    "mc_constant_K",
    "deterministic_constant_K",
    "constant_L",
    "constant_M",
    "constant_N",
    "mc_coefficient_Cnj",
    "exponent_schedule",
    "matrix_AJ",
    "validate_params",
    "phi_exponent",
    "remainder_bound",
]

#: Independent scrambles behind every randomized quasi-Monte Carlo estimate.
SCRAMBLES = 32
#: Points of one scramble generated and evaluated together, bounding memory.
_CHUNK = 1 << 20


@dataclass(frozen=True)
class ScheduleEntry:
    exponent: float
    n: int
    j: int
    sign: int


@dataclass(frozen=True)
class ExponentSchedule:
    entries: tuple
    cutoff: float

    @property
    def exponents(self) -> np.ndarray:
        return np.array([e.exponent for e in self.entries])


@dataclass(frozen=True)
class ValidityReport:
    d: int
    alpha: float
    M: int
    basic_ok: bool
    improved_ok: bool
    max_M: int


def c_d_alpha(d: int, alpha: float) -> float:
    """C_{d,alpha} = pi^{d/2} / p_1^{(alpha)}(0); equals (2 pi)^d at alpha = 2."""
    return math.pi ** (d / 2.0) / kernel_at_zero(d, alpha)


# ---------------------------------------------------------------------------
# L_j functional


def _lj_batch(heads, incs, totals, thetas):
    """L_j for a batch of increments and theta vectors, by the expanded form.

    L_j = S_1^{-1} [ head * sum_k inc_k |gamma_k|^2
                     + sum_{r<s} inc_r inc_s |gamma_r - gamma_s|^2 ],
    a sum of nonnegative terms, immune to the cancellation of the compact
    form sum_k inc_k |gamma_k|^2 - |sum_k inc_k gamma_k|^2 / S_1 near
    degenerate lambda.  Shapes: heads and totals (n,), incs (n, j-1),
    thetas (n, j-1, d); returns (n,).
    """
    jm1, d = thetas.shape[1], thetas.shape[2]

    def norm2(x):
        return _add([x[:, c] ** 2 for c in range(d)])

    gam = list(itertools.accumulate(thetas[:, k] for k in range(jm1)))
    val = heads * _add([incs[:, k] * norm2(gam[k]) for k in range(jm1)])
    for r in range(jm1 - 1):
        val += _add([incs[:, r] * incs[:, s] * norm2(gam[r] - gam[s]) for s in range(r + 1, jm1)])
    return val / totals


# ---------------------------------------------------------------------------
# K constants


def _k_validity(which: str, d: int, alpha: float) -> None:
    # K2 carries L_2^2 and K1, K3 carry L_j once: Taylor orders 2 and 1
    if which not in ("K1", "K2", "K3"):
        raise ValueError(f"unknown constant {which!r}")
    _require_order(2 if which == "K2" else 1, d, alpha, which)


def _sorted_simplex(x):
    # uniform on I_j from uniforms x of shape (n, j): each row sorted,
    # descending; density j! on the simplex.  For j = 2, 3 a min/max
    # comparator network returns exactly the values np.sort does, without
    # its per-row call overhead.
    j = x.shape[1]
    if j < 2:
        raise ValueError(f"a point of the simplex I_j needs j >= 2 columns, got {j}")
    if j > 3:
        return np.sort(x, axis=1)[:, ::-1]
    out = np.empty_like(x)
    a, b = x[:, 0], x[:, 1]
    if j == 2:
        np.maximum(a, b, out=out[:, 0])
        np.minimum(a, b, out=out[:, 1])
        return out
    hi, lo, c = np.maximum(a, b), np.minimum(a, b), x[:, 2]
    np.maximum(hi, c, out=out[:, 0])
    np.minimum(hi, c, out=hi)
    np.maximum(lo, hi, out=out[:, 1])
    np.minimum(lo, hi, out=out[:, 2])
    return out


def _mc_estimate(sample_fn, widths, n_samples, scale, params, rng) -> Estimate:
    """scale times the mean of sample_fn over SCRAMBLES scrambled Sobol nets.

    Each scramble of ceil(n_samples / SCRAMBLES) points in sum(widths)
    dimensions is generated and evaluated on its own, at most _CHUNK points
    at a time: the block is split into consecutive columns of the given
    widths, and sample_fn receives one (points, width) view per width.  The
    value is the mean of the scramble means and the stderr their standard
    deviation over sqrt(SCRAMBLES).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples={n_samples} must be >= 1")
    m = -(-n_samples // SCRAMBLES)
    bounds = list(itertools.accumulate(widths))
    means = np.empty(SCRAMBLES)
    for r in range(SCRAMBLES):
        net = ScrambledSobol(bounds[-1], m, rng)
        total = 0.0
        for start in range(0, m, _CHUNK):
            # the previous block stays referenced until this one exists
            points = net.stream(start, min(_CHUNK, m - start))
            total += sample_fn(*np.split(points.T, bounds[:-1], axis=1)).sum()
        means[r] = total / m
    return Estimate(float(scale * means.mean()),
                    float(scale * means.std(ddof=1) / math.sqrt(SCRAMBLES)),
                    SCRAMBLES * m, dict(params, method="rqmc", scrambles=SCRAMBLES))


def _increments(alpha, simplex, kanter):
    # the increments at lam uniform on I_j, from j simplex columns and the
    # Kanter columns: pi U and -log U for each of the j increments below
    # alpha = 2, none at alpha = 2.  -log(1 - U) is the exponential in law;
    # 1 - U is the same net under a digital shift by all ones, so -log U
    # keeps every property and costs a fifth of log1p.
    lam = _sorted_simplex(simplex)
    j = lam.shape[1]
    return increments_batch(alpha, lam, np.pi * kanter[:, :j], -np.log(kanter[:, j:]))


def mc_constant_K(
    which: str, d: int, alpha: float, n_samples: int, rng: np.random.Generator
) -> Estimate:
    """Monte Carlo estimate of K1, K2 or K3.

    K1 = int_{I_2} E[ S*_{1-w} S*_w / (S*_{1-w}+S*_w)^{1+d/2} ],  w = lam_1-lam_2,
    K2 the same with squared numerator and exponent 2 + d/2, and K3 the
    I_3 integral of the symmetrized pair products over (head, inc_1, inc_2).
    Sampling: lam uniform on the simplex, increments exact, both by inverse
    transforms of scrambled Sobol points (randomized quasi-Monte Carlo); the
    estimator averages the integrand times the simplex volume.
    """
    _k_validity(which, d, alpha)
    j = 3 if which == "K3" else 2
    vol = 1.0 / math.factorial(j)

    def sample_fn(simplex, kanter):
        heads, incs, totals = _increments(alpha, simplex, kanter)
        if which == "K1":
            return incs[:, 0] * heads / totals ** (1.0 + d / 2.0)
        if which == "K2":
            return (incs[:, 0] * heads) ** 2 / totals ** (2.0 + d / 2.0)
        pair = heads * incs[:, 0] + heads * incs[:, 1] + incs[:, 0] * incs[:, 1]
        return pair / totals ** (1.0 + d / 2.0)

    # j simplex columns, then (U, E) for each of j increments below alpha = 2
    widths = (j, 2 * j if alpha < 2.0 else 0)
    return _mc_estimate(sample_fn, widths, n_samples, vol,
                        {"which": which, "d": d, "alpha": alpha}, rng)


def deterministic_constant_K(which: str, d: int, alpha: float) -> float:
    """K1, K2 or K3 in closed form, wherever _k_validity admits (which, d, alpha).

    x^{-s} = Gamma(s)^{-1} int u^{s-1} e^{-ux} du turns the simplex integrals
    into Dirichlet moments and the u-integrals into Gamma functions; with
    rho = alpha/2, s = 2 + d/2 and G(m) = Gamma((s + m rho - 4)/rho):

        K1 = (alpha/24) Gamma(2 + (d-2)/alpha) / Gamma(1 + d/2),   K3 = K1/2,
        K2 = [rho^4/60 G(4) - rho^3 (rho-1)/12 G(3) + rho^2 (rho-1)^2/12 G(2)] / (rho Gamma(s)).

    At alpha = 2 these are 1/12, 1/60 and 1/24 for every d.
    """
    _k_validity(which, d, alpha)
    if which == "K2":
        rho, s = alpha / 2.0, 2.0 + d / 2.0
        g = lambda m: math.gamma((s + m * rho - 4.0) / rho)
        return (rho**4 / 60.0 * g(4) - rho**3 * (rho - 1.0) / 12.0 * g(3)
                + rho**2 * (rho - 1.0) ** 2 / 12.0 * g(2)) / (rho * math.gamma(s))
    k1 = alpha / 24.0 * math.gamma(2.0 + (d - 2.0) / alpha) / math.gamma(1.0 + d / 2.0)
    return k1 / 2.0 if which == "K3" else k1


def _scaled_constant(which, d, alpha, n_samples, rng, factor):
    # factor times K: the closed form at alpha = 2, Monte Carlo below it
    if alpha == 2.0:
        k = deterministic_constant_K(which, d, alpha)
        return Estimate(
            value=factor * k, stderr=0.0, n_samples=0,
            params={"which": which, "d": d, "alpha": alpha, "method": "closed_form"},
        )
    est = mc_constant_K(which, d, alpha, n_samples, rng)
    return Estimate(
        value=factor * est.value, stderr=factor * est.stderr,
        n_samples=est.n_samples, params=est.params,
    )


def constant_L(d, alpha, n_samples, rng) -> Estimate:
    """L_{d,alpha} = C_{d,alpha} K1 / (2 pi)^d, the t^{2+2/alpha} prefactor:
    C_{1,2}(V) = L_{d,alpha} int |grad V|^2.  Tends to 1/12 as alpha -> 2."""
    factor = c_d_alpha(d, alpha) / (2.0 * math.pi) ** d
    return _scaled_constant("K1", d, alpha, n_samples, rng, factor)


def constant_N(d, alpha, n_samples, rng) -> Estimate:
    """N_{d,alpha} = C_{d,alpha} K2 / (2 (2 pi)^d):
    C_{2,2}(V) = N_{d,alpha} int |Delta V|^2.  Tends to 1/120 as alpha -> 2."""
    factor = c_d_alpha(d, alpha) / (2.0 * (2.0 * math.pi) ** d)
    return _scaled_constant("K2", d, alpha, n_samples, rng, factor)


def constant_M(d, alpha, n_samples, rng) -> Estimate:
    """M_{d,alpha} = 2 C_{d,alpha} K3 / (2 pi)^d, the t^{3+2/alpha} prefactor:
    C_{1,3}(V) = M_{d,alpha} int V |grad V|^2.  Tends to 1/12 as alpha -> 2.

    The factor 2 comes from int V^2 (-Delta V) = 2 int V |grad V|^2 when the
    three quadratic slots of L_3 are reduced to the weighted-gradient
    functional; with it, the alpha -> 2 limit of the prefactor is
    2 * K3 = 1/12 as expected from the classical expansion.
    """
    factor = 2.0 * c_d_alpha(d, alpha) / (2.0 * math.pi) ** d
    return _scaled_constant("K3", d, alpha, n_samples, rng, factor)


# ---------------------------------------------------------------------------
# Full Fourier-side coefficients


def mc_coefficient_Cnj(
    V, n: int, j: int, d: int, alpha: float, n_samples: int, rng: np.random.Generator
) -> Estimate:
    """Importance-sampled randomized quasi-Monte Carlo estimate of C_{n,j}(V).

    lam is uniform on the simplex I_j; each theta_i is drawn from the
    normalized envelope of |Vhat| (exact for the Gaussian family); the
    estimator carries the sign and phase through the product
    Vhat(-(theta_1+..+theta_{j-1})) * prod_i Vhat(theta_i) divided by the
    proposal density.  Every draw is an inverse transform of scrambled Sobol
    points, at most 32 dimensions: j + 2j (alpha < 2) + (j-1)(d + 1 for a
    mixture).  For n = 0 this reduces to int V^j / j!, the convention gate
    for all (2 pi) powers and simplex volumes.
    """
    if j < 2:
        raise ValueError("j must be >= 2 (the j = 1 term is -t int V)")
    if n < 0:
        raise ValueError("n must be >= 0")
    if V.d != d:
        raise ValueError(f"potential dimension {V.d} != d={d}")
    _require_order(n, d, alpha, f"C_{{{n},{j}}}")
    if V.proposal_mass == 0.0:
        # nothing to sample: every C_{n,j} of the zero potential is exactly 0
        return Estimate(0.0, 0.0, 0, params={"n": n, "j": j, "d": d, "alpha": alpha,
                                              "method": "zero_potential"})
    pref = c_d_alpha(d, alpha) / (
        (2.0 * math.pi) ** (j * d) * math.factorial(n) * math.factorial(j)
    )

    def integrand(heads, incs, totals, th):
        w = V.theta_weight(th)
        ljn = _lj_batch(heads, incs, totals, th) ** n if n > 0 else 1.0
        return totals ** (-d / 2.0) * ljn * w

    def sample_fn(simplex, kanter, theta):
        # every draw of the chunk first; then the integrand one cache-sized
        # row block at a time
        heads, incs, totals = _increments(alpha, simplex, kanter)
        th = V.proposal_sample(theta, j - 1)
        f = np.empty(th.shape[0])
        for b in _row_blocks(th.shape[0]):
            f[b] = integrand(heads[b], incs[b], totals[b], th[b])
        return f

    # j simplex columns, (U, E) for each of j increments below alpha = 2,
    # and per theta d normals and, when there are several components, a pick
    widths = (j, 2 * j if alpha < 2.0 else 0, (j - 1) * (d + (len(V.c) > 1)))
    return _mc_estimate(sample_fn, widths, n_samples, pref,
                        {"n": n, "j": j, "d": d, "alpha": alpha}, rng)


# ---------------------------------------------------------------------------
# Schedules and validity


def phi_exponent(J: int, M: int, alpha: float) -> float:
    """Cutoff Phi_{J+1}(M) = min{J+1, 2 + 2M/alpha} of the expansion error."""
    return min(J + 1.0, 2.0 + 2.0 * M / alpha)


def exponent_schedule(J: int, M: int, alpha: float, d: int) -> ExponentSchedule:
    """All admissible powers 2n/alpha + j below the cutoff, with labels and signs.

    Includes the (n, j) = (0, 1) linear term; the (n, j) range is
    0 <= n <= M-1, 2 <= j <= J filtered by exponent < Phi_{J+1}(M).
    """
    if J < 2 or M < 1:
        raise ValueError("need J >= 2 and M >= 1")
    cutoff = phi_exponent(J, M, alpha)
    entries = [ScheduleEntry(exponent=1.0, n=0, j=1, sign=-1)]
    for j in range(2, J + 1):
        for n in range(0, M):
            e = 2.0 * n / alpha + j
            if e < cutoff:
                entries.append(ScheduleEntry(e, n, j, (-1) ** (n + j)))
    entries.sort(key=lambda s: (s.exponent, s.j, s.n))
    return ExponentSchedule(entries=tuple(entries), cutoff=cutoff)


def matrix_AJ(J: int, alpha: float) -> np.ndarray:
    """The (J-1)x(J-1) lower-triangular matrix of candidate powers.

    a_{r,s} = (r - s + 2) + (2/alpha)(s - 1) for s <= r (1-indexed), i.e.
    n = s - 1 and j = r - s + 2 with n + j = r + 1; zero above the diagonal.
    """
    if J < 2:
        raise ValueError("J must be >= 2")
    A = np.zeros((J - 1, J - 1))
    for r in range(1, J):
        for s in range(1, r + 1):
            A[r - 1, s - 1] = (r - s + 2) + (2.0 / alpha) * (s - 1)
    return A


def validate_params(d: int, alpha: float, M: int) -> ValidityReport:
    """Admissibility of the Taylor order M at (d, alpha).

    basic_ok is the moment condition M < (d + alpha)/2; improved_ok the
    d <= 3, M <= 2 refinement M/2 - d/4 < alpha/2 (equivalently
    M < alpha + d/2).  max_M is the largest M admissible under either.
    """
    _validate_alpha(alpha, allow_two=False)
    if d < 1 or M < 1:
        raise ValueError(f"need d >= 1 and M >= 1, got d={d}, M={M}")

    def basic(m):
        return m < (d + alpha) / 2.0

    def improved(m):
        return d <= 3 and m <= 2 and m < alpha + d / 2.0

    max_m = 0
    m = 1
    while basic(m) or improved(m):
        max_m = m
        m += 1
    return ValidityReport(
        d=d, alpha=alpha, M=M, basic_ok=basic(M), improved_ok=improved(M), max_M=max_m
    )


def _require_order(n: int, d: int, alpha: float, what: str) -> None:
    """Refuse ``what``, which carries L_j^n, beyond validate_params' max_M (any n at alpha 2)."""
    _validate_alpha(alpha)
    max_m = validate_params(d, alpha, max(n, 1)).max_M if alpha < 2.0 else n
    if n > max_m:
        raise ValueError(
            f"{what}: validity violated for n={n} at d={d}, alpha={alpha}: "
            f"M < (d+alpha)/2 violated and (d<=3, M<=2) M/2 - d/4 < alpha/2 "
            f"violated for every M >= {n} (max admissible M = {max_m})"
        )


def remainder_bound(V, J: int, d: int, t: float) -> float:
    """Diagnostic constant bounding |r_{J+1}(t)| / p_t^{(alpha)}(0):

    (2 pi)^{(J+2)d} ||V||_inf^J exp(t ||V||_inf) ||V||_1 / (J+1)!  for t in (0,1).
    """
    if not (0.0 < t < 1.0):
        raise ValueError("t must lie in (0, 1)")
    sup = V.sup_norm
    return (
        (2.0 * math.pi) ** ((J + 2) * d)
        * sup**J
        * math.exp(t * sup)
        * V.l1_norm
        / math.factorial(J + 1)
    )
