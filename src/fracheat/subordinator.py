"""Exact samplers, moments and tail bounds for one-sided stable subordinators.

The central object is the alpha/2-subordinator ``S_t``, the nondecreasing
Levy process with Laplace transform ``E[exp(-lam*S_t)] = exp(-t*lam**(alpha/2))``
for ``0 < alpha <= 2``.  Sampling uses the Kanter/Chambers-Mallows-Stuck
representation, which is exact (no discretization bias) and O(1) per draw.
Two subordinate families are layered on top: the relativistic subordinator
with Laplace exponent ``(lam + m**(2/alpha))**(alpha/2) - m`` (sampled by
exponential tilting/rejection) and the mixed subordinator with exponent
``lam**(alpha/2) + a*lam**(beta/2)`` (sampled as an independent sum).

All samplers take an explicit ``numpy.random.Generator`` and a sample
count, and return a 1-D array of that many draws; identical seeds give
identical sample sequences.  :func:`increments_batch` takes Kanter's
inputs instead, so that its callers can supply them from any source of
uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy import special

__all__ = [
    "SubordinatorSpec",
    "sample_stable",
    "stable_moment",
    "sample_increments",
    "increments_batch",
    "tail_lower_bound",
    "upper_threshold",
    "N1_CLOSED_FORM",
    "sample_relativistic",
    "sample_mixed",
    "density_half",
]

# Gamma evaluations are routed through this hook so the acceptance suite can
# fault-inject a corrupted gamma function and verify the moment checks fail.
_gamma = special.gamma

#: Explicit alpha=1 threshold {1 - (sqrt(pi)/2)(e^{1/4}-1)}^{-2} ~ 1.786 with
#: P(1 < S_1 < N_1) >= (1 - e^{-1/4})/2.
N1_CLOSED_FORM = (1.0 - 0.5 * math.sqrt(math.pi) * (math.exp(0.25) - 1.0)) ** -2

#: upper_threshold takes the empirical quantile this far above the required level.
_THRESHOLD_MARGIN = 0.01
#: sample_relativistic refuses an expected acceptance rate exp(-m t) below this.
_MIN_ACCEPTANCE = 1e-6
#: Proposals sample_relativistic draws at once at most, bounding its working
#: set beyond the returned array.
_MAX_PROPOSALS = 1 << 16


def _validate_alpha(alpha: float, *, allow_two: bool = True) -> None:
    hi_ok = alpha <= 2.0 if allow_two else alpha < 2.0
    if not (0.0 < alpha and hi_ok):
        bound = "(0, 2]" if allow_two else "(0, 2)"
        raise ValueError(f"alpha={alpha} outside {bound}")


@dataclass(frozen=True)
class SubordinatorSpec:
    """A subordinator family together with its Laplace exponent phi.

    ``phi(0) = 0`` and phi is nondecreasing on (0, inf) for every family.
    Construction is the one check of each family's parameters: ``None``
    leaves a parameter unset, and a set parameter the family does not use
    is refused at any value, as is an unset one it needs.
    """

    family: str
    alpha: float
    m: float | None = None
    beta: float | None = None
    a: float | None = None

    #: family -> the parameters it takes besides alpha
    PARAMETERS = {"stable": (), "relativistic": ("m",), "mixed": ("beta", "a")}

    def __post_init__(self):
        if self.family not in self.PARAMETERS:
            raise ValueError(f"unknown family {self.family!r}")
        uses = self.PARAMETERS[self.family]
        unused = [k for k in ("m", "beta", "a") if getattr(self, k) is not None and k not in uses]
        if unused:
            raise ValueError(f"{self.family} family does not use {', '.join(unused)}")
        missing = [k for k in uses if getattr(self, k) is None]
        if missing:
            raise ValueError(f"{self.family} family needs {', '.join(missing)}")
        if self.family == "mixed":
            if not (0.0 < self.alpha < self.beta < 2.0):
                raise ValueError("mixed family needs 0 < alpha < beta < 2")
            if self.a <= 0:
                raise ValueError("mixed weight a must be > 0")
            return
        _validate_alpha(self.alpha, allow_two=self.family == "stable")
        if self.family == "relativistic" and self.m <= 0:
            raise ValueError("relativistic mass m must be > 0")

    @staticmethod
    def stable(alpha: float) -> "SubordinatorSpec":
        return SubordinatorSpec("stable", alpha)

    @staticmethod
    def relativistic(alpha: float, m: float) -> "SubordinatorSpec":
        return SubordinatorSpec("relativistic", alpha, m=m)

    @staticmethod
    def mixed(alpha: float, beta: float, a: float) -> "SubordinatorSpec":
        return SubordinatorSpec("mixed", alpha, beta=beta, a=a)

    def laplace_exponent(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.family == "stable":
            return lam ** (self.alpha / 2.0)
        if self.family == "relativistic":
            return (lam + self.m ** (2.0 / self.alpha)) ** (self.alpha / 2.0) - self.m
        return lam ** (self.alpha / 2.0) + self.a * lam ** (self.beta / 2.0)

    def sample(self, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.family == "stable":
            return sample_stable(self.alpha, t, rng, size=size)
        if self.family == "relativistic":
            return sample_relativistic(self.alpha, self.m, t, rng, size=size)
        return sample_mixed(self.alpha, self.beta, self.a, t, rng, size=size)


#: Draws per block of the Kanter transform and rows per block of the
#: C_{n,j} integrand.  2**14 float64 values are 128 KiB, so the temporaries
#: of one block stay in a 2 MiB L2 cache instead of streaming a whole batch
#: through memory.  Blocking changes no draw: each batch is drawn whole first.
_BLOCK = 1 << 14


def _row_blocks(n: int, width: int = 1):
    """Slices of at most ``_BLOCK // width`` rows that cover ``range(n)`` in order."""
    rows = max(1, _BLOCK // width)
    return (slice(lo, lo + rows) for lo in range(0, n, rows))


def _log_sin(x: np.ndarray) -> np.ndarray:
    # log sin x on [0, pi] through the half-angle tangent w = tan(x/2),
    # sin x = 2w / (1 + w^2).  Measured within 2.2 ulp of the exact sine,
    # ends included (np.sin: 0.5 ulp); numpy's float64 np.tan is vectorized
    # on AVX-512 and takes well under half the time of its np.sin there.
    w = np.tan(0.5 * x)
    return np.log(2.0 * w / (1.0 + w * w))


def _log_a(rho: float, u: np.ndarray) -> np.ndarray:
    # log A(u) of Kanter's representation S = (A(U)/E)^{(1-rho)/rho},
    # A(u) = sin(rho u)^{rho/(1-rho)} sin((1-rho)u) / sin(u)^{1/(1-rho)}.
    # Evaluated in log space: sin(u)^{-1/(1-rho)} overflows for u near pi
    # at rho close to 1.
    return (
        (rho / (1.0 - rho)) * _log_sin(rho * u)
        + _log_sin((1.0 - rho) * u)
        - _log_sin(u) / (1.0 - rho)
    )


def _kanter_log(rho: float, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    # log S_1 for uniforms u on (0, pi) and standard exponentials e
    return ((1.0 - rho) / rho) * (_log_a(rho, u) - np.log(e))


def _kanter_unit(rho: float, u: np.ndarray, e: np.ndarray, out: np.ndarray) -> np.ndarray:
    # S_1 = exp(_kanter_log(rho, u, e)) elementwise into out, which may be u
    # itself, evaluated about _BLOCK values at a time in blocks of rows; row
    # blocks are views in any memory layout, where flattening would copy the
    # column-major columns of a scrambled Sobol block
    for b in _row_blocks(u.shape[0], math.prod(u.shape[1:])):
        out[b] = np.exp(_kanter_log(rho, u[b], e[b]))
    return out


def sample_stable(alpha: float, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw samples of S_{t, alpha/2} with E[exp(-lam S_t)] = exp(-t lam^{alpha/2}).

    Uses self-similarity S_t =d= t^{2/alpha} S_1 and Kanter's uniform +
    exponential transform for S_1.  ``alpha = 2`` is the degenerate
    deterministic case: every draw is exactly ``t``.

    Parameters
    ----------
    alpha : stability parameter in (0, 2].
    t : time, > 0.
    rng : seeded numpy Generator.
    size : number of draws, the length of the returned array.
    """
    _validate_alpha(alpha)
    if t <= 0.0:
        raise ValueError(f"t={t} must be > 0")
    if alpha == 2.0:
        return np.full(size, float(t))
    u = rng.uniform(0.0, np.pi, size)
    e = rng.standard_exponential(size)
    # S_1 overwrites its uniforms, block by block
    s = _kanter_unit(alpha / 2.0, u, e, u)
    s *= t ** (2.0 / alpha)
    return s


def stable_moment(alpha: float, eta: float) -> float:
    """E[S_{1,alpha/2}^eta] = Gamma(1 - 2 eta / alpha) / Gamma(1 - eta).

    Finite exactly for eta < alpha/2; larger eta raises (the moment
    diverges).  eta = 0 returns 1.
    """
    _validate_alpha(alpha)
    if eta >= alpha / 2.0:
        raise ValueError(f"moment diverges: eta={eta} >= alpha/2={alpha / 2.0}")
    if eta == 0.0:
        return 1.0
    return float(_gamma(1.0 - 2.0 * eta / alpha) / _gamma(1.0 - eta))


def _check_lambda(lam: np.ndarray) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("lam must be a vector of length >= 2")
    if not (np.all(np.diff(lam) < 0) and lam[-1] > 0.0 and lam[0] < 1.0):
        raise ValueError("lam must satisfy 0 < lam_j < ... < lam_1 < 1")
    return lam


def sample_increments(alpha: float, lam, rng: np.random.Generator):
    """Sample the independent increments attached to one ordered simplex point.

    The n = 1 case of :func:`increments_batch`, with Kanter's inputs drawn
    from ``rng``: returns ``(head, incs, total)`` with head distributed as
    S_{1-(lam_1-lam_j)}, ``incs[k]`` as S_{lam_k-lam_{k+1}}, all mutually
    independent, and ``total = head + sum(incs)`` a sample of S_1 by
    construction.
    """
    lam = _check_lambda(lam)[None, :]
    shape = lam.shape if alpha < 2.0 else (1, 0)
    u = rng.uniform(0.0, np.pi, shape)
    e = rng.standard_exponential(shape)
    heads, incs, totals = increments_batch(alpha, lam, u, e)
    return float(heads[0]), incs[0], float(totals[0])


def increments_batch(alpha: float, lam: np.ndarray, u: np.ndarray, e: np.ndarray):
    """Vectorized increments for a batch of simplex points.

    ``lam`` has shape (n, j), each row strictly decreasing in (0, 1).  ``u``
    (uniform on (0, pi)) and ``e`` (standard exponential) are the inputs of
    Kanter's transform, one per increment: shape (n, j) below alpha = 2 and
    (n, 0) at alpha = 2, where the increments are deterministic.  Returns
    ``(heads, incs, totals)`` with shapes (n,), (n, j-1), (n,).
    """
    lam = np.asarray(lam, dtype=float)
    n, j = lam.shape
    want = (n, j if alpha < 2.0 else 0)
    if u.shape != want or e.shape != want:
        raise ValueError(f"Kanter inputs of shapes {u.shape} and {e.shape}; "
                         f"{want} at alpha={alpha} and lam of shape {lam.shape}")
    # column arithmetic: np.diff and .sum(axis=1) on a few columns spend
    # most of their time in per-row overhead; the values are the same
    gaps = lam[:, :-1] - lam[:, 1:]
    head_times = 1.0 - (lam[:, 0] - lam[:, -1])
    if alpha == 2.0:
        heads, incs = head_times, gaps
    else:
        scale = 2.0 / alpha
        unit = _kanter_unit(alpha / 2.0, u, e, np.empty(u.shape))
        heads = head_times**scale * unit[:, 0]
        incs = gaps**scale * unit[:, 1:]
    inc_sum = incs[:, 0]
    for k in range(1, incs.shape[1]):
        inc_sum = inc_sum + incs[:, k]
    return heads, incs, heads + inc_sum


def tail_lower_bound(alpha: float):
    """Constants (v_alpha, p_lower) of the S_1 tail estimate.

    v_alpha = (2-alpha) alpha^{alpha/(2-alpha)} 2^{-2/(2-alpha)} and
    p_lower = (1 - exp(-v_alpha))/2; there exists N_alpha > 1 with
    P(1 < S_1 < N_alpha) >= p_lower.
    """
    _validate_alpha(alpha, allow_two=False)
    v = (2.0 - alpha) * alpha ** (alpha / (2.0 - alpha)) * 2.0 ** (-2.0 / (2.0 - alpha))
    return v, (1.0 - math.exp(-v)) / 2.0


def upper_threshold(alpha: float, rng: np.random.Generator, n_samples: int) -> float:
    """Empirical N_alpha with P(S_1 < N_alpha) >= (1 + exp(-v_alpha))/2.

    Only existence of N_alpha is guaranteed in general; this picks the
    empirical quantile of ``n_samples`` draws at the required level plus
    ``_THRESHOLD_MARGIN``.
    For alpha = 1 the closed form :data:`N1_CLOSED_FORM` is available
    instead.
    """
    v, _ = tail_lower_bound(alpha)
    level = (1.0 + math.exp(-v)) / 2.0 + _THRESHOLD_MARGIN
    level = min(level, 1.0 - 1e-9)
    s = sample_stable(alpha, 1.0, rng, size=n_samples)
    return float(np.quantile(s, level))


def sample_relativistic(
    alpha: float,
    m: float,
    t: float,
    rng: np.random.Generator,
    size: int,
    return_stats: bool = False,
):
    """Draw samples of the relativistic subordinator S_{t,m}.

    The density factorizes as exp(m t) * eta_t^{(alpha/2)}(s) * exp(-m^{2/alpha} s),
    so rejection from the stable proposal with acceptance probability
    exp(-m^{2/alpha} s) is exact.  The expected acceptance rate is exp(-m t);
    the call is refused when that falls below ``_MIN_ACCEPTANCE``.  Proposals
    are drawn in batches of at most ``_MAX_PROPOSALS``, each sized to fill
    the remaining samples with a 20% margin.  Returns ``size`` draws as a
    1-D array.

    With ``return_stats=True`` also returns the total numbers of proposals
    and of accepted proposals (the retained samples are the first ``size``
    accepted ones, so accepted/proposals is the empirical acceptance rate).
    """
    SubordinatorSpec("relativistic", alpha, m=m)  # checks alpha and m
    if t <= 0:
        raise ValueError(f"t={t} must be > 0")
    expected_rate = math.exp(-m * t)
    if expected_rate < _MIN_ACCEPTANCE:
        raise RuntimeError(
            f"expected acceptance rate exp(-m t)={expected_rate:.3e} below "
            f"floor {_MIN_ACCEPTANCE:.1e}; m*t too large for rejection sampling"
        )
    tilt = m ** (2.0 / alpha)
    out = np.empty(size)
    filled = 0
    proposals = 0
    accepted = 0
    while filled < size:
        batch = min(_MAX_PROPOSALS, max(1024, int(1.2 * (size - filled) / expected_rate)))
        s = sample_stable(alpha, t, rng, size=batch)
        keep = rng.uniform(0.0, 1.0, batch) < np.exp(-tilt * s)
        kept = s[keep]
        proposals += batch
        accepted += kept.size
        take = min(kept.size, size - filled)
        out[filled : filled + take] = kept[:take]
        filled += take
    if return_stats:
        return out, proposals, accepted
    return out


def sample_mixed(
    alpha: float, beta: float, a: float, t: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw samples of the mixed subordinator S_{t,a} = S_{t,alpha/2} + a^{2/beta} S_{t,beta/2}.

    The two summands are independent; the Laplace transform is
    exp(-t (lam^{alpha/2} + a lam^{beta/2})).  Returns ``size`` draws as a
    1-D array.
    """
    SubordinatorSpec("mixed", alpha, beta=beta, a=a)  # checks alpha, beta, a; t below
    s_a = sample_stable(alpha, t, rng, size=size)
    s_b = sample_stable(beta, t, rng, size=size)
    s_b *= a ** (2.0 / beta)
    s_b += s_a
    return s_b


def density_half(t, s):
    """Transition density of the 1/2-subordinator (alpha = 1).

    eta_t^{(1/2)}(s) = t (2 sqrt(pi))^{-1} s^{-3/2} exp(-t^2/(4 s)).
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t <= 0) or np.any(s <= 0):
        raise ValueError("need t > 0 and s > 0")
    return t / (2.0 * np.sqrt(np.pi)) * s**-1.5 * np.exp(-(t**2) / (4.0 * s))
