"""Transition densities p_t^{(alpha)} of rotationally symmetric stable processes.

Closed form at the origin, adaptive quadrature of the radial Fourier
inversion integral off the origin, and Monte Carlo at-zero estimates for the
relativistic and mixed families via their subordinator moment
representations.  The Fourier convention is
p_t^{(alpha)}(x) = (2 pi)^{-d} int exp(i<xi,x>) exp(-t |xi|^alpha) dxi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .subordinator import (SubordinatorSpec, _validate_alpha, density_half, sample_mixed,
                           sample_stable)

__all__ = [
    "Estimate",
    "sphere_surface_area",
    "kernel_at_zero",
    "kernel_value",
    "kernel_value_subordination",
    "relativistic_kernel_at_zero",
    "mixed_kernel_at_zero",
]


@dataclass(frozen=True)
class Estimate:
    """An estimate with its standard error (0 on a deterministic route)."""

    value: float
    stderr: float
    n_samples: int
    params: dict = field(default_factory=dict)

    @classmethod
    def of_samples(cls, w: np.ndarray, scale: float) -> "Estimate":
        """``scale`` times the mean of the samples ``w``, with its standard error.

        The samples are independent draws, so ``params`` record plain Monte
        Carlo (``method="mc"``).  Fewer than 2 samples have no standard error
        and are refused.
        """
        if w.size < 2:
            raise ValueError(f"n={w.size} samples: a standard error needs at least 2")
        return cls(float(scale * w.mean()),
                   float(scale * w.std(ddof=1) / math.sqrt(w.size)), w.size,
                   {"method": "mc"})


def sphere_surface_area(d: int) -> float:
    """Surface area w_d of the unit sphere in R^d (w_1 = 2, w_2 = 2 pi, ...)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return float(2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0))


def kernel_at_zero(d: int, alpha: float) -> float:
    """p_1^{(alpha)}(0) = w_d Gamma(d/alpha) / ((2 pi)^d alpha), closed form.

    Gamma(d/alpha) above the float range (d/alpha > 171.6, as at small
    alpha) is refused with a ValueError.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    _validate_alpha(alpha)
    gamma = special.gamma(d / alpha)
    if math.isinf(gamma):
        raise ValueError(f"p_1(0) at d={d}, alpha={alpha}: Gamma(d/alpha), Gamma argument "
                         f"{d / alpha:.6g}, overflows a float (d/alpha > 171.6)")
    return float(sphere_surface_area(d) * gamma / ((2.0 * math.pi) ** d * alpha))


#: Relative tolerance of the kernel quadrature.
_REL_TOL = 1e-9
#: The radial integral is truncated where exp(-t r^alpha) falls below this.
_TINY = 1e-18
#: QUADPACK takes its subdivision limit as a C int.
_MAX_SUBDIVISIONS = 2**31 - 1


def _radius_cut(t: float, alpha: float) -> float:
    # truncation radius with exp(-t R^alpha) < _TINY; inf beyond the floats
    try:
        return (-math.log(_TINY) / t) ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def kernel_value(d: int, alpha: float, t: float, x) -> float:
    """p_t^{(alpha)}(x) by adaptive quadrature of the radial inversion integral.

    d = 1 uses one plain adaptive rule up to the truncation radius where that
    range spans at most 8 cosine periods (near the origin), else the
    cosine-weighted infinite-range rule; d >= 2 the Bessel radial reduction
    p_t(x) = (2 pi)^{-d/2} |x|^{1-d/2} int_0^inf J_{d/2-1}(r|x|) r^{d/2} e^{-t r^alpha} dr
    truncated where the exponential factor is below 1e-18.  Its integrand
    takes J from scipy.special.cython_special, the scalar entry point of the
    scipy.special.jv ufunc's routine, with the same values.  Satisfies the
    scaling p_t(x) = t^{-d/alpha} p_1(t^{-1/alpha} x).  A d >= 2 integral
    whose oscillations need more subdivisions than QUADPACK can take (small
    alpha and t) is refused with a ValueError.
    """
    if t <= 0.0:
        raise ValueError("t must be > 0")
    _validate_alpha(alpha)
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    if r == 0.0:
        return kernel_at_zero(d, alpha) * t ** (-d / alpha)
    if alpha == 2.0:
        return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-(r**2) / (4.0 * t))
    cut = _radius_cut(t, alpha)
    # oscillations of the integrand on [0, cut]
    cycles = cut * r / math.pi
    if d == 1:
        def f(u):
            return math.cos(u * r) * math.exp(-t * u**alpha)

        if cycles <= 8:
            # a cosine period long against the range of exp(-t u^alpha)
            # misleads the cycle rule below: one plain adaptive rule
            val, err = integrate.quad(
                f, 0.0, cut, epsabs=1e-14, epsrel=_REL_TOL, limit=200 + int(cycles)
            )
        else:
            # u = 0 is a weak singularity of d^2/du^2 exp(-t u^alpha) for
            # non-integer alpha; keep it inside a plain adaptive panel and use
            # the cosine-weighted infinite-range rule only beyond it
            split = min(1.0, math.pi / r)
            v1, e1 = integrate.quad(f, 0.0, split, epsabs=1e-14, epsrel=_REL_TOL, limit=200)
            # epsabs below ~1e-13 makes the QAWF cycle rule report failure
            v2, e2 = integrate.quad(
                lambda u: math.exp(-t * u**alpha),
                split, np.inf,
                weight="cos", wvar=r,
                epsabs=1e-13, epsrel=_REL_TOL, limit=400,
            )
            val, err = v1 + v2, e1 + e2
        out = val / math.pi
    else:
        # the scalar C entry point of the ufunc's AMOS routine (same bits, a
        # third of the per-call cost); imported here, so that only d >= 2
        # kernels pay its memory
        from scipy.special.cython_special import jv

        nu, half, exp = d / 2.0 - 1.0, d / 2.0, math.exp

        def f(u):
            return jv(nu, u * r) * u ** half * exp(-t * u**alpha)

        # subdivision hint roughly one panel per Bessel oscillation
        if 200 + cycles > _MAX_SUBDIVISIONS:
            raise ValueError(
                f"kernel quadrature at d={d}, alpha={alpha}, t={t}, |x|={r} needs about "
                f"{200 + cycles:.3g} subdivisions, more than QUADPACK's "
                f"{_MAX_SUBDIVISIONS}"
            )
        val, err = integrate.quad(
            f, 0.0, cut, epsabs=1e-14, epsrel=_REL_TOL, limit=200 + int(cycles)
        )
        out = (2.0 * math.pi) ** (-d / 2.0) * r ** (1.0 - d / 2.0) * val
    top = kernel_at_zero(d, alpha) * t ** (-d / alpha)
    if err > max(1e-12, 100 * _REL_TOL * abs(out)) or not (-1e-12 <= out <= top * (1 + 1e-9)):
        raise RuntimeError(
            f"kernel quadrature did not converge: value={out:.3e}, err={err:.1e}, "
            f"at-zero bound {top:.3e}"
        )
    return float(out)


def kernel_value_subordination(d: int, t: float, x) -> float:
    """Independent route for alpha = 1: p_t^{(1)}(x) = int p_s^{(2)}(x) eta_t^{(1/2)}(s) ds.

    Quadrature against the closed-form 1/2-subordinator density; used as the
    subordination-consistency oracle for :func:`kernel_value`.
    """
    r2 = float(np.sum(np.atleast_1d(np.asarray(x, dtype=float)) ** 2))

    def f(s):
        return (4.0 * math.pi * s) ** (-d / 2.0) * math.exp(-r2 / (4.0 * s)) * density_half(t, s)

    val, err = integrate.quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-10, limit=400)
    return float(val)


def relativistic_kernel_at_zero(
    d: int,
    alpha: float,
    m: float,
    t: float,
    n_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte Carlo estimate of p_t^{(alpha,m)}(0).

    Uses t^{d/alpha} p_t^{(alpha,m)}(0) = (4 pi)^{-d/2} E[S_{1,tm}^{-d/2}]
    = (4 pi)^{-d/2} e^{mt} E[S_1^{-d/2} exp(-(tm)^{2/alpha} S_1)] over plain
    stable samples; the tilt only improves integrability, so the estimate is
    finite for all m, t > 0.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    if d < 1 or t <= 0:
        raise ValueError(f"need d >= 1 and t > 0, got d={d}, t={t}")
    SubordinatorSpec("relativistic", alpha, m=m)  # checks alpha and m
    s = sample_stable(alpha, 1.0, rng, size=n_samples)
    w = s ** (-d / 2.0)
    # the tilt overwrites the draws
    s *= -((t * m) ** (2.0 / alpha))
    w *= np.exp(s, out=s)
    scale = (4.0 * math.pi) ** (-d / 2.0) * t ** (-d / alpha) * math.exp(m * t)
    return Estimate.of_samples(w, scale)


def mixed_kernel_at_zero(
    d: int,
    alpha: float,
    beta: float,
    a: float,
    t: float,
    n_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte Carlo estimate of p_t^{(a)}(0) = (4 pi)^{-d/2} E[S_{t,a}^{-d/2}]."""
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    if d < 1:
        raise ValueError("d must be >= 1")
    w = sample_mixed(alpha, beta, a, t, rng, size=n_samples)
    w **= -d / 2.0
    scale = (4.0 * math.pi) ** (-d / 2.0)
    return Estimate.of_samples(w, scale)
