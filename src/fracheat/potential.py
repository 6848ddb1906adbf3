"""Schwartz-class test potentials with analytic Fourier transforms.

The expansion-coefficient machinery needs potentials whose Fourier
transform is known in closed form, positive up to phases, and rapidly
decaying, so that theta-space Monte Carlo can importance-sample from a
normalizable envelope.  Gaussians and finite signed sums of Gaussians cover
that: V(x) = sum_i c_i exp(-|x - x_i|^2 / s_i^2), with

    Vhat(xi) = sum_i c_i (s_i sqrt(pi))^d exp(-s_i^2 |xi|^2 / 4) exp(-i <x_i, xi>)

under the convention Vhat(xi) = int exp(-i<x, xi>) V(x) dx.
"""

from __future__ import annotations

import itertools
import math
import numpy as np
from scipy import integrate, special

__all__ = ["GaussianPotential", "GaussianMixturePotential"]


def _add(terms):
    # left to right: the order in which numpy's sum adds fewer than eight
    # terms, so a loop of these equals the reduction it replaces bit for bit
    return sum(terms[1:], terms[0])


class GaussianMixturePotential:
    """A finite signed sum of isotropic Gaussian bumps in R^d."""

    def __init__(self, amplitudes, widths, centers, d: int | None = None):
        self.c = np.atleast_1d(np.asarray(amplitudes, dtype=float))
        self.s = np.atleast_1d(np.asarray(widths, dtype=float))
        centers = np.asarray(centers, dtype=float)
        if centers.ndim == 1 and d in (None, 1):
            centers = centers[:, None]
        self.x0 = centers
        if np.any(self.s <= 0):
            raise ValueError("widths must be positive")
        if not (len(self.c) == len(self.s) == len(self.x0)):
            raise ValueError("amplitudes, widths, centers must have equal length")
        self.d = int(self.x0.shape[1]) if d is None else int(d)
        if self.x0.shape[1] != self.d:
            raise ValueError("center dimension mismatch")

    # -- pointwise values ------------------------------------------------

    def _as_points(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.d == 1 and (x.ndim == 0 or x.shape[-1] != 1):
            x = x[..., None]
        return x

    def evaluate(self, x):
        x = self._as_points(x)
        d2 = ((x[..., None, :] - self.x0) ** 2).sum(axis=-1)
        return (self.c * np.exp(-d2 / self.s**2)).sum(axis=-1)

    def gradient(self, x):
        x = self._as_points(x)
        diff = x[..., None, :] - self.x0
        g = self.c * np.exp(-(diff**2).sum(axis=-1) / self.s**2) * (-2.0 / self.s**2)
        return (g[..., None] * diff).sum(axis=-2)

    def laplacian(self, x):
        x = self._as_points(x)
        diff = x[..., None, :] - self.x0
        r2 = (diff**2).sum(axis=-1)
        return (
            self.c
            * np.exp(-r2 / self.s**2)
            * (4.0 * r2 / self.s**4 - 2.0 * self.d / self.s**2)
        ).sum(axis=-1)

    def _envelopes(self, xi):
        """Each component's c_i (s_i sqrt(pi))^d exp(-s_i^2 |xi|^2 / 4), xi of shape (..., d).

        The one place the envelope is written: fourier adds the phases,
        proposal_density the absolute values, theta_weight both from one call
        per point.
        """
        r2 = _add([xi[..., k] ** 2 for k in range(self.d)])
        amp = self.c * (self.s * math.sqrt(math.pi)) ** self.d
        # -s^2/4 scales by a power of two: the product equals (-s^2 r2) / 4
        decay = -self.s**2 / 4.0
        return [amp[i] * np.exp(decay[i] * r2) for i in range(len(self.c))]

    def _fourier(self, xi, env):
        # Vhat from the envelopes of the points xi
        if not np.any(self.x0):
            return _add(env)
        # exp(-i arg) by cos and sin of the real argument: a complex exp
        # costs several times as much and gives the same values
        args = [_add([xi[..., k] * x0[k] for k in range(self.d)]) for x0 in self.x0]
        out = np.empty(np.shape(env[0]), dtype=complex)
        out.real = _add([e * np.cos(a) for e, a in zip(env, args)])
        out.imag = -_add([e * np.sin(a) for e, a in zip(env, args)])
        return out

    def _density(self, env):
        return _add([np.abs(e) for e in env]) / self.proposal_mass

    def fourier(self, xi):
        """Vhat(xi); complex in general, real when every center is zero."""
        xi = self._as_points(xi)
        return self._fourier(xi, self._envelopes(xi))

    # -- exact functionals -----------------------------------------------

    def _gaussian_products(self, k: int):
        """Each k-tuple of components with its product collapsed to one Gaussian.

        prod_i c_i exp(-|x - x_i|^2 / s_i^2) = w exp(-A |x - mu|^2), A = sum_i 1/s_i^2.
        Yields (idx, mass, P, var): mass = w (pi/A)^{d/2} is the product's
        integral, P[m] = mu - x_{idx[m]} and var = 1/(2A), so the product times
        f integrates to mass * E[f(X)] with X ~ N(mu, var I).
        """
        prec = 1.0 / self.s**2
        for combo in itertools.product(range(len(self.c)), repeat=k):
            idx = list(combo)
            a = prec[idx]
            xs = self.x0[idx]
            A = a.sum()
            mu = (a[:, None] * xs).sum(axis=0) / A
            B = (a * (xs**2).sum(axis=1)).sum() - A * (mu**2).sum()
            mass = np.prod(self.c[idx]) * math.exp(-B) * (math.pi / A) ** (self.d / 2.0)
            yield idx, mass, mu - xs, 0.5 / A

    def integral_power(self, k: int) -> float:
        """int V^k, exact."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return float(sum(mass for _, mass, _, _ in self._gaussian_products(k)))

    def _gradient_products(self, k: int) -> float:
        # int V^{k-2} |grad V|^2, grad V = -2 sum_i c_i e_i (x - x_i) / s_i^2: the
        # last two slots carry the gradients, E[(X - x_i).(X - x_j)] = d var + P.Q
        total = 0.0
        for idx, mass, offs, var in self._gaussian_products(k):
            i, j = idx[-2], idx[-1]
            pq = offs[-2] @ offs[-1]
            total += mass * 4.0 / (self.s[i] ** 2 * self.s[j] ** 2) * (self.d * var + pq)
        return float(total)

    def dirichlet_energy(self) -> float:
        """int |grad V|^2, exact."""
        return self._gradient_products(2)

    def weighted_gradient(self) -> float:
        """int V |grad V|^2, exact."""
        return self._gradient_products(3)

    def biharmonic_energy(self) -> float:
        """int |Delta V|^2, exact.

        Delta e_i = (a_i |x - x_i|^2 - b_i) e_i with a_i = 4/s_i^4, b_i = 2d/s_i^2.
        With P = mu - x_i, Q = mu - x_j: E|X - x_i|^2 = d var + |P|^2 and
        E[|X - x_i|^2 |X - x_j|^2] = (d^2 + 2d) var^2 + d var (|P|^2 + |Q|^2)
        + 4 var P.Q + |P|^2 |Q|^2.
        """
        d, a, b = self.d, 4.0 / self.s**4, 2.0 * self.d / self.s**2
        total = 0.0
        for (i, j), mass, (p, q), var in self._gaussian_products(2):
            pp, qq, pq = p @ p, q @ q, p @ q
            fourth = (d * d + 2 * d) * var**2 + d * var * (pp + qq) + 4.0 * var * pq + pp * qq
            total += mass * (a[i] * a[j] * fourth - a[i] * b[j] * (d * var + pp)
                             - b[i] * a[j] * (d * var + qq) + b[i] * b[j])
        return float(total)

    # Quadrature for the one functional without a closed form: l1_norm of a
    # signed mixture.

    def _quad_over_space(self, f):
        reach = float(np.abs(self.x0).max(initial=0.0) + 10.0 * self.s.max())
        if self.d == 1:
            val, _ = integrate.quad(
                lambda x: f(np.array([x])), -reach, reach, epsabs=1e-13, epsrel=1e-11, limit=400
            )
            return val
        if self.d == 2:
            val, _ = integrate.dblquad(
                lambda y, x: f(np.array([x, y])),
                -reach,
                reach,
                lambda x: -reach,
                lambda x: reach,
                epsabs=1e-11,
                epsrel=1e-9,
            )
            return val
        raise NotImplementedError("quadrature implemented for d <= 2")

    # -- norms -------------------------------------------------------------

    @property
    def l1_norm(self) -> float:
        if len(self.c) == 1 or (self.c > 0).all() or (self.c < 0).all():
            return float(
                np.abs(self.c * (self.s * math.sqrt(math.pi)) ** self.d).sum()
            )
        return float(self._quad_over_space(lambda x: abs(self.evaluate(x))))

    # -- theta-space importance proposal -----------------------------------

    @property
    def proposal_mass(self) -> float:
        """Normalizer of the dominating envelope sum_i |Vhat_i|; equals (2 pi)^d sum_i |c_i|."""
        return float((2.0 * math.pi) ** self.d * np.abs(self.c).sum())

    def proposal_density(self, theta):
        """Density of the envelope proposal sum_i |Vhat_i| / proposal_mass."""
        return self._density(self._envelopes(self._as_points(theta)))

    def theta_weight(self, theta):
        """Re[Vhat(-sum_k theta_k) prod_k Vhat(theta_k)] / prod_k proposal_density(theta_k).

        theta has shape (n, j-1, d); returns (n,).  Each theta_k's envelopes
        serve both its Vhat and its density.  At j = 2, Vhat(-theta) is taken
        as conj Vhat(theta): sin is odd and cos even bit for bit, so the
        value equals the product of the two fourier calls.
        """
        theta = np.asarray(theta, dtype=float)
        points = [theta[:, k] for k in range(theta.shape[1])]
        envs = [self._envelopes(p) for p in points]
        q = math.prod(self._density(e) for e in envs)
        if len(points) == 1:
            f = self._fourier(points[0], envs[0])
            w = np.conj(f) * f
        else:
            total = -_add(points)
            w = self._fourier(total, self._envelopes(total))
            # w * factor in this order at every size: `w = w * f` lets numpy
            # reuse a large temporary f in place as f * w, and a complex
            # product's imaginary part depends on the operand order
            for p, e in zip(points, envs):
                np.multiply(w, self._fourier(p, e), out=w)
        return np.real(w) / q

    def proposal_sample(self, u: np.ndarray, k: int) -> np.ndarray:
        """k thetas in R^d per row from the envelope proposal; shape (n, k, d).

        Inverse transforms of the uniforms ``u`` of shape (n, k d) for one
        component and (n, k + k d) for several: the first k columns pick
        each theta's component by its weight |c_i| / sum |c|, the other k d
        columns are the normals (theta by theta, coordinate by coordinate)
        that component i scales by sqrt(2) / s_i.
        """
        n = u.shape[0]
        picks = k if len(self.c) > 1 else 0
        if u.shape != (n, picks + k * self.d):
            raise ValueError(f"{k} thetas in d={self.d} from {len(self.c)} component(s) "
                             f"take {picks + k * self.d} columns, got {u.shape[1:]}")
        if picks:
            cdf = np.cumsum(np.abs(self.c) / np.abs(self.c).sum())
            comp = np.minimum(np.searchsorted(cdf, u[:, :k], side="right"), len(self.c) - 1)
        else:
            comp = np.zeros((n, k), dtype=np.intp)
        sigma = np.sqrt(2.0) / self.s[comp]
        return special.ndtri(u[:, picks:]).reshape(n, k, self.d) * sigma[..., None]


class GaussianPotential(GaussianMixturePotential):
    """Single Gaussian bump c exp(-|x - x0|^2 / s^2)."""

    def __init__(self, c: float, s: float, center=None, d: int = 1):
        if center is None:
            center = np.zeros(d)
        center = np.atleast_1d(np.asarray(center, dtype=float))
        super().__init__([c], [s], center[None, :], d=len(center))
