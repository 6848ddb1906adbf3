"""Independent spectral ground truth for the heat-trace expansion.

The fractional Schrodinger operator H_V = (-Delta)^{alpha/2} + V is
discretized on a periodic box [-L, L]^d in the Fourier basis: the free part
is the diagonal multiplier |xi_k|^alpha with xi_k = pi k / L, and V couples
modes through (2L)^{-d} Vhat(xi_k - xi_l) (periodization of V onto the
torus).  The mode set k = -(N/2 - 1) .. N/2 - 1 per axis, (N-1)^d modes, is
closed under k -> -k, and every coupling is read through sliding-window
views of one table of Vhat over the (2N-3)^d lattice differences.  One
eigendecomposition serves every time t.  When V is centred (even in every
coordinate), H commutes with each axis reflection and, its components being
isotropic, with each permutation of the axes: it is solved in the blocks of
that symmetry group (even and odd at d = 1; the square's five distinct
blocks at d = 2, one of them standing for two isospectral ones), real
symmetric and assembled one at a time from the table; H is formed, and
solved as one dense Hermitian matrix, only for an off-centre V.  Then

    curve(t) = Tr(exp(-t H_V)) - Tr(exp(-t H_alpha))

over the discrete spectra is normalized by the truncated operator's own
free trace per unit volume, the discrete analogue of p_t^{(alpha)}(0).
(Normalizing by the continuum kernel instead leaves the curve off by the
fraction of the free heat trace the retained modes capture, which at small
t is far from 1 at any workable matrix size; the free-trace normalization
cancels that fraction order by order and converges under grid doubling.)

Fitting the normalized curve against an exponent schedule is weighted least
squares with near-degenerate exponents merged; coefficient uncertainties
combine the linear-model error with refit drift over halves of the t range.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .coefficients import ExponentSchedule
from .heat_kernel import kernel_at_zero
from .subordinator import _validate_alpha

__all__ = [
    "SpectralGrid",
    "TraceCurve",
    "ExpansionFit",
    "build_hamiltonian",
    "free_multipliers",
    "trace_difference_curve",
    "extrapolated_trace_curve",
    "fit_expansion",
    "domain_convergence",
    "trace_curve_to_rows",
    "expansion_fit_to_dict",
]


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic pseudospectral grid: domain [-L, L]^d with N modes per axis."""

    d: int
    L: float
    N: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("spectral oracle supports d = 1 or 2")
        if self.N < 16 or self.N % 2:
            raise ValueError("N must be even and >= 16")
        if self.L <= 0:
            raise ValueError("L must be > 0")

    @property
    def size(self) -> int:
        return (self.N - 1) ** self.d

    def frequencies(self) -> np.ndarray:
        """All mode frequencies as an ((N-1)^d, d) array, xi_k = pi k / L.

        k = -(N/2 - 1) .. N/2 - 1 per axis: the unpaired Nyquist mode is
        dropped so the mode set is closed under k -> -k.
        """
        k = np.arange(1 - self.N // 2, self.N // 2)
        axes = np.meshgrid(*(k,) * self.d, indexing="ij")
        return (math.pi / self.L) * np.stack([a.ravel() for a in axes], axis=1).astype(float)

    def doubled_modes(self) -> "SpectralGrid":
        return SpectralGrid(self.d, self.L, 2 * self.N)

    def doubled_domain(self) -> "SpectralGrid":
        # doubling L at fixed mode density N/L
        return SpectralGrid(self.d, 2 * self.L, 2 * self.N)


_MAX_DENSE = 8192


def free_multipliers(grid: SpectralGrid, alpha: float) -> np.ndarray:
    xi = grid.frequencies()
    return (np.linalg.norm(xi, axis=1)) ** alpha


def _periodization_check(V, grid: SpectralGrid) -> None:
    # erfc bound on each component's mass outside the box, per axis
    outside = integral = 0.0
    for c, s, x0 in zip(V.c, V.s, V.x0):
        mass = c * (s * math.sqrt(math.pi)) ** grid.d
        integral += mass
        worst = max(special.erfc((grid.L - abs(x)) / s) for x in x0)
        outside += abs(mass) * min(1.0, grid.d * worst)
    # |int V| <= ||V||_1 decides most calls without the quadrature that a
    # signed mixture's l1_norm costs
    if outside > 1e-10 * abs(integral) and outside > 1e-10 * V.l1_norm:
        warnings.warn(
            f"potential mass outside the box ~{outside:.2e} exceeds 1e-10 * ||V||_1; "
            "periodization error may be visible",
            stacklevel=4,
        )


def _check_inputs(grid: SpectralGrid, alpha: float, V) -> None:
    """The size, alpha, dimension and periodization checks of every solve."""
    if grid.size > _MAX_DENSE:
        raise ValueError(f"(N-1)^d = {grid.size} exceeds the dense-solve cap {_MAX_DENSE}")
    _validate_alpha(alpha)
    if V.d != grid.d:
        raise ValueError(f"potential dimension {V.d} != grid d={grid.d}")
    _periodization_check(V, grid)


def _table_windows(grid: SpectralGrid, V, width: int) -> np.ndarray:
    """Sliding windows of the table T of (2L)^{-d} Vhat over the lattice differences.

    win[i, j] = T[i + j] per axis with j < width; T has 2N - 3 entries per
    axis, entry j holding the difference k - l = j - (N - 2).
    """
    j = (math.pi / grid.L) * np.arange(2 - grid.N, grid.N - 1, dtype=float)
    pts = np.stack(np.meshgrid(*(j,) * grid.d, indexing="ij"), axis=-1)
    table = V.fourier(pts) / (2.0 * grid.L) ** grid.d
    return np.lib.stride_tricks.sliding_window_view(table, (width,) * grid.d)


def build_hamiltonian(grid: SpectralGrid, alpha: float, V) -> np.ndarray:
    """Dense matrix of H_V in the Fourier basis.

    Diagonal |xi_k|^alpha + (2L)^{-d} Vhat(0); off-diagonal (k, l) entry
    (2L)^{-d} Vhat(xi_k - xi_l), a Toeplitz view of the table of Vhat over
    the lattice differences, copied once.  Real symmetric for even real V,
    Hermitian otherwise (Vhat(-xi) = conj Vhat(xi) for real V).
    """
    _check_inputs(grid, alpha, V)
    # T[k - l] = win[k, N - 2 - l] per axis: the window axes reversed
    win = _table_windows(grid, V, grid.N - 1)
    toeplitz = win[(slice(None),) * grid.d + (slice(None, None, -1),) * grid.d]
    H = np.ascontiguousarray(toeplitz).reshape(grid.size, grid.size)
    H.ravel()[:: grid.size + 1] += free_multipliers(grid, alpha)
    return H


def _sectors(grid: SpectralGrid, alpha: float, V):
    """Yield (block, multiplicity) over the symmetry blocks of H_V for a centred V.

    Per axis, over the modes k, l >= 0, the even sector is D (T[k-l] + T[k+l]) D
    with D = diag(1/sqrt 2, 1, ...) and the odd sector is T[k-l] - T[k+l] on
    k, l >= 1, where T is the table of Vhat: a Toeplitz part plus or minus a
    Hankel part, both views of the table's sliding windows.  Each sector is H
    restricted to an orthonormal basis of one reflection parity, so their
    spectra together are H's; H itself is never formed.

    Every component of a mixture is isotropic, so a centred V is also even
    under any permutation of the axes.  Sectors whose parities differ by a
    permutation are isospectral: only the one with ascending parities is
    built, and its multiplicity counts the others (the (even, odd) sector
    stands for (odd, even) in d = 2).  A sector whose two axes share a
    parity commutes with the swap (k1, k2) -> (k2, k1) and splits by
    _swap_blocks.  |xi_k|^alpha is added to each block's diagonal last.
    """
    d, m = grid.d, grid.N // 2 - 1  # k = 0 .. m per axis
    # win[i, j] = T[i + j] per axis: T[k - l] = win[m + k, m - l], T[k + l] = win[2m + k, l]
    win = _table_windows(grid, V, m + 1)
    mult = free_multipliers(grid, alpha).reshape((2 * m + 1,) * d)
    for odd in itertools.combinations_with_replacement((0, 1), d):
        S = np.zeros(tuple(m + 1 - o for o in odd) * 2)
        for hankel in itertools.product((0, 1), repeat=d):
            rows = tuple(slice((1 + h) * m + o, (2 + h) * m + 1) for h, o in zip(hankel, odd))
            cols = tuple(slice(o, m + 1) if h else slice(m - o, None, -1)
                         for h, o in zip(hankel, odd))
            sign = sum(h * o for h, o in zip(hankel, odd)) % 2
            (np.subtract if sign else np.add)(S, win[rows + cols], out=S)
        for ax in (ax for ax, o in enumerate(odd) if not o):
            S[(slice(None),) * ax + (0,)] *= math.sqrt(0.5)
            S[(slice(None),) * (d + ax) + (0,)] *= math.sqrt(0.5)
        diag = mult[tuple(slice(m + o, None) for o in odd)]
        mirrors = len(set(itertools.permutations(odd)))
        # two axes of one parity: the swap maps the sector to itself
        for B, free in _swap_blocks(S, diag) if len(set(odd)) < d else [(S, diag)]:
            n = free.size
            B = B.reshape(n, n)
            B.ravel()[:: n + 1] += free.ravel()
            yield B, mirrors


def _swap_blocks(S, diag):
    """Split a d = 2 sector (k1, k2, l1, l2) by the swap of its axes.

    Over the pairs P = (a, b), Q = (p, q) with Q' = (q, p), the swap-even
    block is D (S[P, Q] + S[P, Q']) D on a <= b, p <= q, with D = 1/sqrt 2 on
    the pairs a = b, and the swap-odd block is S[P, Q] - S[P, Q'] on a < b,
    p < q.  Returns each block with its free multipliers diag[a, b].
    """
    n = diag.shape[0]
    flat = S.reshape(n * n, n * n)  # S[P, Q] with P = a n + b, Q = p n + q
    blocks = []
    for strict, combine in ((0, np.add), (1, np.subtract)):
        a, b = np.triu_indices(n, strict)  # a <= b, then a < b
        pairs, swapped = a * n + b, b * n + a
        B = combine(flat[pairs[:, None], pairs], flat[pairs[:, None], swapped])
        if not strict:
            w = np.where(a == b, math.sqrt(0.5), 1.0)
            B *= w[:, None]
            B *= w
        blocks.append((B, diag[a, b]))
    return blocks


def _block_spectra(grid: SpectralGrid, alpha: float, V) -> list:
    """(ascending eigenvalues, multiplicity) of each block solved: a centred V's, else H's."""
    if np.any(V.x0):
        return [(np.linalg.eigvalsh(build_hamiltonian(grid, alpha, V)), 1)]
    _check_inputs(grid, alpha, V)
    return [(np.linalg.eigvalsh(B), mirrors) for B, mirrors in _sectors(grid, alpha, V)]


def _union(blocks) -> np.ndarray:
    """The ascending spectrum of H: each block's eigenvalues repeated by its multiplicity."""
    return np.sort(np.concatenate([np.tile(mu, mirrors) for mu, mirrors in blocks]))


def _spectrum(grid: SpectralGrid, alpha: float, V) -> np.ndarray:
    """Ascending eigenvalues of H_V: over the symmetry blocks of a centred V, else of dense H."""
    return _union(_block_spectra(grid, alpha, V))


@dataclass(frozen=True)
class TraceCurve:
    """Sampled Tr(exp(-t H_V) - exp(-t H_alpha)) with its normalization."""

    t_grid: np.ndarray
    values: np.ndarray
    normalized: np.ndarray
    normalization: str  # always "free"
    meta: dict = field(default_factory=dict)


def trace_difference_curve(V, alpha: float, grid: SpectralGrid, t_grid) -> TraceCurve:
    """Trace-difference curve over the full discrete spectra.

    The discrete free trace's mismatch with (2L)^d p_t(0) at the largest t
    is reported in ``meta['free_match_rel']``; the free normalization does
    not rely on it.  ``meta['solve']`` reads "sectors" or "dense",
    ``meta['block_sizes']`` holds the size of each eigensolve and
    ``meta['block_multiplicities']`` how often its eigenvalues repeat in the
    spectrum, so that the sizes times the multiplicities sum to (N-1)^d.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0) or np.any(t_grid >= 1.0):
        raise ValueError("t values must lie in (0, 1)")
    free = free_multipliers(grid, alpha)
    blocks = _block_spectra(grid, alpha, V)
    mu = _union(blocks)
    trace_pert = np.exp(-np.outer(t_grid, mu)).sum(axis=1)
    trace_free = np.exp(-np.outer(t_grid, free)).sum(axis=1)
    values = trace_pert - trace_free
    vol = (2.0 * grid.L) ** grid.d
    p_cont = kernel_at_zero(grid.d, alpha) * t_grid ** (-grid.d / alpha)
    free_match = abs(trace_free[-1] / (vol * p_cont[-1]) - 1.0)
    return TraceCurve(
        t_grid=t_grid,
        values=values,
        normalized=values / (trace_free / vol),
        normalization="free",
        meta={
            "d": grid.d, "L": grid.L, "N": grid.N, "alpha": alpha,
            "free_match_rel": free_match, "refined": False,
            "solve": "sectors" if len(blocks) > 1 else "dense",
            "block_sizes": [b.size for b, _ in blocks],
            "block_multiplicities": [mirrors for _, mirrors in blocks],
        },
    )


def extrapolated_trace_curve(V, alpha: float, grid: SpectralGrid, t_grid) -> TraceCurve:
    """Richardson pair over mode doubling: 2 * curve(2N) - curve(N).

    The leading truncation contamination of the normalized curve scales
    like 1/xi_max at fixed L, so the doubled-mode run (already required by
    the grid-convergence gate) cancels it.
    """
    base = trace_difference_curve(V, alpha, grid, t_grid)
    fine = trace_difference_curve(V, alpha, grid.doubled_modes(), t_grid)
    meta = dict(base.meta)
    meta["refined"] = True
    meta["fine_block_sizes"] = fine.meta["block_sizes"]
    meta["fine_block_multiplicities"] = fine.meta["block_multiplicities"]
    meta["grid_doubling_max_rel_change"] = float(
        np.max(np.abs(fine.normalized / base.normalized - 1.0))
    )
    return TraceCurve(
        t_grid=base.t_grid,
        values=base.values,
        normalized=2.0 * fine.normalized - base.normalized,
        normalization="free",
        meta=meta,
    )


def domain_convergence(V, alpha, grid, t_grid) -> float:
    """Max relative change of the normalized curve when L doubles at fixed N/L."""
    a = trace_difference_curve(V, alpha, grid, t_grid)
    b = trace_difference_curve(V, alpha, grid.doubled_domain(), t_grid)
    return float(np.max(np.abs(b.normalized / a.normalized - 1.0)))


# ---------------------------------------------------------------------------
# Least-squares expansion fit

#: Exponents closer than this are fitted as one basis function.
_MERGE_TOL = 0.05
#: How close an exponent must be to a fitted one for coefficient_at.
_EXPONENT_TOL = 1e-9


@dataclass(frozen=True)
class ExpansionFit:
    exponents: np.ndarray          # merged representative exponents
    coefficients: np.ndarray
    stderr: np.ndarray             # max(WLS sigma, refit drift)
    groups: tuple                  # per merged exponent, tuple of (n, j) labels or None
    residual: float                # max relative residual on the fit grid
    condition_number: float
    anchors: dict

    def coefficient_at(self, exponent: float):
        idx = np.nonzero(np.abs(self.exponents - exponent) <= _EXPONENT_TOL)[0]
        if idx.size != 1:
            raise KeyError(f"no unique fitted exponent at {exponent}")
        i = int(idx[0])
        return float(self.coefficients[i]), float(self.stderr[i])


def _merge_exponents(exps, labels):
    order = np.argsort(exps)
    merged, groups = [], []
    for i in order:
        if merged and exps[i] - merged[-1][-1] < _MERGE_TOL:
            merged[-1].append(exps[i])
            groups[-1].append(labels[i])
        else:
            merged.append([exps[i]])
            groups.append([labels[i]])
    reps = np.array([float(np.mean(g)) for g in merged])
    return reps, tuple(tuple(g) for g in groups)


def _wls(t, y, exps, emin):
    X = np.stack([t**e for e in exps], axis=1) / t[:, None] ** emin
    b = y / t**emin
    coef, _, rank, sv = np.linalg.lstsq(X, b, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if rank < len(exps):
        raise np.linalg.LinAlgError(
            f"rank-deficient design matrix (cond {cond:.2e}); merge exponents"
        )
    resid = b - X @ coef
    dof = max(len(b) - len(exps), 1)
    cov = (resid @ resid / dof) * np.linalg.inv(X.T @ X)
    return coef, np.sqrt(np.diag(cov)), cond, resid


def fit_expansion(
    curve: TraceCurve,
    schedule,
    anchors: dict | None = None,
) -> ExpansionFit:
    """Weighted least squares of the normalized curve against t^e bases.

    ``schedule`` is an :class:`~fracheat.coefficients.ExponentSchedule` or a
    plain list of exponents.  Exponents closer than ``_MERGE_TOL`` are merged
    into one basis function (Vandermonde conditioning near alpha = 2).
    ``anchors`` maps exponents to known coefficients; their contribution is
    subtracted before fitting, which decorrelates near-degenerate columns
    when low-order functionals of V are available in closed form.

    Residuals are scaled by t^{-e_min} so every decade of t carries
    comparable relative weight.  The reported stderr is the WLS value
    inflated by the coefficient drift when refitting on the lower and upper
    halves of the t range, which is what the O(t^Phi) error term actually
    costs; the max relative residual and the design condition number are
    reported alongside.
    """
    anchors = dict(anchors or {})
    if isinstance(schedule, ExponentSchedule):
        pairs = [(e.exponent, (e.n, e.j)) for e in schedule.entries]
    else:
        pairs = [(float(e), None) for e in schedule]
    pairs = [(e, lab) for e, lab in pairs if not any(abs(e - a) < 1e-12 for a in anchors)]
    exps = np.array([p[0] for p in pairs])
    labels = [p[1] for p in pairs]
    reps, groups = _merge_exponents(exps, labels)
    t = np.asarray(curve.t_grid, dtype=float)
    y = np.asarray(curve.normalized, dtype=float).copy()
    for e, a in anchors.items():
        y -= a * t ** float(e)
    if len(t) < 2 * len(reps):
        raise ValueError("need at least twice as many t points as fitted exponents")
    emin = float(reps.min())
    coef, sig, cond, _ = _wls(t, y, reps, emin)
    half = len(t) // 2
    drift = np.zeros_like(coef)
    for sel in (slice(0, max(half, 2 * len(reps))), slice(min(half, len(t) - 2 * len(reps)), None)):
        try:
            c2, _, _, _ = _wls(t[sel], y[sel], reps, emin)
            drift = np.maximum(drift, np.abs(c2 - coef))
        except np.linalg.LinAlgError:
            pass
    model = np.stack([t**e for e in reps], axis=1) @ coef
    for e, a in anchors.items():
        model = model + a * t ** float(e)
    denom = np.maximum(np.abs(curve.normalized), 1e-300)
    residual = float(np.max(np.abs(model - curve.normalized) / denom))
    return ExpansionFit(
        exponents=reps,
        coefficients=coef,
        stderr=np.maximum(sig, drift),
        groups=groups,
        residual=residual,
        condition_number=float(cond),
        anchors=anchors,
    )


# ---------------------------------------------------------------------------
# Export helpers


def trace_curve_to_rows(curve: TraceCurve):
    """Rows (t, raw, normalized) for CSV export."""
    return [
        (float(t), float(v), float(n))
        for t, v, n in zip(curve.t_grid, curve.values, curve.normalized)
    ]


def expansion_fit_to_dict(fit: ExpansionFit) -> dict:
    return {
        "exponents": [float(e) for e in fit.exponents],
        "coefficients": [float(c) for c in fit.coefficients],
        "stderr": [float(s) for s in fit.stderr],
        "groups": [[list(g) if g else None for g in grp] for grp in fit.groups],
        "max_relative_residual": fit.residual,
        "condition_number": fit.condition_number,
        "anchors": {f"{k:.12g}": float(v) for k, v in fit.anchors.items()},
    }
