import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import linalg

from fracheat import coefficients as coeff
from fracheat import trace_oracle as oracle
from fracheat.potential import GaussianMixturePotential, GaussianPotential


WELL = GaussianPotential(-1.0, 1.0)
BUMP = GaussianPotential(1.0, 1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        oracle.SpectralGrid(3, 10.0, 64)
    with pytest.raises(ValueError):
        oracle.SpectralGrid(1, 10.0, 63)
    with pytest.raises(ValueError):
        oracle.SpectralGrid(1, 10.0, 8)
    with pytest.raises(ValueError):
        oracle.build_hamiltonian(oracle.SpectralGrid(2, 10.0, 128), 1.0,
                                 GaussianPotential(0.0, 1.0, center=(0.0, 0.0)))


def test_free_hamiltonian_is_diagonal_multiplier():
    grid = oracle.SpectralGrid(1, 10.0, 32)
    h = oracle.build_hamiltonian(grid, 1.3, GaussianPotential(0.0, 1.0))
    xi = np.pi * np.arange(-15, 16) / 10.0
    assert np.allclose(np.diag(h), np.abs(xi) ** 1.3)
    assert np.allclose(h - np.diag(np.diag(h)), 0.0)


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16)])
def test_mode_set_is_reflection_symmetric(d, N):
    grid = oracle.SpectralGrid(d, 10.0, N)
    xi = grid.frequencies()
    assert xi.shape == (grid.size, d) and grid.size == (N - 1) ** d
    # row-major order over k = -(N/2-1)..N/2-1: reversing the rows maps k to -k
    assert np.array_equal(xi, -xi[::-1])


def _mixture(d, center):
    return GaussianMixturePotential([1.0, -0.7], [1.0, 0.6], np.full((2, d), center), d=d)


@pytest.mark.parametrize("d,center", [(1, 0.0), (1, 0.4), (2, 0.0), (2, 0.4)])
def test_hamiltonian_matches_pointwise_fourier(d, center):
    # reference: Vhat evaluated at every mode difference, as the table gather replaces
    grid = oracle.SpectralGrid(d, 10.0, 16)
    v = _mixture(d, center)
    xi = grid.frequencies()
    want = v.fourier(xi[:, None, :] - xi[None, :, :]) / (20.0**d)
    want[np.diag_indices(grid.size)] += oracle.free_multipliers(grid, 1.3)
    h = oracle.build_hamiltonian(grid, 1.3, v)
    assert np.allclose(h, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize(
    "d,N,L", [(1, 128, 20.0), (1, 1024, 40.0), (2, 20, 10.0), (2, 32, 10.0)]
)
def test_folded_spectrum_matches_dense(d, N, L):
    # the sectors come from the Fourier table; the reference is the dense H
    grid = oracle.SpectralGrid(d, L, N)
    v = _mixture(d, 0.0)
    blocks = list(oracle._sectors(grid, 1.3, v))
    assert len(blocks) == 2**d
    assert sum(b.shape[0] for b in blocks) == grid.size
    assert all(b.shape[0] == b.shape[1] for b in blocks)
    dense = np.linalg.eigvalsh(oracle.build_hamiltonian(grid, 1.3, v))
    folded = oracle._spectrum(grid, 1.3, v)
    assert np.max(np.abs(folded - dense)) < 1e-10


@pytest.mark.parametrize("d,N,L,limit_mb", [(1, 2048, 40.0, 32), (2, 48, 15.0, 16)])
def test_centred_spectrum_memory_is_bounded(d, N, L, limit_mb):
    # one sector at a time from the table: no dense H, no gather index
    grid = oracle.SpectralGrid(d, L, N)
    v = _mixture(d, 0.0)
    tracemalloc.start()
    try:
        oracle._spectrum(grid, 1.3, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 2**20


@pytest.mark.parametrize("d,center,solve,sizes", [
    (1, 0.0, "sectors", [32, 31]), (1, 0.4, "dense", [63]),
    (2, 0.0, "sectors", [64, 56, 56, 49]), (2, 0.4, "dense", [225]),
])
def test_curve_records_how_the_spectrum_was_solved(d, center, solve, sizes):
    grid = oracle.SpectralGrid(d, 10.0, 64 if d == 1 else 16)
    curve = oracle.trace_difference_curve(_mixture(d, center), 1.3, grid, [0.01, 0.1])
    assert curve.meta["solve"] == solve
    assert curve.meta["block_sizes"] == sizes


def test_sector_path_makes_the_dense_checks():
    with pytest.raises(ValueError, match="cap"):
        oracle._spectrum(oracle.SpectralGrid(2, 10.0, 128), 1.0, _mixture(2, 0.0))
    with pytest.raises(ValueError, match="alpha"):
        oracle._spectrum(oracle.SpectralGrid(1, 10.0, 32), 2.5, _mixture(1, 0.0))
    wide = GaussianPotential(1.0, 5.0)
    grid = oracle.SpectralGrid(1, 10.0, 32)
    for solve in (oracle.build_hamiltonian, oracle._spectrum):
        with pytest.warns(UserWarning, match="outside the box"):
            solve(grid, 1.0, wide)


def test_periodization_check_needs_no_quadrature(monkeypatch):
    # |int V| <= ||V||_1 decides for a signed d=2 mixture well inside the box
    def refuse(self, f):
        raise AssertionError("l1_norm quadrature ran")

    monkeypatch.setattr(GaussianMixturePotential, "_quad_over_space", refuse)
    grid = oracle.SpectralGrid(2, 10.0, 16)
    for center in (0.0, 0.4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle.trace_difference_curve(_mixture(2, center), 1.3, grid, [0.01, 0.1])


def test_periodization_warning_falls_back_to_l1_norm(monkeypatch):
    # int V = 0 decides nothing, so ||V||_1 comes from quadrature; the box is too small
    quad = GaussianMixturePotential._quad_over_space
    calls = []
    monkeypatch.setattr(GaussianMixturePotential, "_quad_over_space",
                        lambda self, f: calls.append(1) or quad(self, f))
    v = GaussianMixturePotential([1.0, -0.5], [1.0, 2.0], [[0.0], [0.0]], d=1)
    assert abs(v.integral_power(1)) < 1e-15
    with pytest.warns(UserWarning, match="outside the box"):
        oracle._spectrum(oracle.SpectralGrid(1, 4.0, 32), 1.0, v)
    assert calls


@pytest.mark.parametrize("d,N,L", [(1, 64, 20.0), (2, 16, 10.0)])
def test_off_centre_potential_keeps_dense_hermitian_spectrum(d, N, L):
    grid = oracle.SpectralGrid(d, L, N)
    v = _mixture(d, 0.4)
    h = oracle.build_hamiltonian(grid, 1.3, v)
    assert np.iscomplexobj(h)
    assert np.max(np.abs(h - h.conj().T)) < 1e-15
    spec = oracle._spectrum(grid, 1.3, v)
    assert np.array_equal(spec, np.linalg.eigvalsh(h))


class _ConstantPotential:
    """Degenerate test double: Vhat supported at frequency zero only."""

    def __init__(self, value, grid):
        self.value = value
        self.d = grid.d
        self.vol = (2.0 * grid.L) ** grid.d
        self.c = np.array([value])
        self.s = np.array([1.0])
        self.x0 = np.zeros((1, grid.d))
        self.l1_norm = abs(value) * self.vol

    def fourier(self, xi):
        xi = np.asarray(xi, dtype=float)
        flat = np.linalg.norm(np.atleast_1d(xi), axis=-1) if xi.ndim else abs(xi)
        return np.where(flat < 1e-12, self.value * self.vol, 0.0)


def test_constant_potential_shifts_spectrum():
    grid = oracle.SpectralGrid(1, 10.0, 32)
    free = np.sort(oracle.free_multipliers(grid, 1.5))
    spec = oracle._spectrum(grid, 1.5, _ConstantPotential(0.7, grid))
    assert np.allclose(spec, free + 0.7, atol=1e-12)


def _fd_ground_state(v, L, n):
    # second-order central differences with Dirichlet walls
    x = np.linspace(-L, L, n + 2)[1:-1]
    h = x[1] - x[0]
    diag = 2.0 / h**2 + v.evaluate(x)
    off = np.full(n - 1, -1.0 / h**2)
    w = linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    return float(w[0])


def test_alpha2_ground_state_vs_finite_differences():
    v = GaussianPotential(-8.0, math.sqrt(2.0))
    L = 20.0
    e1 = _fd_ground_state(v, L, 2048)
    e2 = _fd_ground_state(v, L, 4096)
    fd = (4.0 * e2 - e1) / 3.0  # h^2 Richardson
    grid = oracle.SpectralGrid(1, L, 256)
    spec = oracle._spectrum(grid, 2.0, v)
    assert spec[0] == pytest.approx(fd, abs=1e-4)


def test_spectrum_bounds_and_reality():
    grid = oracle.SpectralGrid(1, 20.0, 128)
    free = oracle.free_multipliers(grid, 1.2)
    spec = oracle._spectrum(grid, 1.2, WELL)
    assert np.isrealobj(spec)
    assert spec.min() >= free.min() - WELL.sup_norm - 1e-10
    assert spec.max() <= free.max() + WELL.sup_norm + 1e-10


def test_zero_potential_curve_vanishes():
    grid = oracle.SpectralGrid(1, 20.0, 64)
    curve = oracle.trace_difference_curve(
        GaussianPotential(0.0, 1.0), 1.0, grid, np.geomspace(1e-2, 1e-1, 5)
    )
    # identical spectra; only float summation order is left
    assert np.all(np.abs(curve.values) < 1e-10)
    assert np.all(np.abs(curve.normalized) < 1e-10)


def test_semigroup_domination_for_positive_potential():
    grid = oracle.SpectralGrid(1, 40.0, 256)
    curve = oracle.trace_difference_curve(BUMP, 1.0, grid, np.geomspace(1e-3, 1e-1, 10))
    assert np.all(curve.values < 0.0)


def test_leading_order_slope():
    # normalized(t)/t -> -int V within 1% on t in [1e-3, 1e-2]
    grid = oracle.SpectralGrid(1, 40.0, 512)
    tg = np.geomspace(1e-3, 1e-2, 8)
    curve = oracle.trace_difference_curve(BUMP, 1.0, grid, tg)
    slope = curve.normalized / tg
    want = -BUMP.integral_power(1)
    assert np.max(np.abs(slope - want) / abs(want)) < 0.01


def test_second_order_coefficient():
    # (normalized(t) + t int V)/t^2 -> int V^2 / 2 within 5%
    grid = oracle.SpectralGrid(1, 40.0, 512)
    tg = np.geomspace(1e-3, 1e-2, 8)
    curve = oracle.extrapolated_trace_curve(BUMP, 1.0, grid, tg)
    second = (curve.normalized + tg * BUMP.integral_power(1)) / tg**2
    want = BUMP.integral_power(2) / 2.0
    assert np.max(np.abs(second - want) / want) < 0.05


def test_d2_leading_order():
    # 2D grid: the free normalization makes the leading term exact by
    # construction, so even a coarse mode set resolves -int V
    v2 = GaussianPotential(1.0, 1.0, center=(0.0, 0.0))
    grid = oracle.SpectralGrid(2, 15.0, 24)
    tg = np.geomspace(1e-3, 1e-2, 5)
    curve = oracle.trace_difference_curve(v2, 1.0, grid, tg)
    slope = curve.normalized / tg
    want = -v2.integral_power(1)
    assert np.max(np.abs(slope - want) / abs(want)) < 0.01


def test_t_grid_validation():
    grid = oracle.SpectralGrid(1, 20.0, 64)
    with pytest.raises(ValueError):
        oracle.trace_difference_curve(WELL, 1.0, grid, [0.5, 1.5])


def test_convergence_gates_small():
    # the production 1e-4 gates run at N=1024 in the acceptance suite; this
    # checks the same machinery converges at quarter size
    grid = oracle.SpectralGrid(1, 40.0, 256)
    tg = np.geomspace(1e-3, 1e-1, 6)
    curve = oracle.extrapolated_trace_curve(WELL, 1.0, grid, tg)
    assert curve.meta["grid_doubling_max_rel_change"] < 2e-3
    assert oracle.domain_convergence(WELL, 1.0, grid, tg) < 2e-3


def test_free_match_warning_on_coarse_grid():
    # the free trace's mismatch with the continuum one is data, not a
    # warning: the free normalization does not rely on it
    grid = oracle.SpectralGrid(1, 40.0, 64)
    tg = np.geomspace(1e-3, 1e-1, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = oracle.trace_difference_curve(WELL, 1.0, grid, tg)
    assert curve.meta["free_match_rel"] > 1e-3


# ---------------------------------------------------------------------------
# fitting


def _synthetic_curve(coefs, exps, t, noise=0.0, seed=0):
    y = sum(c * t**e for c, e in zip(coefs, exps))
    if noise:
        y = y + np.random.default_rng(seed).normal(0.0, noise, len(t))
    return oracle.TraceCurve(t, y, y, "free", {})


def test_fit_recovers_synthetic_coefficients():
    t = np.geomspace(1e-3, 1e-1, 30)
    curve = _synthetic_curve([2.0, -3.0], [1.0, 2.0], t, noise=1e-10)
    fit = oracle.fit_expansion(curve, [1.0, 2.0])
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-6)
    assert fit.coefficients[1] == pytest.approx(-3.0, abs=1e-6)
    assert fit.residual < 1e-6


def test_fit_accepts_schedule_and_merges():
    sched = coeff.exponent_schedule(4, 2, 1.95, 1)
    t = np.geomspace(1e-3, 1e-1, 40)
    y = t * 1.0 + t**2 * 0.5
    curve = oracle.TraceCurve(t, y, y, "free", {})
    fit = oracle.fit_expansion(curve, sched)
    # 2 + 2/1.95 ~ 3.026 merges with 3; 3 + 2/1.95 ~ 4.026 merges with 4
    assert len(fit.exponents) < len(sched.entries)
    merged = [grp for grp in fit.groups if len(grp) > 1]
    assert merged
    assert fit.condition_number < 1e9


def test_fit_rank_deficiency_reported():
    # on one repeated t every basis column is constant
    t = np.full(20, 0.05)
    curve = _synthetic_curve([1.0], [1.0], t)
    with pytest.raises(np.linalg.LinAlgError, match="cond"):
        oracle.fit_expansion(curve, [1.0, 2.0])


def test_fit_needs_enough_points():
    t = np.geomspace(1e-3, 1e-1, 5)
    curve = _synthetic_curve([1.0], [1.0], t)
    with pytest.raises(ValueError):
        oracle.fit_expansion(curve, [1.0, 2.0, 3.0])


def test_fit_anchors_subtract_known_terms():
    t = np.geomspace(1e-2, 1e-1, 20)
    curve = _synthetic_curve([2.0, -3.0, 0.7], [1.0, 2.0, 3.0], t)
    fit = oracle.fit_expansion(curve, [2.0, 3.0], anchors={1.0: 2.0})
    assert fit.coefficient_at(2.0)[0] == pytest.approx(-3.0, abs=1e-8)
    assert fit.coefficient_at(3.0)[0] == pytest.approx(0.7, abs=1e-7)
    with pytest.raises(KeyError):
        fit.coefficient_at(1.0)


def test_fit_cross_validates_against_mc_coefficient():
    # fitted t^2 coefficient vs the Fourier-side MC estimate of C_{0,2}
    rng = np.random.default_rng(21)
    grid = oracle.SpectralGrid(1, 40.0, 512)
    tg = np.geomspace(1e-3, 1e-1, 40)
    curve = oracle.extrapolated_trace_curve(WELL, 1.0, grid, tg)
    fit = oracle.fit_expansion(curve, [1.0, 2.0, 3.0, 4.0])
    got, sig = fit.coefficient_at(2.0)
    est = coeff.mc_coefficient_Cnj(WELL, 0, 2, 1, 1.0, 10**6, rng)
    assert abs(got - est.value) <= 0.02 * abs(est.value) + 3.0 * (sig + est.stderr)


def test_trace_curve_rows_and_fit_dict():
    t = np.geomspace(1e-2, 1e-1, 12)
    curve = _synthetic_curve([1.0, 2.0], [1.0, 2.0], t)
    rows = oracle.trace_curve_to_rows(curve)
    assert len(rows) == 12 and len(rows[0]) == 3
    fit = oracle.fit_expansion(curve, [1.0, 2.0])
    d = oracle.expansion_fit_to_dict(fit)
    for key in ("exponents", "coefficients", "stderr", "max_relative_residual",
                "condition_number"):
        assert key in d
