import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import linalg, special

from fracheat import cli
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
    "d,N,L", [(1, 128, 20.0), (1, 1024, 40.0), (2, 16, 10.0), (2, 20, 10.0), (2, 32, 10.0)]
)
def test_folded_spectrum_matches_dense(d, N, L):
    # the blocks come from the Fourier table; the reference is the dense H
    grid = oracle.SpectralGrid(d, L, N)
    for v in (_mixture(d, 0.0), GaussianPotential(-1.0, 1.0, center=(0.0,) * d)):
        blocks = list(oracle._sectors(grid, 1.3, v))
        # d=1: even, odd; d=2: the square's blocks, (even, odd) standing for (odd, even)
        assert [mult for _, mult in blocks] == ([1, 1] if d == 1 else [1, 1, 2, 1, 1])
        assert sum(b.shape[0] * mult for b, mult in blocks) == grid.size
        assert all(b.shape[0] == b.shape[1] for b, _ in blocks)
        dense = np.linalg.eigvalsh(oracle.build_hamiltonian(grid, 1.3, v))
        folded = oracle._spectrum(grid, 1.3, v)
        assert np.max(np.abs(folded - dense)) < 1e-10


def _reflection_sectors_1d(grid, alpha, v):
    # reference: T[k - l] +- T[k + l] over k, l >= 0 gathered from the table,
    # row and column k = 0 of the even sector scaled by sqrt(1/2), then the
    # free multipliers on the diagonal; the same float operations as _sectors
    m = grid.N // 2 - 1
    j = (math.pi / grid.L) * np.arange(2 - grid.N, grid.N - 1, dtype=float)
    table = v.fourier(j[:, None]) / (2.0 * grid.L)
    k = np.arange(m + 1)
    toeplitz, hankel = table[2 * m + k[:, None] - k], table[2 * m + k[:, None] + k]
    even, odd = toeplitz + hankel, (toeplitz - hankel)[1:, 1:]
    even[0] *= math.sqrt(0.5)
    even[:, 0] *= math.sqrt(0.5)
    mult = oracle.free_multipliers(grid, alpha)[m:]
    even[np.diag_indices(m + 1)] += mult
    odd[np.diag_indices(m)] += mult[1:]
    return [even, odd]


@pytest.mark.parametrize("N", [64, 1024])
def test_d1_sectors_are_the_reflection_sectors(N):
    # d=1 has no axis swap: its blocks are exactly its two reflection sectors
    grid = oracle.SpectralGrid(1, 40.0, N)
    v = _mixture(1, 0.0)
    want = _reflection_sectors_1d(grid, 1.3, v)
    got = list(oracle._sectors(grid, 1.3, v))
    assert [mult for _, mult in got] == [1, 1]
    for (b, _), w in zip(got, want):
        assert np.array_equal(b, w)
    spec = np.sort(np.concatenate([np.linalg.eigvalsh(w) for w in want]))
    assert np.array_equal(oracle._spectrum(grid, 1.3, v), spec)


@pytest.mark.parametrize("d,N,L,limit_mb", [(1, 2048, 40.0, 12), (2, 48, 15.0, 6)])
def test_centred_spectrum_memory_is_bounded(d, N, L, limit_mb):
    # one block alive at a time, built from the table and solved in place:
    # no dense H, no gather index, no copy of a block
    grid = oracle.SpectralGrid(d, L, N)
    v = _mixture(d, 0.0)
    tracemalloc.start()
    try:
        oracle._spectrum(grid, 1.3, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 2**20


def test_dense_spectrum_is_solved_in_place():
    # the peak resident size of an off-centre solve grows by about one dense
    # H; tracemalloc cannot see a copy that LAPACK's caller makes in C.  The
    # peak is the process's own VmHWM: ru_maxrss keeps the peak of the
    # process that forked it across exec.
    code = ("import numpy as np\n"
            "from fracheat import trace_oracle as o\n"
            "from fracheat.potential import GaussianMixturePotential\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))\n"
            "v = GaussianMixturePotential([1.0, -0.7], [1.0, 0.6], np.full((2, 1), 0.4), d=1)\n"
            "o._spectrum(o.SpectralGrid(1, 40.0, 64), 1.3, v)\n"
            "base = peak()\n"
            "o._spectrum(o.SpectralGrid(1, 40.0, 1024), 1.3, v)\n"
            "print(1024 * (peak() - base))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    matrix_bytes = 1023**2 * 16  # complex (N-1)^2
    assert int(out.stdout) <= 1.2 * matrix_bytes


@pytest.mark.parametrize("d,center,solve,sizes", [
    (1, 0.0, "sectors", [(32, 1), (31, 1)]), (1, 0.4, "dense", [(63, 1)]),
    (2, 0.0, "sectors", [(36, 1), (28, 1), (56, 2), (28, 1), (21, 1)]),
    (2, 0.4, "dense", [(225, 1)]),
])
def test_curve_records_how_the_spectrum_was_solved(d, center, solve, sizes):
    # sizes: (size, multiplicity) of each eigensolve
    grid = oracle.SpectralGrid(d, 10.0, 64 if d == 1 else 16)
    curve = oracle.trace_difference_curve(_mixture(d, center), 1.3, grid, [0.01, 0.1])
    assert curve.meta["solve"] == solve
    assert curve.meta["block_sizes"] == [n for n, _ in sizes]
    assert curve.meta["block_multiplicities"] == [k for _, k in sizes]
    assert sum(n * k for n, k in sizes) == grid.size


def test_sector_path_makes_the_dense_checks():
    # the size cap applies to the largest block solved: at d = 2, N = 128 the
    # dense H is over it and the largest sector block is not; at d = 1, the
    # 8192 rows of N = 16384's even block are within it
    grid = oracle.SpectralGrid(2, 10.0, 128)
    oracle._check_inputs(grid, 1.0, _mixture(2, 0.0), False)
    with pytest.raises(ValueError, match=r"H has 16129 rows at N=128, d=2, above the dense"):
        oracle._check_inputs(grid, 1.0, _mixture(2, 0.0), True)
    with pytest.raises(ValueError, match="the largest sector block has 16256 rows at N=256"):
        oracle._spectrum(oracle.SpectralGrid(2, 10.0, 256), 1.0, _mixture(2, 0.0))
    grid = oracle.SpectralGrid(1, 40.0, 16384)
    oracle._check_inputs(grid, 1.0, _mixture(1, 0.0), False)
    with pytest.raises(ValueError, match="H has 16383 rows"):
        oracle._check_inputs(grid, 1.0, _mixture(1, 0.4), True)
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


@pytest.mark.parametrize("d,tail,warns", [(1, 1e-8, True), (1, 1e-11, False),
                                           (2, 0.7e-10, True), (2, 0.4e-10, False)])
def test_periodization_warning_threshold(d, tail, warns):
    # a centred Gaussian on a box where its per-axis tail erfc(L/s) is `tail`:
    # the mass outside, about d * tail of ||V||_1, warns above 1e-10.  The
    # d = 1 case warns also under 1e-6, and in d = 2 only d * tail crosses 1e-10
    v = GaussianPotential(1.0, 1.0, d=d)
    grid = oracle.SpectralGrid(d, float(special.erfcinv(tail)), 16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        oracle._check_inputs(grid, 1.0, v, False)
    assert [str(w.message).startswith("potential mass outside the box")
            for w in caught] == ([True] if warns else [])


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
    assert spec.min() >= free.min() - abs(WELL.c[0]) - 1e-10
    assert spec.max() <= free.max() + abs(WELL.c[0]) + 1e-10


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


def test_richardson_pair_refused_outside_d1():
    # in d=2 the grid error is not first order in 1/xi_max, and the pair
    # lands further from the limit than its own fine grid
    v2 = GaussianPotential(-1.0, 1.0, center=(0.0, 0.0))
    grid = oracle.SpectralGrid(2, 10.0, 16)
    with pytest.raises(ValueError, match=r"first order in 1/xi_max, true only in d=1"):
        oracle.extrapolated_trace_curve(v2, 1.0, grid, [0.1, 0.2])


def test_t_grid_validation():
    grid = oracle.SpectralGrid(1, 20.0, 64)
    with pytest.raises(ValueError):
        oracle.trace_difference_curve(WELL, 1.0, grid, [0.5, 1.5])
    # an empty grid has no largest t to match the free trace at
    for route in (oracle.trace_difference_curve, oracle.extrapolated_trace_curve):
        with pytest.raises(ValueError, match="t_grid is empty"):
            route(WELL, 1.0, grid, [])


def test_convergence_gates_small():
    # the production 1e-4 gates run at N=1024 in the acceptance suite; this
    # checks the same machinery converges at quarter size
    grid = oracle.SpectralGrid(1, 40.0, 256)
    tg = np.geomspace(1e-3, 1e-1, 6)
    curve = oracle.extrapolated_trace_curve(WELL, 1.0, grid, tg)
    assert curve.meta["grid_doubling_max_rel_change"] < 2e-3
    assert oracle.domain_convergence(WELL, 1.0, grid, tg) < 2e-3


def test_domain_gate_sees_a_box_too_small_for_v():
    # at alpha = 2 the grid error is spectral, so on a box of half-width 2
    # for a unit Gaussian only the box moves the curve: doubling it changes
    # the curve far more than doubling the modes does
    grid = oracle.SpectralGrid(1, 2.0, 64)
    tg = np.geomspace(0.05, 0.5, 8)
    with pytest.warns(UserWarning, match="outside the box"):
        gate = oracle.domain_convergence(WELL, 2.0, grid, tg)
        a, b = (oracle.trace_difference_curve(WELL, 2.0, g, tg).normalized
                for g in (grid, grid.doubled_modes()))
    assert gate > 1e-4, gate
    assert np.max(np.abs(b / a - 1.0)) < 1e-6


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


def test_fit_keeps_exponents_a_tenth_apart():
    # 1.0 and 1.1 are two basis functions (design condition number about 16)
    t = np.geomspace(1e-3, 1e-1, 30)
    fit = oracle.fit_expansion(_synthetic_curve([1.0, 0.5], [1.0, 1.1], t), [1.0, 1.1])
    assert fit.exponents.tolist() == [1.0, 1.1]
    assert fit.coefficients == pytest.approx([1.0, 0.5], abs=1e-9)


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


def test_trace_curve_rows_and_fit_dict(tmp_path):
    # fracheat trace writes three csv columns (t, raw, normalized) and the
    # fit's exponents, coefficients and diagnostics
    args = ["trace", "--alpha", "1.0", "--potential", "gaussian:c=-1,s=1", "--n-modes", "64",
            "--points", "12", "--fit", "--exponents", "1 2"]
    for fmt in ("csv", "json"):
        assert cli.main(args + ["--format", fmt, "--output", str(tmp_path / fmt)]) == 0
    (csv_dir,) = (tmp_path / "csv").iterdir()
    rows = (csv_dir / "result.csv").read_text().splitlines()
    assert len(rows) == 12 and all(len(r.split(",")) == 3 for r in rows)
    (json_dir,) = (tmp_path / "json").iterdir()
    fit = json.loads((json_dir / "result.json").read_text())["fit"]
    for key in ("exponents", "coefficients", "stderr", "max_relative_residual",
                "condition_number"):
        assert key in fit
    assert fit["exponents"] == [1.0, 2.0]
