"""The spectral oracle end to end: trace curves, fits, anomalous exponent.

Builds the pseudospectral discretization of H_V = (-Delta)^{alpha/2} + V for
a Gaussian well, extracts the normalized trace-difference curve, fits the
predicted exponent schedule, and contrasts alpha = 1 (integer powers only)
with alpha = 1.8 (anomalous t^{2+2/alpha} term with the -L int |grad V|^2
coefficient).  Run:  python demos/04_trace_expansion.py   (about half a minute)
"""

import numpy as np

from fracheat import coefficients as coeff
from fracheat import trace_oracle as oracle
from fracheat.potential import GaussianPotential

v = GaussianPotential(-1.0, 1.0)
grid = oracle.SpectralGrid(1, 40.0, 1024)
rng = np.random.default_rng(31)

print("== fit over t in [1e-3, 1e-1] at alpha = 1 ==")
tg = np.geomspace(1e-3, 1e-1, 40)
curve = oracle.extrapolated_trace_curve(v, 1.0, grid, tg)
print(f"  grid-doubling stability: {curve.meta['grid_doubling_max_rel_change']:.2e}")
fit = oracle.fit_expansion(curve, [1.0, 2.0, 3.0, 4.0])
targets = {
    1.0: -v.integral_power(1),
    2.0: v.integral_power(2) / 2.0,
    3.0: -v.integral_power(3) / 6.0,
}
for e in (1.0, 2.0, 3.0):
    got, sig = fit.coefficient_at(e)
    print(f"  t^{e:g}: fitted {got:+.5f}  target {targets[e]:+.5f}"
          f"  ({abs(got / targets[e] - 1):.2%} off)")

print("\n== anomalous exponent 2 + 2/alpha at alpha = 1.8 ==")
anom = 2.0 + 2.0 / 1.8
anchors = {e: c for e, c in targets.items()}
tg9 = np.geomspace(0.05, 0.4, 50)
for alpha in (1.0, 1.8):
    curve = oracle.extrapolated_trace_curve(v, alpha, grid, tg9)
    fit = oracle.fit_expansion(curve, [anom, 4.0, 5.0, 6.0], anchors=anchors)
    got, sig = fit.coefficient_at(anom)
    verdict = "significant" if abs(got) > 3 * sig else "consistent with zero"
    print(f"  alpha={alpha}: coefficient at t^{anom:.3f} = {got:+.5f} +- {sig:.5f}"
          f"  -> {verdict}")

lc = coeff.constant_L(1, 1.8, 2_000_000, rng)
print(f"  Monte Carlo prediction: -L_(1,1.8) int|grad V|^2 = "
      f"{-lc.value * v.dirichlet_energy():+.5f}")
