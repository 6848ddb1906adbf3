"""Expansion coefficients: the L_j machinery, K constants, and conventions.

Run:  python demos/03_expansion_constants.py   (a few seconds)
"""

import math

import numpy as np

from fracheat import coefficients as coeff
from fracheat.potential import GaussianPotential

rng = np.random.default_rng(23)
v = GaussianPotential(1.0, 1.0)

print("== closed-form alpha = 2 values ==")
print(f"  K1 = {coeff.deterministic_constant_K('K1', 1, 2.0):.12f}  (= 1/12)")
print(f"  K2 = {coeff.deterministic_constant_K('K2', 1, 2.0):.12f}  (= 1/60)")
print(f"  K3 = {coeff.deterministic_constant_K('K3', 1, 2.0):.12f}  (= 1/24)")

print("\n== L_{1,alpha} -> 1/12 as alpha -> 2 ==")
for alpha in (1.6, 1.7, 1.8, 1.9, 1.95):
    est = coeff.constant_L(1, alpha, 2_000_000, rng)
    print(f"  alpha={alpha}: L = {est.value:.5f} +- {est.stderr:.5f}"
          f"   |L - 1/12| = {abs(est.value - 1 / 12):.5f}")

print("\n== convention gate: C_{0,j} must equal int V^j / j! ==")
for j in (2, 3):
    est = coeff.mc_coefficient_Cnj(v, 0, j, 1, 1.0, 1_000_000, rng)
    print(f"  j={j}: {est.value:.5f} +- {est.stderr:.5f}"
          f"   target {v.integral_power(j) / math.factorial(j):.5f}")

print("\n== cross-pipeline: C_{1,2} vs L_{1,alpha} int |grad V|^2 at alpha = 1.6 ==")
c12 = coeff.mc_coefficient_Cnj(v, 1, 2, 1, 1.6, 2_000_000, rng)
lc = coeff.constant_L(1, 1.6, 2_000_000, rng)
print(f"  direct  {c12.value:.5f} +- {c12.stderr:.5f}")
print(f"  via K1  {lc.value * v.dirichlet_energy():.5f}")

print("\n== exponent schedule at alpha = 1, J = 5, M = 2 ==")
sched = coeff.exponent_schedule(5, 2, 1.0, 1)
print(f"  cutoff Phi = {sched.cutoff}")
for e in sched.entries:
    print(f"  t^{e.exponent:g}  (n={e.n}, j={e.j}, sign {e.sign:+d})")

print("\n== candidate-power matrix A_6(1) ==")
for row in coeff.matrix_AJ(6, 1.0):
    print("  " + "  ".join(f"{x:g}" if x else "." for x in row))

print("\n== validity of the Taylor order M ==")
for d, alpha, m in ((1, 0.9, 1), (1, 1.2, 1), (1, 1.8, 2), (3, 0.6, 2)):
    rep = coeff.validate_params(d, alpha, m)
    print(f"  d={d} alpha={alpha} M={m}: basic {rep.basic_ok}, "
          f"improved {rep.improved_ok}, max admissible M = {rep.max_M}")
