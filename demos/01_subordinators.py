"""Subordinator samplers and their closed-form laws.

Draws from the stable, relativistic and mixed families and checks each
against the law that defines it: the Laplace transform exp(-t * phi(lam)),
the moment formula Gamma(1 - 2 eta/alpha)/Gamma(1 - eta), and the explicit
alpha = 1 density.  Every sampler takes the number of draws and returns a
1-D array of them.  Run:  python demos/01_subordinators.py
"""

import numpy as np
from scipy import special, stats

from fracheat import subordinator as sub

rng = np.random.default_rng(7)
n = 200_000

print("== Laplace transforms:  mean exp(-lam S_t)  vs  exp(-t phi(lam)) ==")
specs = [
    sub.SubordinatorSpec.stable(0.7),
    sub.SubordinatorSpec.stable(1.5),
    sub.SubordinatorSpec.relativistic(1.0, 1.0),
    sub.SubordinatorSpec.mixed(0.8, 1.6, 1.0),
]
t = 0.5
for spec in specs:
    s = spec.sample(t, rng, size=n)
    row = []
    for lam in (0.5, 1.0, 2.0, 5.0):
        emp = np.exp(-lam * s).mean()
        row.append(f"lam={lam}: {emp:.4f}/{np.exp(-t * spec.laplace_exponent(lam)):.4f}")
    print(f"  {spec.family:<12} alpha={spec.alpha:<4}", "  ".join(row))

print("\n== Moments of S_1:  empirical vs Gamma(1 - 2 eta/alpha)/Gamma(1 - eta) ==")
for alpha in (0.8, 1.2, 1.8):
    s = sub.sample_stable(alpha, 1.0, rng, size=n)
    for eta in (-1.0, -0.5, 0.2 * alpha):
        print(f"  alpha={alpha} eta={eta:+.2f}:  {np.mean(s**eta):8.4f}"
              f"  vs  {sub.stable_moment(alpha, eta):8.4f}")

print("\n== alpha = 1: Kolmogorov-Smirnov against the closed-form density ==")
s = sub.sample_stable(1.0, 1.0, rng, size=n)
ks = stats.kstest(s, lambda x: special.erfc(1.0 / (2.0 * np.sqrt(x))))
print(f"  KS statistic over {n} samples: {ks.statistic:.2e} (p = {ks.pvalue:.3f})")

print("\n== Tail bound:  P(1 < S_1 < N_alpha) >= (1 - exp(-v_alpha))/2 ==")
for alpha in (0.5, 1.0, 1.5):
    v, p_lower = sub.tail_lower_bound(alpha)
    n_alpha = sub.N1_CLOSED_FORM if alpha == 1.0 else sub.upper_threshold(alpha, rng, n_samples=n)
    s = sub.sample_stable(alpha, 1.0, rng, size=n)
    freq = np.mean((s > 1.0) & (s < n_alpha))
    print(f"  alpha={alpha}: v={v:.4f}  N={n_alpha:.3f}  "
          f"empirical {freq:.4f} >= bound {p_lower:.4f}")

print("\n== Relativistic rejection sampler acceptance rate vs exp(-m t) ==")
samples, proposals, accepted = sub.sample_relativistic(
    1.0, 1.0, 0.5, rng, size=n, return_stats=True
)
print(f"  rate {accepted / proposals:.4f}  vs  {np.exp(-0.5):.4f}")
