"""fracheat: numerics for small-time heat traces of fractional Schrodinger operators.

Subpackages by concern:

- :mod:`fracheat.subordinator` -- exact stable/relativistic/mixed subordinator
  samplers, moments and tail bounds;
- :mod:`fracheat.heat_kernel` -- stable transition densities p_t^{(alpha)}(x)
  and at-zero values for the subordinate families;
- :mod:`fracheat.potential` -- Gaussian-family Schwartz test potentials with
  analytic Fourier transforms and closed-form functionals;
- :mod:`fracheat.coefficients` -- the L_j functional, Monte Carlo expansion
  coefficients C_{n,j}(V), the K1/K2/K3 and L/M/N constants, exponent
  schedules and validity conditions;
- :mod:`fracheat.trace_oracle` -- independent pseudospectral ground truth and
  asymptotic-series fitting;
- :mod:`fracheat.acceptance` -- the acceptance suite;
- :mod:`fracheat.sobol` -- scrambled Sobol points for the randomized
  quasi-Monte Carlo estimators;
- :mod:`fracheat.cli` -- reproducible experiment driver.

Import names from the submodules; the package root holds only the version.
"""

__version__ = "0.1.0"
