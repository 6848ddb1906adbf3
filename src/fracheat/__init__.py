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
- :mod:`fracheat.cli` -- reproducible experiment driver.
"""

__version__ = "0.1.0"

from .coefficients import (  # noqa: F401
    ExponentSchedule,
    ValidityReport,
    constant_L,
    constant_M,
    constant_N,
    exponent_schedule,
    matrix_AJ,
    mc_coefficient_Cnj,
    mc_constant_K,
    phi_exponent,
    remainder_bound,
    validate_params,
)
from .heat_kernel import (  # noqa: F401
    Estimate,
    kernel_at_zero,
    kernel_value,
    mixed_kernel_at_zero,
    relativistic_kernel_at_zero,
)
from .potential import GaussianMixturePotential, GaussianPotential  # noqa: F401
from .subordinator import (  # noqa: F401
    SubordinatorSpec,
    density_half,
    sample_increments,
    sample_mixed,
    sample_relativistic,
    sample_stable,
    stable_moment,
    tail_lower_bound,
)
from .trace_oracle import (  # noqa: F401
    ExpansionFit,
    SpectralGrid,
    TraceCurve,
    build_hamiltonian,
    extrapolated_trace_curve,
    fit_expansion,
    trace_difference_curve,
)
