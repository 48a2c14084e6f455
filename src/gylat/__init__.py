"""Determinants, spectra, inverse-power sums and vacuum energies of
one-dimensional second-order lattice Schrodinger operators.

The library computes functional determinants of difference operators
-(1/h^2) grad div + Vbar on the interval and the circle through the
terminal value of an initial-value (transfer-matrix) solution, validated
against closed forms and an independent brute-force eigenvalue oracle.
"""

from .core import (
    CharPoly,
    BoundaryCondition,
    LatticeSpec,
    LogDet,
    Mat2,
    Potential,
    Spectrum,
    Vec2,
    J,
    A_PROJ,
    dirichlet,
    neumann,
    periodic,
    robin,
    twisted,
    load_potential,
)
from .chebyshev import (
    cheb_matrix_power,
    cheb_t,
    cheb_t_poly,
    cheb_u,
    cheb_u_poly,
    cheb_v,
    cheb_v_poly,
)
from .transfer import (
    Propagator,
    casoratian,
    char_poly,
    determinant,
    eigenfunctions,
    periodic_char_fn,
    propagate,
    step_matrix,
)
from .closedform import (
    MassParam,
    continuum_limit_targets,
    continuum_scaling_exponent,
    free_determinant,
    free_eigenvalues,
)
from .spectrum import (
    cosecant_sum,
    inverse_power_sums,
    oracle_spectrum,
    poly_roots,
    robin_cosec_sum,
)
from .perturbation import (
    DeltaPotentialResult,
    delta_potential,
    dirichlet_det_series,
    dirichlet_trace_series,
    neumann_det_series,
    neumann_trace_series,
    symmetric_factor_check,
)
from .vacuum import (
    EnergyExpansion,
    extract_constant,
    free_energy_closed,
    twisted_bernoulli_series,
    vacuum_energy,
)

__version__ = "0.1.0"
