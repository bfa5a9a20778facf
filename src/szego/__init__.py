"""Exact evolution toolkit for the cubic Szego equation on the real line.

Rational Hardy-space data is evolved in closed form through the spectral
data of its finite-rank Hankel operator; the package also provides
action-angle coordinates with an explicit inverse, soliton-resolution and
Sobolev-growth analysis, and an independent pseudo-spectral integrator for
cross-validation.
"""

__version__ = "0.1.0"

from .errors import InputError, NumericalError, PreconditionError, ToleranceExceeded
from .rational import *  # noqa: F403 -- the names of rational.__all__
from .hankel import (
    SpectralDecomposition,
    TMatrix,
    classify_genericity,
    decomposition_to_json,
    eigendecompose,
    t_matrix,
)
from .flow import (
    FlowMatrix,
    conserved_quantities,
    evolve_eval,
    recover_rational,
    s_matrix,
    spectral_conserved,
    trajectory,
)
from .actionangle import (
    ActionAngleCoords,
    chi,
    chi_inverse,
    hierarchy_flow,
    hierarchy_vector_field,
    szego_flow,
    toroidal_cylinder_check,
)
from .asymptotics import (
    NonGenericReport,
    ResolutionReport,
    SolitonParams,
    growth_fit,
    nongeneric_analysis,
    remainder_norms,
    soliton_params_from_spectrum,
    soliton_term,
)
from .oracle import (
    GridState,
    compare,
    grid_physical,
    integrate,
    mass,
    sample_to_grid,
    self_convergence,
    step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
