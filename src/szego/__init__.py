"""Exact evolution toolkit for the cubic Szego equation on the real line.

Rational Hardy-space data is evolved in closed form through the spectral
data of its finite-rank Hankel operator; the package also provides
action-angle coordinates with an explicit inverse, soliton-resolution and
Sobolev-growth analysis, and an independent pseudo-spectral integrator for
cross-validation.
"""

__version__ = "0.1.0"

from .errors import InputError, NumericalError, PreconditionError, ToleranceExceeded
from .rational import (
    BlaschkeData,
    FourierTerm,
    HardyRational,
    PoleTerm,
    RationalFn,
    as_hardy,
    blaschke,
    fn_integral,
    fourier_transform,
    from_json_dict,
    from_terms,
    h_half_norm,
    hankel_apply,
    hardy_from_terms,
    homogeneous_sobolev_norm,
    inner_product,
    l2_norm,
    lambda_functional,
    load_symbol,
    pf_from_ratio,
    simple_pole,
    spectral_density,
    symplectic_form,
    szego_project,
    to_json_dict,
    zero,
)
from .hankel import (
    RangeBasis,
    SpectralDecomposition,
    TMatrix,
    build_range_basis,
    classify_genericity,
    decomposition_to_json,
    eigendecompose,
    eigenfunction,
    hankel_matrix,
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
