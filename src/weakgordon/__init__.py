"""Weak Gordon seminorms, measure-potential transfer matrices and
eigenvalue-exclusion certificates for one-dimensional Schrodinger operators.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    ResourceError,
    ToleranceError,
    ValidationError,
    WeakGordonError,
)
from .measure import (
    LocalMeasure,
    PeriodicMeasure,
    PiecewiseAffine,
    Segment,
    add_measures,
    dirac,
    fold_into_period,
    lebesgue,
    make_measure,
    materialize_periodic,
    mollify,
    mollify_with_error,
    multiply_lipschitz,
    negate,
    norm_unif,
    phi,
    restrict,
    scale,
    subtract,
    total_variation,
    translate,
    zero_measure,
)
from .seminorm import (
    SeminormResult,
    interval_seminorm,
    sliding_l1_sup,
    test_functional,
    window_seminorm,
)
from .propagator import (
    SolutionTrace,
    TransferMatrix,
    derivative_sup_bound,
    dirichlet_neumann,
    gronwall_bound,
    propagate,
    sharp_growth_bound,
    solution_difference,
    spectral_shift,
    stability_bound,
    transfer_matrix,
    transfer_steps,
    variation_of_constants_value,
)
from .gordon import (
    GordonReport,
    GordonRow,
    estimate_C_mu,
    exclusion_bound,
    gordon_ratio,
    periodic_approximant,
    periodic_three_point_check,
    translation_defect,
)
from .constructions import (
    LiouvilleAlpha,
    QuasiperiodicMeasure,
    SharpnessConstruction,
    SharpnessReport,
    eigen_residual,
    eigenfunction_trace,
    interior_derivative,
    interior_solution,
    liouville_alpha,
    mass_difference,
    quasiperiodic_measure,
    sharpness_construction,
    sharpness_report,
)
from .measure_io import SpecFileError, dump_measure, load_measure, parse_measure

__all__ = [name for name in dir() if not name.startswith("_")]
