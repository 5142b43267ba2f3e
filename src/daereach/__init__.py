"""Bounded-time safety verification and falsification of linear DAE systems.

The pipeline: a linear DAE ``E x' = A x + B u`` with smooth inputs is
lifted to autonomous form, decoupled into one ODE subsystem plus
algebraic-constraint subsystems through a projector matrix chain
(tractability index 1 to 3), checked for initial-set consistency, and
propagated in discrete time as star sets.  Safety against a linear unsafe
set reduces to one small linear feasibility problem per time step, run
only where the predicate's vertices cannot prove the step safe, and an
unsafe verdict comes with a concrete counterexample trace.
"""

from .benchmarks import (
    build_rotating_masses,
    build_stokes,
    rotating_masses_initial_star,
    stokes_center_velocity_rows,
)
from .consistency import (
    ConsistencyCertificate,
    build_consistent_matrix,
    check_initial_star,
)
from .decoupling import (
    DecoupledSystem,
    MatrixChain,
    compute_index_and_chain,
    decouple,
    decouple_system,
    make_admissible,
)
from .errors import (
    DaeError,
    DimensionMismatchError,
    EmptyPredicateError,
    InconsistentInitialSetError,
    IndexTooHighError,
    IrregularPencilError,
    NonsingularEError,
    NumericalFailureError,
    ParseError,
    SingularMatrixError,
    UnboundedPredicateError,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
    matrix_exponential,
    numerical_rank,
    orthogonal_null_projector,
    solve_inverse,
)
from .model import (
    AutonomousDae,
    DaeSystem,
    InputModel,
    check_regularity,
    to_autonomous,
)
from .modelio import (
    load_directions,
    load_initial_star,
    load_model,
    load_unsafe,
    save_initial_star,
    save_model,
    save_unsafe,
)
from .reachability import (
    ReachResult,
    ReachSettings,
    build_psi,
    compute_reach,
    propagate_basis,
)
from .safety import (
    UnsafeSpec,
    VerificationOutcome,
    feasibility_check,
    verify,
)
from .starset import StarSet

__version__ = "0.1.0"

__all__ = [
    "AutonomousDae",
    "ConsistencyCertificate",
    "DaeError",
    "DaeSystem",
    "DecoupledSystem",
    "DimensionMismatchError",
    "EmptyPredicateError",
    "InconsistentInitialSetError",
    "IndexTooHighError",
    "InputModel",
    "IrregularPencilError",
    "MatrixChain",
    "NonsingularEError",
    "NumericalFailureError",
    "ParseError",
    "ReachResult",
    "ReachSettings",
    "SingularMatrixError",
    "StarSet",
    "TolerancePolicy",
    "UnboundedPredicateError",
    "UnsafeSpec",
    "VerificationOutcome",
    "DEFAULT_TOLERANCES",
    "build_consistent_matrix",
    "build_psi",
    "build_rotating_masses",
    "build_stokes",
    "check_initial_star",
    "check_regularity",
    "compute_index_and_chain",
    "compute_reach",
    "decouple",
    "decouple_system",
    "feasibility_check",
    "load_directions",
    "load_initial_star",
    "load_model",
    "load_unsafe",
    "make_admissible",
    "matrix_exponential",
    "numerical_rank",
    "orthogonal_null_projector",
    "propagate_basis",
    "rotating_masses_initial_star",
    "save_initial_star",
    "save_model",
    "save_unsafe",
    "solve_inverse",
    "stokes_center_velocity_rows",
    "to_autonomous",
    "verify",
]
