"""Bounded-time safety verification and falsification of linear DAE systems.

The pipeline: a linear DAE ``E x' = A x + B u`` with smooth inputs is
lifted to autonomous form, decoupled into one ODE subsystem plus
algebraic-constraint subsystems through a projector matrix chain
(tractability index 1 to 3), checked for initial-set consistency, and
propagated in discrete time as star sets.  Safety against a linear unsafe
set reduces to one small linear feasibility problem per time step, run
only where the predicate's support function cannot prove the step safe,
and an unsafe verdict comes with a concrete counterexample trace.
"""

from .benchmarks import (
    build_rotating_masses,
    build_stokes,
    rotating_masses_initial_star,
    stokes_center_velocity_rows,
)
from .consistency import check_initial_star
from .decoupling import compute_index_and_chain, decouple, decouple_system
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
from .linalg import DEFAULT_TOLERANCES
from .model import DaeSystem, to_autonomous
from .modelio import load_directions, load_initial_star, load_model, load_unsafe
from .reachability import ReachResult, ReachSettings, compute_reach, propagate_basis
from .safety import UnsafeSpec, verify
from .starset import StarSet

__version__ = "0.1.0"

__all__ = [
    "DaeError",
    "DaeSystem",
    "DimensionMismatchError",
    "EmptyPredicateError",
    "InconsistentInitialSetError",
    "IndexTooHighError",
    "IrregularPencilError",
    "NonsingularEError",
    "NumericalFailureError",
    "ParseError",
    "ReachResult",
    "ReachSettings",
    "SingularMatrixError",
    "StarSet",
    "UnboundedPredicateError",
    "UnsafeSpec",
    "DEFAULT_TOLERANCES",
    "build_rotating_masses",
    "build_stokes",
    "check_initial_star",
    "compute_index_and_chain",
    "compute_reach",
    "decouple",
    "decouple_system",
    "load_directions",
    "load_initial_star",
    "load_model",
    "load_unsafe",
    "propagate_basis",
    "rotating_masses_initial_star",
    "stokes_center_velocity_rows",
    "to_autonomous",
    "verify",
]
