"""Variational integrators for higher-order Lagrangian systems with constraints."""

from .core import (
    ConstrainedSystem,
    DiscretePath,
    MultiplierSequence,
    WindowFunction,
    augmented_window_value,
    discrete_action,
)
from .delsolve import (
    BoundaryData,
    SolveReport,
    StepState,
    constraint_gradients,
    constraint_residual,
    del_residual,
    solve_bvp,
    step,
)
from .derivatives import check_gradient, partial
from .errors import (
    DimensionError,
    NonConvergenceError,
    NumericError,
    RegularityError,
)
from .geometry import (
    GroupAction,
    check_momentum_conservation,
    check_symplecticity,
    momentum,
    omega_matrix,
    rotation_action,
    theta_minus,
    theta_plus,
    translation_action,
)
from .timedep import (
    TimedPath,
    TimeDependentLagrangian,
    adaptive_step_constraints,
    discrete_energy,
    extend,
    fixed_step_constraints,
    solve_fixed_step,
    solve_free_times,
)
from .applications import (
    UnderactuatedSpec,
    beam_system,
    coupled_quadratic_lagrangian,
    great_circle_state,
    recover_controls,
    solve_ocp,
    sphere_multiplier,
    sphere_spline_system,
    underactuated_to_constrained,
)

__version__ = "0.1.0"
