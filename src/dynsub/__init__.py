"""Dynamic substructuring toolkit.

Craig-Bampton model-order reduction of linear substructures plus a
partitioned trapezoidal co-simulation solver coupling them to nonlinear
substructures through Lagrange-multiplier interface forces.
"""

from .coupling import CouplingError, CouplingTopology
from .metrics import FrequencyErrorTable, MacMatrix, Smoothness, frequency_error_table, mac, smoothness, trajectory_mse
from .models import (
    FirstOrderForm,
    LinearSubstructure,
    ModelError,
    NonlinearSubstructure,
    SuspensionElement,
    assemble_first_order,
    finite_difference_tangent,
    rayleigh_damping,
    tangent_at_zero,
)
from .monolithic import AssembledSystem, analytic_sdof, assemble_global, solve_monolithic, solve_newmark
from .reduction import (
    CraigBamptonReduction,
    ReductionError,
    constraint_modes,
    expand,
    fixed_interface_modes,
    reduce,
)
from .signals import SignalSpec, generate_signal
from .solver import (
    CoupledSystem,
    DivergenceError,
    PartitionedSolver,
    SolverConfig,
    SolverError,
    Trajectory,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "CoupledSystem",
    "CouplingError",
    "CouplingTopology",
    "CraigBamptonReduction",
    "DivergenceError",
    "FirstOrderForm",
    "FrequencyErrorTable",
    "LinearSubstructure",
    "MacMatrix",
    "ModelError",
    "NonlinearSubstructure",
    "PartitionedSolver",
    "ReductionError",
    "SignalSpec",
    "Smoothness",
    "SolverConfig",
    "SolverError",
    "SuspensionElement",
    "Trajectory",
    "analytic_sdof",
    "assemble_first_order",
    "assemble_global",
    "constraint_modes",
    "expand",
    "finite_difference_tangent",
    "fixed_interface_modes",
    "frequency_error_table",
    "generate_signal",
    "mac",
    "rayleigh_damping",
    "reduce",
    "simulate",
    "smoothness",
    "solve_monolithic",
    "solve_newmark",
    "tangent_at_zero",
    "trajectory_mse",
]
