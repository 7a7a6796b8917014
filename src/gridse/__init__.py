"""Weighted least-squares state estimation for transmission grids.

Models a network as pi-model branches, evaluates legacy, phasor
(polar and rectangular) and DC measurement functions with analytic
Jacobians, and recovers complex bus voltages by one Gauss-Newton loop
for every formulation (a single exact step where the Jacobian is
constant).  A scenario synthesizer generates ground
truth and noisy measurements so every claim is testable at desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    EmptyMeasurementSet,
    EstimationError,
    FlatStartSingularity,
    InputError,
    NonPositiveVariance,
    NotConnected,
    SingularGain,
    UnsupportedKind,
    ZeroImpedance,
    ZeroMagnitude,
)
from .estimators import (
    EstimationProblem,
    EstimationResult,
    Formulation,
    GainSystem,
    SolverConfig,
    assemble_problem,
    gauss_newton,
    linear_wls,
    objective,
    result_to_dict,
    solve,
)
from .measurements import (
    CovarianceModel,
    Measurement,
    MeasurementKind,
    MeasurementSet,
    load_measurements,
    measurements_to_dict,
    polar_to_rect_variance,
)
from .network import (
    Branch,
    Bus,
    NetworkModel,
    assemble_admittance,
    branch_admittance,
    load_network,
)
from .states import StateVector, to_polar, to_rectangular, wrap_angle
from .synthesis import (
    ScenarioSpec,
    load_scenario,
    sample_true_state,
    state_from_dict,
    state_to_dict,
    synthesize,
    truth_to_dict,
)

__all__ = [
    "Branch",
    "Bus",
    "CovarianceModel",
    "DimensionMismatch",
    "EmptyMeasurementSet",
    "EstimationError",
    "EstimationProblem",
    "EstimationResult",
    "FlatStartSingularity",
    "Formulation",
    "GainSystem",
    "InputError",
    "Measurement",
    "MeasurementKind",
    "MeasurementSet",
    "NetworkModel",
    "NonPositiveVariance",
    "NotConnected",
    "ScenarioSpec",
    "SingularGain",
    "SolverConfig",
    "StateVector",
    "UnsupportedKind",
    "ZeroImpedance",
    "ZeroMagnitude",
    "assemble_admittance",
    "assemble_problem",
    "branch_admittance",
    "gauss_newton",
    "linear_wls",
    "load_measurements",
    "load_network",
    "load_scenario",
    "measurements_to_dict",
    "objective",
    "polar_to_rect_variance",
    "result_to_dict",
    "sample_true_state",
    "solve",
    "state_from_dict",
    "state_to_dict",
    "synthesize",
    "to_polar",
    "to_rectangular",
    "truth_to_dict",
    "wrap_angle",
]
