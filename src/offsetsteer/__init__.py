"""Lateral path-following control lab for vehicles with offset-mounted sensors.

Simulates kinematic bicycle dynamics of a guidance point mounted anywhere on
the longitudinal symmetry axis, a nonlinear feedforward/feedback steering law
that accounts for that mounting offset (plus degraded comparison variants),
and the associated stability and frequency-response analysis.
"""

from .analysis import (FreqResponse, Lambdas, LinearModel, StabilityMap,
                       StabilityVerdict, amplification, eigenvalues,
                       frequency_response, is_stable, kappa_bar, lambdas,
                       linearize, peak_amplification, stability_region_scan)
from .bicycle import (HatPathState, VehicleParams, earth_derivatives,
                      hat_path_derivatives, path_derivatives,
                      rear_axle_lateral_accel)
from .errors import (ConfigError, DomainError, OffsetSteerError,
                     SingularityError)
from .paths import (EarthState, Path, PathSpec, PathState, build_path,
                    load_curvature_table, wrap_angle_error)
from .sim import (ComparisonReport, ScenarioConfig, TrackingMetrics,
                  Trajectory, compare_controllers, run_scenario, step_rk4,
                  write_metrics, write_trajectory_csv)
from .steering import (ControlConfig, SteeringDecision, VARIANTS, control,
                       desired_heading, desired_yaw_error, feedforward,
                       feedforward_error, max_allowable_steer, wrapper)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport", "ConfigError", "ControlConfig", "DomainError",
    "EarthState", "FreqResponse", "HatPathState", "Lambdas", "LinearModel",
    "OffsetSteerError", "Path", "PathSpec", "PathState",
    "ScenarioConfig", "SingularityError", "StabilityMap", "StabilityVerdict",
    "SteeringDecision", "TrackingMetrics", "Trajectory", "VARIANTS",
    "VehicleParams", "amplification", "build_path", "compare_controllers",
    "control", "desired_heading", "desired_yaw_error", "earth_derivatives",
    "eigenvalues", "feedforward", "feedforward_error",
    "frequency_response", "hat_path_derivatives", "is_stable", "kappa_bar",
    "lambdas", "linearize", "load_curvature_table", "max_allowable_steer",
    "path_derivatives", "peak_amplification", "rear_axle_lateral_accel",
    "run_scenario", "stability_region_scan", "step_rk4", "wrap_angle_error",
    "wrapper", "write_metrics", "write_trajectory_csv",
]
