"""Nonlinear feedforward/feedback steering law aware of the sensor offset.

The ``full`` law steers the guidance point's osculating circle concentric
with the path's curvature circle and regulates the heading error toward a
curvature-dependent desired value. Three deliberately degraded variants are
provided for comparison studies:

* ``naive``     - sensor offset ignored (rear-axle law applied as-is),
* ``unwrapped`` - like naive but without the bounding wrapper,
* ``linear``    - small-error linearization, no wrapper.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .bicycle import VehicleParams, check_trackable
from .errors import ConfigError
from .paths import PathState

logger = logging.getLogger(__name__)

VARIANTS = ("full", "naive", "unwrapped", "linear")

_WRAPPED_VARIANTS = ("full", "naive")


@dataclass(frozen=True)
class ControlConfig:
    k1: float                    # heading-error gain [-]
    k2: float                    # lateral-deviation gain [1/m]
    max_lat_accel: float         # comfort bound on lateral acceleration [m/s^2]
    variant: str = "full"
    g_sat: float | None = None   # feedback bound [rad]; derived, not user-set

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown controller variant {self.variant!r}; "
                              f"expected one of {VARIANTS}")
        if not 0.0 < self.max_lat_accel < math.inf:
            raise ConfigError(
                f"max_lat_accel must be positive and finite, got {self.max_lat_accel}")
        if self.g_sat is not None and not 0.0 < self.g_sat < math.inf:
            raise ConfigError(f"g_sat must be positive and finite, got {self.g_sat}")

    def resolved(self, params: VehicleParams) -> "ControlConfig":
        """Copy with the feedback bound computed for this vehicle and speed."""
        return replace(self, g_sat=max_allowable_steer(params, self.max_lat_accel))


class SteeringDecision(NamedTuple):
    """One steering command with its introspection channels."""

    gamma_des: float  # commanded steering angle [rad]
    gamma_ff: float   # feedforward part [rad]
    gamma_fb: float   # feedback part [rad]
    theta_0: float    # desired heading error used by the variant [rad]
    theta_des: float  # heading the feedback drives toward, from e alone [rad]
    fb_input: float   # feedback command before the bounding wrapper [rad]


def wrapper(x: float, g_sat: float) -> float:
    """Odd, bounded gain-reduction function (2*g_sat/pi) * atan(pi*x/(2*g_sat)).

    Slope 1 at the origin, saturates at +/- g_sat, and its incremental gain
    decays monotonically with |x|, replacing discrete gain scheduling.
    """
    scale = 2.0 * g_sat / math.pi
    return scale * math.atan(x / scale)


def max_allowable_steer(params: VehicleParams, max_lat_accel: float) -> float:
    """Steering bound honoring both the actuator limit and ride comfort.

    min(max_steer, atan(max_lat_accel * l / V^2)): the second term caps the
    rear-axle lateral acceleration at ``max_lat_accel``.
    """
    comfort = math.atan(max_lat_accel * params.wheelbase / params.speed ** 2)
    return min(params.max_steer, comfort)


def desired_yaw_error(kappa: float, sensor_offset: float) -> float:
    """Heading error -asin(d*kappa) required for zero lateral deviation.

    On curved roads a guidance point ahead of the rear axle must crab
    slightly toward the curve center; zero deviation and zero heading error
    are not simultaneously achievable unless d = 0 or kappa = 0.
    """
    return -math.asin(check_trackable(kappa, sensor_offset))


def feedforward(kappa: float, params: VehicleParams, variant: str = "full") -> float:
    """Steering angle that holds the guidance point on a circle of curvature kappa.

    The ``full`` variant accounts for the sensor offset,
    atan(l*kappa / sqrt(1 - (d*kappa)^2)); every degraded variant falls back
    to the rear-axle form atan(l*kappa).
    """
    if variant == "full":
        dk = check_trackable(kappa, params.sensor_offset)
        return math.atan(params.wheelbase * kappa / math.sqrt(1.0 - dk * dk))
    return math.atan(params.wheelbase * kappa)


def feedforward_error(kappa: float, params: VehicleParams) -> float:
    """Feedforward mismatch when the sensor offset is ignored."""
    return feedforward(kappa, params, "full") - feedforward(kappa, params, "naive")


def desired_heading(e: float, k2: float, variant: str = "full") -> float:
    """Heading error the feedback aims for, as a function of lateral deviation.

    Nonlinear variants use -atan(k2 * e), which points toward the path even
    for arbitrarily large deviations; the linear variant's -k2 * e wraps
    around and can command headings parallel to or away from the path.
    """
    if variant == "linear":
        return -k2 * e
    return -math.atan(k2 * e)


def _feedback(e: float, theta: float, kappa: float, cfg: ControlConfig,
              params: VehicleParams) -> tuple[float, float, float]:
    """Feedback correction, its pre-wrapper command and the desired heading error used."""
    if cfg.variant == "full":
        theta_0 = desired_yaw_error(kappa, params.sensor_offset)
        raw = cfg.k1 * (theta - theta_0 + math.atan(cfg.k2 * e))
    elif cfg.variant == "linear":
        theta_0, raw = 0.0, cfg.k1 * theta + cfg.k1 * cfg.k2 * e
    else:  # naive / unwrapped
        theta_0, raw = 0.0, cfg.k1 * (theta + math.atan(cfg.k2 * e))
    if cfg.variant not in _WRAPPED_VARIANTS:
        # Degraded variants stay unbounded on purpose: reproducing their
        # pathologies is the point of simulating them.
        return raw, raw, theta_0
    if cfg.g_sat is None:
        raise ConfigError("feedback bound not resolved; call ControlConfig.resolved() first")
    return wrapper(raw, cfg.g_sat), raw, theta_0


def feedback(e: float, theta: float, kappa: float, cfg: ControlConfig,
             params: VehicleParams) -> float:
    """Feedback steering correction for the configured variant."""
    return _feedback(e, theta, kappa, cfg, params)[0]


def control(state: PathState, kappa: float, cfg: ControlConfig,
            params: VehicleParams) -> SteeringDecision:
    """Full steering command for the current path-frame state."""
    gamma_ff = feedforward(kappa, params, cfg.variant)
    gamma_fb, raw, theta_0 = _feedback(state.e, state.theta, kappa, cfg, params)
    gamma_des = gamma_ff + gamma_fb
    if cfg.variant in _WRAPPED_VARIANTS and abs(gamma_des) > params.max_steer:
        # The wrapper bounds only the feedback; clamp the total so the
        # plant's tan() stays off its singularity.
        logger.warning("steering command %.6g rad clipped to physical limit %.6g rad",
                       gamma_des, params.max_steer)
        gamma_des = math.copysign(params.max_steer, gamma_des)
    return SteeringDecision(gamma_des, gamma_ff, gamma_fb, theta_0,
                            desired_heading(state.e, cfg.k2, cfg.variant), raw)
