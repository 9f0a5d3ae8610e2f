"""Nonlinear feedforward/feedback steering law aware of the sensor offset.

The ``full`` law steers the guidance point's osculating circle concentric
with the path's curvature circle and regulates the heading error toward a
curvature-dependent desired value. Three deliberately degraded variants are
provided for comparison studies:

* ``naive``     - sensor offset ignored (rear-axle law applied as-is),
* ``unwrapped`` - like naive but without the bounding wrapper,
* ``linear``    - small-error linearization, no wrapper.

``control`` evaluates the law for one state. A closed-loop run binds it once
(``_law``): the variant, the wrap decision and the feedback bound g_sat are
resolved before the loop, and each update returns a plain tuple.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
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

    def __post_init__(self):
        # Written so that NaN fails each check.
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown controller variant {self.variant!r}; "
                              f"expected one of {VARIANTS}")
        for name in ("k1", "k2"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.max_lat_accel < math.inf:
            raise ConfigError(
                f"max_lat_accel must be positive and finite, got {self.max_lat_accel}")


class SteeringDecision(NamedTuple):
    """One steering command with its introspection channels."""

    gamma_des: float  # commanded steering angle [rad]
    gamma_ff: float   # feedforward part [rad]
    gamma_fb: float   # feedback part [rad]
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


def _curvature_terms(kappa: float, params: VehicleParams,
                     variant: str) -> tuple[float, float]:
    """The variant's feedforward angle and desired heading error, from one d*kappa."""
    if variant == "full":
        dk = check_trackable(kappa, params.sensor_offset)
        return (math.atan(params.wheelbase * kappa / math.sqrt(1.0 - dk * dk)),
                -math.asin(dk))
    return math.atan(params.wheelbase * kappa), 0.0


def feedforward(kappa: float, params: VehicleParams, variant: str = "full") -> float:
    """Steering angle that holds the guidance point on a circle of curvature kappa.

    The ``full`` variant accounts for the sensor offset,
    atan(l*kappa / sqrt(1 - (d*kappa)^2)); every degraded variant falls back
    to the rear-axle form atan(l*kappa).
    """
    return _curvature_terms(kappa, params, variant)[0]


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


def _feedback(e: float, theta: float, theta_0: float, cfg: ControlConfig) -> float:
    """Feedback command before the bounding wrapper."""
    if cfg.variant == "linear":
        return cfg.k1 * theta + cfg.k1 * cfg.k2 * e
    return cfg.k1 * (theta - theta_0 + math.atan(cfg.k2 * e))


def _feedback_bound(cfg: ControlConfig, params: VehicleParams) -> float | None:
    """Bound g_sat the wrapped variants put on the feedback; None for the others.

    Degraded variants stay unbounded on purpose: reproducing their
    pathologies is the point of simulating them.
    """
    if cfg.variant in _WRAPPED_VARIANTS:
        return max_allowable_steer(params, cfg.max_lat_accel)
    return None


def _law(cfg: ControlConfig, params: VehicleParams):
    """The configured steering law with the run's constants bound once.

    Returns ``law(e, theta, kappa) -> (gamma_des, gamma_ff, gamma_fb,
    fb_input)``, the fields of ``SteeringDecision`` as a plain tuple.
    """
    variant = cfg.variant
    g_sat = _feedback_bound(cfg, params)
    max_steer = params.max_steer

    def law(e: float, theta: float, kappa: float) -> tuple[float, float, float, float]:
        gamma_ff, theta_0 = _curvature_terms(kappa, params, variant)
        raw = _feedback(e, theta, theta_0, cfg)
        if g_sat is None:
            return gamma_ff + raw, gamma_ff, raw, raw
        gamma_fb = wrapper(raw, g_sat)
        gamma_des = gamma_ff + gamma_fb
        if abs(gamma_des) > max_steer:
            # The wrapper bounds only the feedback; clamp the total so the
            # plant's tan() stays off its singularity.
            logger.warning("steering command %.6g rad clipped to physical limit %.6g rad",
                           gamma_des, max_steer)
            gamma_des = math.copysign(max_steer, gamma_des)
        return gamma_des, gamma_ff, gamma_fb, raw

    return law


def feedback(e: float, theta: float, kappa: float, cfg: ControlConfig,
             params: VehicleParams) -> float:
    """Feedback steering correction for the configured variant.

    It equals ``control``'s ``gamma_fb``; it clamps nothing, so it never logs.
    """
    raw = _feedback(e, theta, _curvature_terms(kappa, params, cfg.variant)[1], cfg)
    g_sat = _feedback_bound(cfg, params)
    return raw if g_sat is None else wrapper(raw, g_sat)


def control(state: PathState, kappa: float, cfg: ControlConfig,
            params: VehicleParams) -> SteeringDecision:
    """Full steering command for the current path-frame state."""
    return SteeringDecision(*_law(cfg, params)(state.e, state.theta, kappa))
