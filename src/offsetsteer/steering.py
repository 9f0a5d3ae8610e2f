"""Nonlinear feedforward/feedback steering law aware of the sensor offset.

The ``full`` law steers the guidance point's osculating circle concentric
with the path's curvature circle and regulates the heading error toward a
curvature-dependent desired value. Three deliberately degraded variants are
provided for comparison studies:

* ``naive``     - sensor offset ignored (rear-axle law applied as-is),
* ``unwrapped`` - like naive but without the bounding wrapper,
* ``linear``    - small-error linearization, no wrapper.

Each formula has one home: ``feedforward``, ``desired_yaw_error``,
``desired_heading`` and ``wrapper``, with ``bicycle.check_trackable`` for the
rule |d*kappa| < 1. ``_law`` binds a run's constants once (gains, l, d, the
wrapper's scale 2*g_sat/pi and max_steer) and returns one straight-line
closure per variant that writes those formulas out, so an update makes no
Python call unless it clips or d*kappa fails the range test. Each update
returns a plain tuple, with the ``full`` law's desired heading error
-asin(d*kappa) so that a closed-loop run need not compute it again. A test
requires each closure to equal the law composed from the homes bit for bit.
``control`` evaluates the law for one state; its ``gamma_fb`` is the
feedback correction alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

from .bicycle import VehicleParams, check_trackable
from .errors import ConfigError, check_range
from .paths import PathState

logger = logging.getLogger(__name__)

VARIANTS = ("full", "naive", "unwrapped", "linear")
# The variants whose feedback passes through the bounding wrapper.
WRAPPED = ("full", "naive")


@dataclass(frozen=True)
class ControlConfig:
    k1: float                    # heading-error gain [-]
    k2: float                    # lateral-deviation gain [1/m]
    max_lat_accel: float         # comfort bound on lateral acceleration [m/s^2]
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown controller variant {self.variant!r}; "
                              f"expected one of {VARIANTS}")
        for name in ("k1", "k2", "max_lat_accel"):
            check_range(name, getattr(self, name))


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


def _law(cfg: ControlConfig, params: VehicleParams):
    """The configured steering law with the run's constants bound once.

    Returns ``law(e, theta, kappa) -> (gamma_des, gamma_ff, gamma_fb,
    fb_input, theta_0)``: the fields of ``SteeringDecision`` as a plain tuple,
    then ``desired_yaw_error(kappa, d)`` where the law computes it (``full``)
    and None for the variants that ignore the sensor offset. Nothing else
    evaluates the feedback, decides which variants it wraps, or clips.

    Each variant is one straight-line closure over the formulas' homes,
    written out in their evaluation order (see the module docstring). The
    guard calls ``check_trackable`` only when d*kappa fails its range test,
    so the message lives once.
    """
    k1, k2 = cfg.k1, cfg.k2
    k1_k2 = k1 * k2
    wheelbase, d = params.wheelbase, params.sensor_offset
    max_steer = params.max_steer
    atan, asin, sqrt, copysign = math.atan, math.asin, math.sqrt, math.copysign

    def clip(gamma_des: float) -> float:
        # The wrapper bounds only the feedback; clamp the total so the
        # plant's tan() stays off its singularity.
        logger.warning("steering command %.6g rad clipped to physical limit %.6g rad",
                       gamma_des, max_steer)
        return copysign(max_steer, gamma_des)

    # Only full and naive wrap the feedback. The other degraded variants stay
    # unbounded on purpose: reproducing their pathologies is the point.
    if cfg.variant in WRAPPED:
        scale = 2.0 * max_allowable_steer(params, cfg.max_lat_accel) / math.pi

    def full(e: float, theta: float, kappa: float) -> tuple[float, float, float, float, float]:
        dk = d * kappa
        if not -1.0 < dk < 1.0:
            check_trackable(kappa, d)
        gamma_ff = atan(wheelbase * kappa / sqrt(1.0 - dk * dk))
        theta_0 = -asin(dk)
        raw = k1 * (theta - theta_0 + atan(k2 * e))
        gamma_fb = scale * atan(raw / scale)
        gamma_des = gamma_ff + gamma_fb
        if abs(gamma_des) > max_steer:
            gamma_des = clip(gamma_des)
        return gamma_des, gamma_ff, gamma_fb, raw, theta_0

    # The offset-blind variants aim for theta_0 = 0, and theta - 0.0 is theta.
    def naive(e: float, theta: float, kappa: float) -> tuple[float, float, float, float, None]:
        gamma_ff = atan(wheelbase * kappa)
        raw = k1 * (theta + atan(k2 * e))
        gamma_fb = scale * atan(raw / scale)
        gamma_des = gamma_ff + gamma_fb
        if abs(gamma_des) > max_steer:
            gamma_des = clip(gamma_des)
        return gamma_des, gamma_ff, gamma_fb, raw, None

    def unwrapped(e: float, theta: float,
                  kappa: float) -> tuple[float, float, float, float, None]:
        gamma_ff = atan(wheelbase * kappa)
        raw = k1 * (theta + atan(k2 * e))
        return gamma_ff + raw, gamma_ff, raw, raw, None

    def linear(e: float, theta: float, kappa: float) -> tuple[float, float, float, float, None]:
        gamma_ff = atan(wheelbase * kappa)
        raw = k1 * theta + k1_k2 * e
        return gamma_ff + raw, gamma_ff, raw, raw, None

    return {"full": full, "naive": naive, "unwrapped": unwrapped, "linear": linear}[cfg.variant]


def control(state: PathState, kappa: float, cfg: ControlConfig,
            params: VehicleParams) -> SteeringDecision:
    """Full steering command for the current path-frame state."""
    return SteeringDecision(*_law(cfg, params)(state.e, state.theta, kappa)[:4])
