"""Kinematic bicycle model with the guidance point mounted at an offset.

The wheels roll without side slip, the longitudinal speed is constant and
the steering angle is assigned directly. The guidance point A sits on the
symmetry axis at distance ``sensor_offset`` ahead of the rear axle center;
its motion is evaluated in the earth frame, in the path frame, and in the
path frame with the heading error measured from its curvature-dependent
desired value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import DomainError, SingularityError, check_range
from .paths import EarthState, PathState

_HALF_PI = 0.5 * math.pi

# Smallest 1 - e*kappa at which the path-frame rates are evaluated.
SINGULAR_DENOM = 1e-12


@dataclass(frozen=True)
class VehicleParams:
    wheelbase: float       # l: front-to-rear axle distance [m]
    sensor_offset: float   # d: guidance point ahead of rear axle [m]
    max_steer: float       # physical steering limit [rad]
    speed: float           # constant longitudinal speed, forward [m/s]

    def __post_init__(self):
        for name in ("wheelbase", "sensor_offset", "max_steer", "speed"):
            check_range(name, getattr(self, name))


class HatPathState(NamedTuple):
    """Path-frame state with heading error measured from its desired value."""

    s: float          # [m]
    e: float          # [m]
    theta_hat: float  # theta - theta_0 [rad]


def check_trackable(kappa: float, sensor_offset: float) -> float:
    """Return d*kappa after checking that the guidance point can hold curvature kappa.

    A guidance point d ahead of the rear axle can run on a circle of
    curvature kappa only while |d*kappa| < 1.

    Raises:
        DomainError: |d*kappa| >= 1.
    """
    dk = sensor_offset * kappa
    if abs(dk) >= 1.0:
        raise DomainError(
            f"path untrackable for sensor offset: |d*kappa| = {abs(dk):.6g} >= 1")
    return dk


def _check_steer(steer: float) -> None:
    if abs(steer) >= _HALF_PI:
        raise DomainError(f"steering angle {steer:.6g} rad outside (-pi/2, pi/2)")


def _singular(denom: float, s: float) -> NoReturn:
    """Raise for 1 - e*kappa = ``denom`` at ``s``: every singularity guard's one text."""
    raise SingularityError(
        f"curvature-center singularity: 1 - e*kappa = {denom:.3g} at s={s:.6g}")


def earth_derivatives(state: EarthState, steer: float,
                      params: VehicleParams) -> tuple[float, float, float]:
    """Time derivatives (x_dot, y_dot, psi_dot) of the guidance point."""
    _check_steer(steer)
    v = params.speed
    tan_g = math.tan(steer)
    ratio = params.sensor_offset / params.wheelbase
    cos_psi = math.cos(state[2])
    sin_psi = math.sin(state[2])
    return (v * (cos_psi - ratio * sin_psi * tan_g),
            v * (sin_psi + ratio * cos_psi * tan_g),
            v / params.wheelbase * tan_g)


def _arc_chord(turn: np.ndarray, v_dt: float,
               sensor_offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact displacement of the guidance point over held-steering steps.

    Over each step the rear axle covers arc length ``v_dt`` while the heading
    advances by that step's element of ``turn``; the result is in the body
    frame at the step's start. The rear axle's chord is
    v_dt * (sin(turn), 1 - cos(turn)) / turn, and A, rigidly d ahead, adds
    d * (cos(turn) - 1, sin(turn)). With 1 - cos written as 2 sin^2(turn/2),
    a straight step (turn == 0) is (v_dt, 0). ``sim.run_scenario`` calls it
    once per slice of a run's recorded yaw rates, after the loop; it uses
    only ``np.sin``, which equals ``math.sin`` elementwise.
    """
    sin_turn = np.sin(turn)
    sin_half = np.sin(0.5 * turn)
    versine = 2.0 * sin_half * sin_half
    straight = turn == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.where(straight, v_dt, v_dt * sin_turn / turn - sensor_offset * versine),
                np.where(straight, 0.0, v_dt * versine / turn + sensor_offset * sin_turn))


def path_derivatives(state: PathState, steer: float, params: VehicleParams,
                     kappa: float) -> tuple[float, float, float]:
    """Time derivatives (s_dot, e_dot, theta_dot) in the path frame.

    ``kappa`` is the path curvature at the current arc length. This is the
    model equation; ``sim.run_scenario`` writes the same expressions out in
    its held-steering step, and the tests step both and require equal bits.

    Raises:
        SingularityError: the state reached or crossed the curvature-center
            circle (1 - e*kappa <= 0), where the path frame degenerates.
    """
    _check_steer(steer)
    s, e, theta = state
    v = params.speed
    tan_g = math.tan(steer)
    ratio_tan = params.sensor_offset / params.wheelbase * tan_g
    denom = 1.0 - e * kappa
    if denom < SINGULAR_DENOM:
        _singular(denom, s)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    s_dot = v * (cos_t - ratio_tan * sin_t) / denom
    return (s_dot, v * (sin_t + ratio_tan * cos_t),
            v / params.wheelbase * tan_g - kappa * s_dot)


def hat_path_derivatives(state: HatPathState, steer: float, params: VehicleParams,
                         kappa: float, kappa_rate: float) -> tuple[float, float, float]:
    """Path-frame derivatives with the heading error shifted by its desired value.

    ``kappa_rate`` is the time derivative of the curvature seen by the
    vehicle, i.e. (dkappa/ds) * s_dot from the same instant.

    Raises:
        DomainError: |sensor_offset * kappa| >= 1, the path cannot be
            tracked by a sensor this far from the rear axle.
    """
    d = params.sensor_offset
    dk = check_trackable(kappa, d)
    lam = math.sqrt(1.0 - dk * dk)
    theta_0 = -math.asin(dk)
    s_dot, e_dot, theta_dot = path_derivatives(
        PathState(state.s, state.e, state.theta_hat + theta_0), steer, params, kappa)
    return s_dot, e_dot, theta_dot + d * kappa_rate / lam


def rear_axle_lateral_accel(speed: float, steer: float, wheelbase: float) -> float:
    """Lateral acceleration of the rear axle center: V^2 * tan(steer) / l."""
    _check_steer(steer)
    return speed * speed * math.tan(steer) / wheelbase
