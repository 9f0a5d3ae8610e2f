"""Closed-loop linearization, stability conditions, and frequency response.

All results concern the motion of the guidance point around its ideal
solution (zero lateral deviation, heading error at its desired value) on a
road of nominal curvature ``kappa0``, under the full offset-aware steering
law with gains (k1, k2). Curvature variations enter the reduced two-state
model through their time derivative; the amplification ratio M(omega) maps
curvature perturbations [1/m] to lateral deviation [m], hence carries m^2.

Every input lies in its config range (``errors.RANGES``): ``VehicleParams``
checks its own, and ``lambdas``, which every closed form goes through, checks
kappa0 and the gains. Inside them no closed form overflows, so the one guard
left is for lam1 = 0, where |d*kappa0| < 1 yet 1 - d^2 kappa0^2 rounds to 0.
``max_control_period`` gives the longest step the held loop at kappa0 = 0
allows, which ``sim.ScenarioConfig`` requires of dt.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._writer import write_columns
from .bicycle import VehicleParams, check_trackable
from .errors import DomainError, check_range

logger = logging.getLogger(__name__)

# Cells whose stability margin is smaller than this are flagged marginal:
# the strict inequalities of the criterion carry no information there.
BOUNDARY_TOL = 1e-9

# Default frequency grid for sampled responses [rad/s].
OMEGA_MIN = 1e-3
OMEGA_MAX = 1e3
OMEGA_POINTS = 400


@dataclass(frozen=True)
class Lambdas:
    """Recurring coefficient bundle of the linearized closed loop.

    lam3 and lam4 are arrays when :func:`lambdas` is given gain arrays.
    """

    lam1: float  # sqrt(1 - d^2 kappa0^2), in (0, 1]
    lam2: float  # 1 + (l^2 - d^2) kappa0^2, positive for trackable curvatures
    lam3: float  # lam1*lam2*k1*k2 - d*kappa0^2*lam2*k1 - l*kappa0^2
    lam4: float  # (V^2/(l^2 lam1^2)) * (2 l lam3 + lam2^2 k1^2 (lam1 + d k2)^2)


@dataclass(frozen=True)
class LinearModel:
    """Reduced linear state-space model of (deviation, heading error)."""

    a: np.ndarray        # 2x2 state matrix
    b: np.ndarray        # input column: curvature-rate channel
    c: np.ndarray        # output row: lateral deviation
    kappa0: float        # nominal curvature [1/m]
    k1: float
    k2: float
    params: VehicleParams


@dataclass(frozen=True)
class StabilityVerdict:
    necessary_sufficient: bool        # sign conditions of the characteristic polynomial
    marginal: bool                    # within BOUNDARY_TOL of a stability boundary
    sufficient_any_kappa: bool        # curvature-independent sufficient condition holds
    sufficient_condition: int | None  # which one (1: negative fb, 2: positive fb)
    eigenvalues: tuple[complex, complex]


@dataclass(frozen=True)
class FreqResponse:
    omega: np.ndarray      # sample frequencies [rad/s]
    magnitude: np.ndarray  # M(omega) [m^2]
    m_max: float           # peak magnitude [m^2]
    omega_m: float         # peak frequency [rad/s]
    stable: bool           # verdict at the underlying (kappa0, gains)


@dataclass(frozen=True)
class StabilityMap:
    """Dense gain-plane scan; arrays are indexed [kappa0, k1, k2]."""

    k1_values: np.ndarray
    k2_values: np.ndarray
    kappa0_values: np.ndarray
    stable: np.ndarray    # bool
    marginal: np.ndarray  # bool
    m_max: np.ndarray     # [m^2], inf where the response is unbounded
    omega_m: np.ndarray   # [rad/s]
    valid: np.ndarray     # False where |d*kappa0| >= 1


def _text(x) -> str:
    """A number, or the range of an array, as the config would give it."""
    return repr(float(x)) if np.ndim(x) == 0 else f"[{_text(np.min(x))}, {_text(np.max(x))}]"


def lambdas(kappa0: float, k1, k2, params: VehicleParams) -> Lambdas:
    """Coefficient bundle (lam1..lam4) at a nominal curvature and gain pair.

    ``kappa0`` is a scalar; ``k1`` and ``k2`` may be numpy arrays, which
    broadcast against each other. Each must lie in its config range, so that
    no closed form overflows; ``params`` checked its own when it was made.
    """
    for key, value in (("kappa0", kappa0), ("k1", k1), ("k2", k2)):
        check_range(key, value)
    check_trackable(kappa0, params.sensor_offset)
    l = params.wheelbase
    d = params.sensor_offset
    v = params.speed
    k0sq = kappa0 * kappa0
    lam1 = math.sqrt(1.0 - d * d * k0sq)
    if lam1 == 0.0:
        # Trackable, |d*kappa0| < 1, yet d^2 kappa0^2 rounded to 1: every
        # closed form divides by lam1.
        raise DomainError(
            f"lambda4 divides by zero at kappa0={_text(kappa0)} 1/m, k1={_text(k1)}, "
            f"k2={_text(k2)} 1/m, l={_text(l)} m, d={_text(d)} m, V={_text(v)} m/s")
    lam2 = 1.0 + (l * l - d * d) * k0sq
    lam3 = lam1 * lam2 * k1 * k2 - d * k0sq * lam2 * k1 - l * k0sq
    lam4 = (v * v / (l * l * lam1 * lam1)) * (
        2.0 * l * lam3 + lam2 * lam2 * k1 * k1 * (lam1 + d * k2) ** 2)
    return Lambdas(lam1, lam2, lam3, lam4)


def kappa_bar(params: VehicleParams) -> float:
    """Largest curvature the vehicle can hold with full steering lock."""
    t = math.tan(params.max_steer)
    return t / math.hypot(params.wheelbase, params.sensor_offset * t)


def linearize(kappa0: float, k1: float, k2: float, params: VehicleParams) -> LinearModel:
    """Reduced model of (deviation, heading-error) perturbations.

    The arc-length perturbation decouples from these two states, and the
    curvature-rate perturbation is the only input channel.
    """
    lam = lambdas(kappa0, k1, k2, params)
    l = params.wheelbase
    d = params.sensor_offset
    v = params.speed
    a = np.array([
        [v * d / l * lam.lam2 / lam.lam1 * k1 * k2,
         v / lam.lam1 * (1.0 + d / l * lam.lam2 * k1)],
        [v / l * (lam.lam2 * k1 * k2 - l / lam.lam1 * kappa0 * kappa0),
         v * lam.lam2 / l * k1],
    ])
    b = np.array([0.0, d / lam.lam1])
    c = np.array([1.0, 0.0])
    return LinearModel(a, b, c, kappa0, k1, k2, params)


def _roots(lam: Lambdas, k1: float, k2: float, params: VehicleParams) -> tuple[complex, complex]:
    """Roots of the characteristic polynomial s^2 + b1*s + b0."""
    l = params.wheelbase
    d = params.sensor_offset
    v = params.speed
    b1 = -v * k1 * lam.lam2 / (l * lam.lam1) * (lam.lam1 + d * k2)
    b0 = -v * v * lam.lam3 / (l * lam.lam1 * lam.lam1)
    disc = complex(b1 * b1 - 4.0 * b0) ** 0.5
    return (0.5 * (-b1 + disc), 0.5 * (-b1 - disc))


def eigenvalues(model: LinearModel) -> tuple[complex, complex]:
    """Closed-loop eigenvalues from the characteristic polynomial."""
    lam = lambdas(model.kappa0, model.k1, model.k2, model.params)
    return _roots(lam, model.k1, model.k2, model.params)


def prop1_k2_threshold(params: VehicleParams) -> float:
    """Negative-feedback k2 bound of the curvature-independent condition."""
    t = math.tan(params.max_steer)
    return (params.sensor_offset / params.wheelbase) * t * t / math.hypot(
        params.wheelbase, params.sensor_offset * t)


def _sign_conditions(lam: Lambdas, k1, k2, params: VehicleParams):
    """(stable, marginal): the sign conditions and their boundary flag, elementwise."""
    first = k1 * (lam.lam1 + params.sensor_offset * k2)
    stable = (first < 0.0) & (lam.lam3 < 0.0)
    marginal = (abs(first) <= BOUNDARY_TOL) | (abs(lam.lam3) <= BOUNDARY_TOL)
    return stable, marginal


def _peak(lam: Lambdas, k1, k2, params: VehicleParams):
    """(M_max [m^2], omega_m [rad/s]) elementwise; M_max is inf where unbounded."""
    l = params.wheelbase
    d = params.sensor_offset
    omega_m = params.speed / lam.lam1 * np.sqrt(abs(lam.lam3) / l)
    num = d / lam.lam1 * abs(l + d * lam.lam2 * k1)
    den_sq = (2.0 * l * (lam.lam3 + abs(lam.lam3))
              + lam.lam2 ** 2 * k1 ** 2 * (lam.lam1 + d * k2) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_max = np.where(num == 0.0, 0.0,
                         np.where(den_sq <= 0.0, np.inf, num / np.sqrt(den_sq)))
    return m_max, omega_m


def is_stable(kappa0: float, k1: float, k2: float, params: VehicleParams) -> StabilityVerdict:
    """Stability verdict of the linearized closed loop.

    ``necessary_sufficient`` evaluates the exact sign conditions
    k1*(lam1 + d*k2) < 0 and lam3 < 0; ``sufficient_any_kappa`` reports
    whether the gains guarantee stability for every curvature the vehicle
    can physically follow.

    Both curvature-independent conditions assume the sensor on or ahead of
    the rear axle: condition 1 (k1 < 0, k2 above ``prop1_k2_threshold``)
    holds only for d >= 0, condition 2 (k1 > 0, k2 < -1/d) only for d > 0.
    Behind the axle (d < 0) the threshold turns negative, and gains above it
    can be unstable on the straight road, so neither is claimed there.
    """
    lam = lambdas(kappa0, k1, k2, params)
    stable, marginal = _sign_conditions(lam, k1, k2, params)

    condition: int | None = None
    if k1 < 0.0 and params.sensor_offset >= 0.0 and k2 > prop1_k2_threshold(params):
        condition = 1
    elif k1 > 0.0 and params.sensor_offset > 0.0 and k2 < -1.0 / params.sensor_offset:
        condition = 2

    return StabilityVerdict(bool(stable), bool(marginal), condition is not None, condition,
                            _roots(lam, k1, k2, params))


def max_control_period(k1: float, k2: float, params: VehicleParams) -> float:
    """Longest stable step h_max [s] of the loop linearized at kappa0 = 0 with the
    steering held over each step; inf where the continuous loop is not stable.

    Every variant shares that loop. Held, it is M = Phi + Gamma [k1 k2, k1] with
    Phi = [[1, V h], [0, 1]] and Gamma = [V d h / l + V^2 h^2 / (2 l), V h / l],
    so Jury's conditions are polynomials in h with a = k1 (V/l)(1 + d k2) and
    b = (V^2 / (2 l)) k1 k2, both negative where the continuous loop is stable:
    1 - tr + det = -2 b h^2 > 0 always holds; 1 + tr + det = 4 + 2 a h > 0
    until h = -2/a; det = 1 + a h - b h^2 < 1 until h = a/b; and det > -1
    unless h lies between the roots of 2 + a h - b h^2.
    """
    l, d, v = params.wheelbase, params.sensor_offset, params.speed
    a = k1 * v / l * (1.0 + d * k2)
    b = v * v / (2.0 * l) * k1 * k2
    if not (a < 0.0 and b < 0.0):
        return math.inf
    h_max = min(-2.0 / a, a / b)
    disc = a * a + 8.0 * b
    if disc >= 0.0:
        h_max = min(h_max, (-a - math.sqrt(disc)) / (-2.0 * b))
    return h_max


def amplification(omega, kappa0: float, k1: float, k2: float, params: VehicleParams):
    """Curvature-to-deviation amplification ratio M(omega) [m^2].

    Accepts a scalar or array of frequencies. The closed form is evaluated
    regardless of stability; pair with :func:`is_stable` when the verdict
    matters.
    """
    lam = lambdas(kappa0, k1, k2, params)
    l = params.wheelbase
    d = params.sensor_offset
    v = params.speed
    w = np.asarray(omega, dtype=float)
    lam1sq = lam.lam1 * lam.lam1
    gain = (v * v * d * d / (lam1sq * lam1sq)) * (1.0 + d / l * lam.lam2 * k1) ** 2
    rest = v ** 4 * lam.lam3 * lam.lam3 / (l * l * lam1sq * lam1sq)
    num = gain * w * w
    den = w ** 4 + lam.lam4 * w * w + rest
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.sqrt(num / den)
    return float(m) if np.isscalar(omega) else m


def peak_amplification(kappa0: float, k1: float, k2: float,
                       params: VehicleParams) -> tuple[float, float]:
    """Peak (M_max [m^2], omega_m [rad/s]) of the amplification ratio."""
    m_max, omega_m = _peak(lambdas(kappa0, k1, k2, params), k1, k2, params)
    if math.isinf(m_max):
        logger.warning("amplification unbounded at kappa0=%.6g, k1=%.6g, k2=%.6g",
                       kappa0, k1, k2)
    return float(m_max), float(omega_m)


def default_omega_grid(omega_m: float) -> np.ndarray:
    """Log-spaced frequency grid, with the peak frequency where it lies inside."""
    grid = np.logspace(math.log10(OMEGA_MIN), math.log10(OMEGA_MAX), OMEGA_POINTS)
    if OMEGA_MIN < omega_m < OMEGA_MAX:
        grid = np.unique(np.append(grid, omega_m))
    return grid


def frequency_response(kappa0: float, k1: float, k2: float, params: VehicleParams,
                       omega: np.ndarray | None = None) -> FreqResponse:
    """Sampled amplification ratio plus its closed-form peak."""
    m_max, omega_m = peak_amplification(kappa0, k1, k2, params)
    if omega is None:
        omega = default_omega_grid(omega_m)
    omega = np.asarray(omega, dtype=float)
    mag = amplification(omega, kappa0, k1, k2, params)
    verdict = is_stable(kappa0, k1, k2, params)
    return FreqResponse(omega, mag, m_max, omega_m, verdict.necessary_sufficient)


def stability_region_scan(k1_range: tuple[float, float], k2_range: tuple[float, float],
                          kappa0_values, params: VehicleParams,
                          resolution: int) -> StabilityMap:
    """Evaluate stability and peak amplification on a dense gain grid of
    ``resolution`` x ``resolution`` gain pairs.

    Results are independent of evaluation order; curvatures the sensor
    offset cannot track are recorded as invalid cells rather than raised.
    """
    k1_vals = np.linspace(k1_range[0], k1_range[1], resolution)
    k2_vals = np.linspace(k2_range[0], k2_range[1], resolution)
    kappa0_values = np.asarray(list(kappa0_values), dtype=float)
    shape = (kappa0_values.size, resolution, resolution)

    grid_k1 = k1_vals[:, None]
    grid_k2 = k2_vals[None, :]

    stable = np.zeros(shape, dtype=bool)
    marginal = np.zeros(shape, dtype=bool)
    m_max = np.full(shape, np.nan)
    omega_m = np.full(shape, np.nan)
    valid = np.zeros(shape, dtype=bool)

    for i, kappa0 in enumerate(kappa0_values):
        try:
            check_trackable(kappa0, params.sensor_offset)
        except DomainError:
            continue  # entire slice untrackable; left invalid
        # A closed form that fails on a trackable slice raises.
        lam = lambdas(kappa0, grid_k1, grid_k2, params)
        stable[i], marginal[i] = _sign_conditions(lam, grid_k1, grid_k2, params)
        m_max[i], omega_m[i] = _peak(lam, grid_k1, grid_k2, params)
        valid[i] = True

    return StabilityMap(k1_vals, k2_vals, kappa0_values,
                        stable, marginal, m_max, omega_m, valid)


# -- CSV emission -------------------------------------------------------

def write_stability_csv(result: StabilityMap, path) -> None:
    """Emit the scan as rows of k1,k2,kappa0,stable,marginal,M_max,omega_m,
    kappa0 slowest and k2 fastest, the flags as 0 and 1."""
    write_columns(path, ("k1", "k2", "kappa0", "stable", "marginal", "M_max", "omega_m"),
                  (result.k1_values[:, None], result.k2_values, result.kappa0_values[:, None, None],
                   result.stable, result.marginal, result.m_max, result.omega_m))


def write_freq_csv(response: FreqResponse, path) -> None:
    """Emit the sampled response as rows of omega_rad_s,M (M in m^2)."""
    write_columns(path, ("omega_rad_s", "M"), (response.omega, response.magnitude))
