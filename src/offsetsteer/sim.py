"""Deterministic fixed-step closed-loop simulation and tracking metrics.

The path-frame dynamics are always integrated; the earth-frame dynamics can
be integrated in parallel under the identical steering sequence for
cross-validation. Steering is recomputed at a fixed control period and held
constant in between (zero-order hold), so at a fixed control period refining
the integration step converges to the exact sampled-data trajectory. Left
unset, the control period follows the step, and refining the step then
refines the sampling too.

While the steering is held, ``run_scenario`` takes each step with a fused
RK4: tan(gamma) and the rates built on it are computed once per control
update, the first stage reuses the step's curvature, and the earth step's
two midpoint stages share one heading and one evaluation. ``step_rk4`` over
``path_derivatives`` and ``earth_derivatives`` is the reference: the fused
step evaluates the same expressions in the same order, and the tests require
bit-identical trajectories from both. The steering law is bound once per
run (``steering._law``: variant, wrap decision and feedback bound resolved
before the loop), each update returns a plain tuple, and the loop carries
``s, e, theta`` as floats; ``control`` is the same law for one state.

A run is recorded in one array with a column per step; the loop stores what
the dynamics produce with one store per step, and the ``Trajectory`` fields
are the array's rows, not copies. The dynamics never read the pose columns
``x_A, y_A, psi``. For frames ``path`` and ``both`` they are mapped after the
loop by array calls of ``Path.to_earth`` on the recorded ``s, e, theta``
rows, ``POSE_SLICE_ROWS`` rows per call so that a long run's temporaries
stay small; each element equals the row-by-row scalar mapping bit for bit.
For ``earth`` they are the earth-frame integration's rows, and only its
initial pose is mapped. Only ``both`` keeps the earth integration alongside
(``earth_x``, ``earth_y``, ``earth_psi``) for the cross-check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ._writer import write_rows
# The loop calls the private rate functions; earth_derivatives and
# path_derivatives stay importable from here, where perfbench's tracer wraps them.
from .bicycle import (VehicleParams, _check_steer, _earth_rates, _path_rates,  # noqa: F401
                      earth_derivatives, path_derivatives)
from .errors import ConfigError, DomainError, OffsetSteerError, SingularityError
from .paths import PathSpec, PathState, build_path, wrap_angle_error
# The loop calls the run's bound law; control stays importable from here,
# where perfbench's tracer wraps it.
from .steering import (ControlConfig, _law, control,  # noqa: F401
                       desired_yaw_error, max_allowable_steer)

# Abort threshold for the path-frame singularity 1 - e*kappa -> 0.
SINGULARITY_TOL = 1e-6

# Default |e| threshold for the settling-time metric [m].
SETTLE_THRESHOLD = 0.01

# Rows mapped to the pose columns per array call after the loop: long runs
# keep the mapping's temporaries this size instead of the record's.
POSE_SLICE_ROWS = 4096

TRAJECTORY_COLUMNS = ("t", "s_D", "e_D", "theta_D", "theta_0", "theta_hat",
                      "gamma_des", "gamma_ff", "gamma_fb", "x_A", "y_A", "psi",
                      "kappa_D")


@dataclass(frozen=True)
class ScenarioConfig:
    path_spec: PathSpec
    vehicle: VehicleParams
    control: ControlConfig
    initial: PathState
    dt: float = 1e-3              # integration step [s]
    t_end: float | None = None    # horizon [s]; defaults per path kind
    frame: str = "both"           # path | earth | both
    control_dt: float | None = None  # steering update period [s]; defaults to dt
    settle_threshold: float = SETTLE_THRESHOLD  # [m]

    def __post_init__(self):
        # Written so that NaN fails each check.
        if not 0.0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if self.frame not in ("path", "earth", "both"):
            raise ConfigError(f"frame must be path|earth|both, got {self.frame!r}")
        if self.t_end is not None and not self.dt < self.t_end < math.inf:
            raise ConfigError(f"t_end must be finite and exceed dt, got {self.t_end}")
        if self.control_dt is not None:
            ratio = self.control_dt / self.dt
            if not (math.isfinite(ratio) and round(ratio) >= 1
                    and abs(ratio - round(ratio)) <= 1e-9):
                raise ConfigError(
                    f"control_dt ({self.control_dt}) must be a positive integer "
                    f"multiple of dt ({self.dt})")
        if not 0.0 < self.settle_threshold < math.inf:
            raise ConfigError(
                f"settle_threshold must be positive and finite, got {self.settle_threshold}")
        for name, value in zip(PathState._fields, self.initial):
            if not -math.inf < value < math.inf:
                raise ConfigError(f"initial {name} must be finite, got {value}")

    def resolved_t_end(self) -> float:
        if self.t_end is not None:
            return self.t_end
        spec = self.path_spec
        if spec.kind == "cosine":
            return spec.periods * spec.period / self.vehicle.speed * 1.2
        if spec.kind == "sampled":
            return 0.9 * (spec.table_s[-1] - self.initial.s) / self.vehicle.speed
        return 30.0


@dataclass
class Trajectory:
    """Uniformly sampled closed-loop run, one row per integration step."""

    t: np.ndarray
    s_d: np.ndarray
    e_d: np.ndarray
    theta_d: np.ndarray      # wrapped heading error [rad]
    theta_0: np.ndarray      # desired heading error of the physical setup [rad]
    theta_hat: np.ndarray    # theta_d - theta_0 [rad]
    gamma_des: np.ndarray
    gamma_ff: np.ndarray
    gamma_fb: np.ndarray
    x_a: np.ndarray
    y_a: np.ndarray
    psi: np.ndarray
    kappa_d: np.ndarray
    g_sat: float             # feedback bound of the run [rad]
    fb_saturated: np.ndarray  # per-row: pre-wrapper command exceeded the bound
    earth_x: np.ndarray | None = None  # parallel earth-frame integration
    earth_y: np.ndarray | None = None
    earth_psi: np.ndarray | None = None

    def signals(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name.lower()) for name in TRAJECTORY_COLUMNS}

    def frame_mismatch(self) -> tuple[float, float] | None:
        """Max position [m] and heading [rad] gap between the two integrations."""
        if self.earth_x is None:
            return None
        pos = np.hypot(self.earth_x - self.x_a, self.earth_y - self.y_a)
        # Headings are compared modulo 2*pi: the mapped heading re-wraps with
        # the path-frame error while the earth-frame one accumulates.
        psi = max(abs(wrap_angle_error(a, b)) for a, b in zip(self.earth_psi, self.psi))
        return float(pos.max()), psi


@dataclass(frozen=True)
class TrackingMetrics:
    settling_time: float        # first time |e| stays below the threshold [s]
    steady_e: float             # mean deviation over the last fifth [m]
    steady_theta_hat: float     # mean shifted heading error over the last fifth [rad]
    sway_amplitude: float       # half peak-to-peak of e in the steady window [m]
    overshoot: float            # excursion past the path w.r.t. the initial side [m]
    saturation_fraction: float  # fraction of steering updates beyond the bound

    def as_dict(self) -> dict[str, float]:
        return {
            "settling_time_s": self.settling_time,
            "steady_e_m": self.steady_e,
            "steady_theta_hat_rad": self.steady_theta_hat,
            "sway_amplitude_m": self.sway_amplitude,
            "overshoot_m": self.overshoot,
            "saturation_fraction": self.saturation_fraction,
        }


@dataclass
class ComparisonReport:
    variants: tuple[str, ...]
    results: dict[str, tuple[Trajectory, TrackingMetrics]]
    failures: dict[str, str]
    deltas: dict[str, dict[str, float]]  # per-signal max |difference| vs the first variant


def step_rk4(field, state, steer: float, dt: float):
    """One classical fourth-order Runge-Kutta step with steering held fixed.

    ``field(state, steer)`` returns the time derivatives of ``state`` (any
    tuple of floats). Non-finite derivatives abort the integration.
    """
    k1 = field(state, steer)
    k2 = field(tuple(x + 0.5 * dt * k for x, k in zip(state, k1)), steer)
    k3 = field(tuple(x + 0.5 * dt * k for x, k in zip(state, k2)), steer)
    k4 = field(tuple(x + dt * k for x, k in zip(state, k3)), steer)
    out = tuple(x + dt * (a + 2.0 * b + 2.0 * c + d) / 6.0
                for x, a, b, c, d in zip(state, k1, k2, k3, k4))
    _check_finite(*out)
    return out


def _check_finite(*state: float) -> None:
    for v in state:
        if not math.isfinite(v):
            raise OffsetSteerError(f"integration diverged: state {state}")


def _metrics(traj: Trajectory, cfg: ScenarioConfig) -> TrackingMetrics:
    e = traj.e_d
    n = e.size
    thr = cfg.settle_threshold

    above = np.flatnonzero(np.abs(e) >= thr)
    if above.size == 0:
        settling = 0.0
    elif above[-1] + 1 >= n:
        settling = math.inf
    else:
        settling = float(traj.t[above[-1] + 1])

    tail = slice(n - max(1, n // 5), n)
    steady_e = float(e[tail].mean())
    steady_theta_hat = float(traj.theta_hat[tail].mean())

    spec = cfg.path_spec
    window = None
    if spec.kind == "cosine":
        lo = (spec.periods - 1) * spec.period
        hi = spec.periods * spec.period
        mask = (traj.s_d >= lo) & (traj.s_d <= hi)
        if mask.sum() >= 2:
            window = e[mask]
    if window is None:
        window = e[tail]
    sway = 0.5 * float(window.max() - window.min())

    e0 = float(e[0])
    if e0 < 0.0:
        overshoot = max(0.0, float(e.max()))
    elif e0 > 0.0:
        overshoot = max(0.0, -float(e.min()))
    else:
        overshoot = 0.0

    saturation = float(traj.fb_saturated.mean())
    return TrackingMetrics(settling, steady_e, steady_theta_hat, sway, overshoot, saturation)


def run_scenario(cfg: ScenarioConfig) -> tuple[Trajectory, TrackingMetrics]:
    """Integrate the closed loop and summarize the tracking behavior.

    Raises:
        DomainError: the path curvature is untrackable for the sensor offset.
        SingularityError: the state approached the curvature-center circle.
        Either ends with the failing step's "(at t=..., s=...)".
    """
    path = build_path(cfg.path_spec)
    params = cfg.vehicle
    ctl = cfg.control
    g_sat = max_allowable_steer(params, ctl.max_lat_accel)
    dt = cfg.dt
    t_end = cfg.resolved_t_end()
    hold = 1 if cfg.control_dt is None else round(cfg.control_dt / dt)
    n = max(1, round(t_end / dt))
    want_earth = cfg.frame != "path"
    mapped = cfg.frame != "earth"

    # The run's record, one column per row of the trajectory. The loop stores
    # rows 0-12: the TRAJECTORY_COLUMNS without theta_hat and the pose
    # (rows 0-8), the raw feedback command (row 9) and the earth-frame
    # integration's pose (rows 10-12). After the loop, frames "path" and
    # "both" map rows 1-3 (s, e, theta) to the pose columns in rows 13-15.
    rec = np.empty((16 if mapped else 13, n + 1))

    v = params.speed
    offset = params.sensor_offset
    ratio = offset / params.wheelbase
    half = 0.5 * dt
    curvature = path.curvature
    law = _law(ctl, params)
    isfinite = math.isfinite
    s, e, theta = cfg.initial.s, cfg.initial.e, wrap_angle_error(cfg.initial.theta, 0.0)
    # The earth integration maps only the initial pose; with frame "path"
    # its rows hold NaN and are dropped.
    x_e, y_e, psi_e = path.to_earth(PathState(s, e, theta)) if want_earth else (math.nan,) * 3

    # Each step is the fused held-steering RK4 of the module docstring. The
    # state s, e, theta changes only at the end of a step, so an error
    # raised inside it reports the step's start.
    try:
        for i in range(n + 1):
            kappa = curvature(s)
            theta_0 = desired_yaw_error(kappa, offset)
            if abs(1.0 - e * kappa) < SINGULARITY_TOL:
                raise SingularityError(
                    f"curvature-center singularity (1 - e*kappa = {1.0 - e * kappa:.3g})")
            update = i % hold == 0
            if update:
                g_des, g_ff, g_fb, fb = law(e, theta, kappa)

            rec[:13, i] = (i * dt, s, e, theta, theta_0, g_des, g_ff, g_fb, kappa, fb,
                           x_e, y_e, psi_e)

            if i == n:
                break
            if update:
                _check_steer(g_des)
                tan_g = math.tan(g_des)
                ratio_tan = ratio * tan_g
                yaw_rate = v / params.wheelbase * tan_g

            a_s, a_e, a_t = _path_rates(s, e, theta, kappa, v, ratio_tan, yaw_rate)
            s2 = s + half * a_s
            b_s, b_e, b_t = _path_rates(s2, e + half * a_e, theta + half * a_t,
                                        curvature(s2), v, ratio_tan, yaw_rate)
            s3 = s + half * b_s
            c_s, c_e, c_t = _path_rates(s3, e + half * b_e, theta + half * b_t,
                                        curvature(s3), v, ratio_tan, yaw_rate)
            s4 = s + dt * c_s
            d_s, d_e, d_t = _path_rates(s4, e + dt * c_e, theta + dt * c_t,
                                        curvature(s4), v, ratio_tan, yaw_rate)
            s, e, theta = (s + dt * (a_s + 2.0 * b_s + 2.0 * c_s + d_s) / 6.0,
                           e + dt * (a_e + 2.0 * b_e + 2.0 * c_e + d_e) / 6.0,
                           theta + dt * (a_t + 2.0 * b_t + 2.0 * c_t + d_t) / 6.0)
            if not (isfinite(s) and isfinite(e) and isfinite(theta)):
                _check_finite(s, e, theta)
            theta = wrap_angle_error(theta, 0.0)

            if want_earth:
                # psi_dot is the constant yaw rate, so stages 2 and 3 share
                # one heading and one evaluation.
                a_x, a_y = _earth_rates(psi_e, v, ratio, tan_g)
                b_x, b_y = _earth_rates(psi_e + half * yaw_rate, v, ratio, tan_g)
                d_x, d_y = _earth_rates(psi_e + dt * yaw_rate, v, ratio, tan_g)
                x_e = x_e + dt * (a_x + 2.0 * b_x + 2.0 * b_x + d_x) / 6.0
                y_e = y_e + dt * (a_y + 2.0 * b_y + 2.0 * b_y + d_y) / 6.0
                psi_e = psi_e + dt * (yaw_rate + 2.0 * yaw_rate + 2.0 * yaw_rate + yaw_rate) / 6.0
                if not (isfinite(x_e) and isfinite(y_e) and isfinite(psi_e)):
                    _check_finite(x_e, y_e, psi_e)
    except (DomainError, SingularityError) as exc:
        raise type(exc)(f"{exc} (at t={i * dt:.6g} s, s={s:.6g} m)") from exc

    if mapped:
        for lo in range(0, n + 1, POSE_SLICE_ROWS):
            rows = slice(lo, lo + POSE_SLICE_ROWS)
            rec[13:, rows] = path.to_earth(PathState(*rec[1:4, rows]))
    pose = rec[13:] if mapped else rec[10:13]
    # Only "both" has a second integration to cross-check the pose columns.
    earth = rec[10:13] if cfg.frame == "both" else (None, None, None)
    traj = Trajectory(*rec[:5], rec[3] - rec[4], *rec[5:8], *pose, rec[8], g_sat,
                      np.abs(rec[9]) > g_sat, *earth)
    return traj, _metrics(traj, cfg)


def compare_controllers(cfg: ScenarioConfig, variants) -> ComparisonReport:
    """Run the identical scenario once per controller variant.

    Per-variant failures are recorded in the report instead of aborting the
    remaining runs. Trajectory deltas are measured against the first variant.
    """
    variants = tuple(variants)
    results: dict[str, tuple[Trajectory, TrackingMetrics]] = {}
    failures: dict[str, str] = {}
    for variant in variants:
        run_cfg = replace(cfg, control=replace(cfg.control, variant=variant))
        try:
            results[variant] = run_scenario(run_cfg)
        except OffsetSteerError as exc:
            failures[variant] = f"{type(exc).__name__}: {exc}"

    deltas: dict[str, dict[str, float]] = {}
    if variants and variants[0] in results:
        base = results[variants[0]][0].signals()
        for variant in variants[1:]:
            if variant not in results:
                continue
            other = results[variant][0].signals()
            deltas[variant] = {name: float(np.abs(other[name] - base[name]).max())
                               for name in TRAJECTORY_COLUMNS if name != "t"}
    return ComparisonReport(variants, results, failures, deltas)


# -- artifact emission ----------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Emit the run with the fixed column set, SI units and radians."""
    write_rows(path, TRAJECTORY_COLUMNS, zip(*traj.signals().values()))


def write_metrics(metrics: TrackingMetrics, txt_path, json_path) -> None:
    """Emit metrics as flat key=value text plus JSON."""
    data = metrics.as_dict()
    write_rows(txt_path, None, data.items(), "sg", sep="=")
    with open(json_path, "w") as fh:
        json.dump({k: (v if math.isfinite(v) else None) for k, v in data.items()},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
