"""Deterministic fixed-step closed-loop simulation and tracking metrics.

The path-frame dynamics are always integrated; the earth-frame run can be
built from the identical steering sequence for cross-validation. Steering
is recomputed at a fixed control period and held constant in between
(zero-order hold), so at a fixed control period refining the integration
step converges to the exact sampled-data trajectory. Left unset, the
control period follows the step, and refining the step then refines the
sampling too.

While the steering is held, ``run_scenario`` takes each path-frame step as
one straight-line RK4 kernel, its four stages written out in the loop:
tan(gamma) and the rates built on it are computed once per control update,
and the first stage reuses the step's curvature and its 1 - e*kappa from the
singularity check. ``bicycle.path_derivatives`` is the model equation and
the oracle: the kernel evaluates its expressions in the same order, and the
tests step it with ``step_rk4`` and require bit-identical path-frame
trajectories from both. The steering law is bound once per run
(``steering._law``: variant, wrap decision and feedback bound resolved
before the loop), each update returns a plain tuple that includes the
``full`` law's desired heading error, and the loop carries ``s, e, theta``
as floats; ``control`` is the same law for one state.

A run is recorded in one row-major array with a row per step; the loop
writes what the dynamics produce with one ``struct`` pack per row into the
array's buffer, and the ``Trajectory`` fields are the array's columns, not
copies. Columns 0-12 mean the same in every frame, and the pose ``x_A, y_A,
psi`` is always columns 10-12; only frame ``both`` appends columns 13-15
for the earth run it keeps alongside (``earth_x``, ``earth_y``,
``earth_psi``) for the cross-check. During the loop column 10 holds the yaw
rate held over the previous step (NaN on row 0), and the time column is
filled after the loop. The dynamics never read the earth frame, so the loop
does only the path-frame step and the control law. The earth run and the
pose are built after it, ``POSE_SLICE_ROWS`` rows per array pass so that a
long run's temporaries stay small:

- For ``earth`` and ``both`` the earth run is exact, not integrated: with
  the steering held, the rear axle circles a fixed centre and A, rigidly
  attached, circles it too. From its mapped initial pose, each step's
  body-frame chord (``bicycle._arc_chord`` over a slice of turns
  yaw_rate * dt) is rotated by the heading, and the heading and the
  positions are running sums (``np.cumsum``, which adds in sequence). Each
  element equals the step-by-step scalar sums bit for bit. It goes to the
  pose columns for ``earth`` and to columns 13-15 for ``both``.
- Then for ``path`` and ``both`` the pose columns are mapped by array
  calls of ``Path.to_earth`` on the recorded ``s, e, theta`` columns; each
  element equals the row-by-row scalar mapping bit for bit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from ._writer import write_columns, write_json, write_rows
# The loop calls the private step functions; earth_derivatives and
# path_derivatives stay importable from here, where perfbench's tracer wraps them.
from .bicycle import (SINGULAR_DENOM, _HALF_PI, VehicleParams,  # noqa: F401
                      _arc_chord, _check_steer, _singular, earth_derivatives,
                      path_derivatives)
from .errors import ConfigError, DomainError, OffsetSteerError, SingularityError
from .paths import TWO_PI, PathSpec, PathState, build_path, wrap_angle_error
# The loop calls the run's bound law; control stays importable from here,
# where perfbench's tracer wraps it.
from .steering import (ControlConfig, _law, control,  # noqa: F401
                       desired_yaw_error, max_allowable_steer)

# A step starts only while 1 - e*kappa >= SINGULARITY_TOL (path-frame singularity).
SINGULARITY_TOL = 1e-6

# Default |e| threshold for the settling-time metric [m].
SETTLE_THRESHOLD = 0.01

# Rows mapped to the pose columns per array call after the loop: long runs
# keep the mapping's temporaries this size instead of the record's.
POSE_SLICE_ROWS = 4096

# The 10 values the loop writes to each row of the record (columns 1-10).
_ROW = struct.Struct("10d")

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
        t_end = self.resolved_t_end()
        if not self.dt < t_end < math.inf:
            note = "" if self.t_end is not None else " (the road's default horizon)"
            raise ConfigError(
                f"t_end must be finite and exceed dt ({self.dt}), got {t_end}{note}")
        try:
            self.path_spec.check_arc_length(self.initial.s)
        except DomainError as exc:
            raise ConfigError(f"initial {exc}") from None

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
        gap = self.earth_psi - self.psi
        psi = np.abs(gap - TWO_PI * np.round(gap / TWO_PI))
        return float(pos.max()), float(psi.max())


@dataclass(frozen=True)
class TrackingMetrics:
    settling_time: float        # first time |e| stays below the threshold [s]
    steady_e: float             # mean deviation over the last fifth [m]
    steady_theta_hat: float     # mean shifted heading error over the last fifth [rad]
    sway_amplitude: float       # half peak-to-peak of e in the steady window [m]
    overshoot: float            # excursion past the path w.r.t. the initial side [m]
    saturation_fraction: float  # fraction of rows whose held feedback command is beyond the bound

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
        SingularityError: the state neared or crossed the curvature-center circle.
        OffsetSteerError: a stage rate overflowed ("integration diverged").
        Each ends with the failing step's "(at t=..., s=...)".
    """
    path = build_path(cfg.path_spec)
    params = cfg.vehicle
    ctl = cfg.control
    g_sat = max_allowable_steer(params, ctl.max_lat_accel)
    dt = cfg.dt
    t_end = cfg.resolved_t_end()
    hold = 1 if cfg.control_dt is None else round(cfg.control_dt / dt)
    n = round(t_end / dt)

    # The run's record, one row per step of the trajectory. The loop packs
    # columns 1-10: the TRAJECTORY_COLUMNS without t, theta_hat and the pose
    # (columns 1-8), the raw feedback command (9) and the yaw rate held over
    # the previous step (10; NaN on row 0). After the loop, column 0 gets t,
    # the earth run of frames "earth" and "both" goes to the record's last
    # three columns, and frames "path" and "both" map columns 1-3 (s, e,
    # theta) to the pose columns 10-12. Only "both" has columns 13-15.
    width = 16 if cfg.frame == "both" else 13
    rec = np.empty((n + 1, width))
    buf = memoryview(rec).cast("B")
    pack = _ROW.pack_into
    row_bytes = 8 * width

    v = params.speed
    offset = params.sensor_offset
    ratio = offset / params.wheelbase
    half = 0.5 * dt
    curvature = path.curvature
    law = _law(ctl, params)
    singular_denom = SINGULAR_DENOM
    isfinite = math.isfinite
    cos, sin, pi = math.cos, math.sin, math.pi
    s, e, theta = cfg.initial.s, cfg.initial.e, wrap_angle_error(cfg.initial.theta, 0.0)
    yaw_rate = math.nan

    # Each step is the straight-line held-steering RK4 of the module
    # docstring. The state s, e, theta changes only at the end of a step, so
    # an error raised inside it reports the step's start.
    try:
        for i in range(n + 1):
            kappa = curvature(s)
            update = i % hold == 0
            if update:
                g_des, g_ff, g_fb, fb, theta_0 = law(e, theta, kappa)
            if not update or theta_0 is None:
                theta_0 = desired_yaw_error(kappa, offset)
            denom = 1.0 - e * kappa
            if denom < SINGULARITY_TOL:
                _singular(denom, s)

            pack(buf, row_bytes * i + 8, s, e, theta, theta_0, g_des, g_ff, g_fb, kappa, fb,
                 yaw_rate)

            if i == n:
                break
            if update:
                if abs(g_des) >= _HALF_PI:
                    _check_steer(g_des)
                tan_g = math.tan(g_des)
                ratio_tan = ratio * tan_g
                yaw_rate = v / params.wheelbase * tan_g

            # Stage 1, at the step's start, where the check above already
            # keeps denom >= SINGULARITY_TOL, far above SINGULAR_DENOM.
            cos_t = cos(theta)
            sin_t = sin(theta)
            a_s = v * (cos_t - ratio_tan * sin_t) / denom
            a_e = v * (sin_t + ratio_tan * cos_t)
            a_t = yaw_rate - kappa * a_s
            # Stage 2, at the half step along stage 1's rates.
            s_k = s + half * a_s
            e_k = e + half * a_e
            theta_k = theta + half * a_t
            kappa_k = curvature(s_k)
            denom = 1.0 - e_k * kappa_k
            if denom < singular_denom:
                _singular(denom, s_k)
            cos_t = cos(theta_k)
            sin_t = sin(theta_k)
            b_s = v * (cos_t - ratio_tan * sin_t) / denom
            b_e = v * (sin_t + ratio_tan * cos_t)
            b_t = yaw_rate - kappa_k * b_s
            # Stage 3, at the half step along stage 2's rates.
            s_k = s + half * b_s
            e_k = e + half * b_e
            theta_k = theta + half * b_t
            kappa_k = curvature(s_k)
            denom = 1.0 - e_k * kappa_k
            if denom < singular_denom:
                _singular(denom, s_k)
            cos_t = cos(theta_k)
            sin_t = sin(theta_k)
            c_s = v * (cos_t - ratio_tan * sin_t) / denom
            c_e = v * (sin_t + ratio_tan * cos_t)
            c_t = yaw_rate - kappa_k * c_s
            # Stage 4, at the full step along stage 3's rates.
            s_k = s + dt * c_s
            e_k = e + dt * c_e
            theta_k = theta + dt * c_t
            kappa_k = curvature(s_k)
            denom = 1.0 - e_k * kappa_k
            if denom < singular_denom:
                _singular(denom, s_k)
            cos_t = cos(theta_k)
            sin_t = sin(theta_k)
            d_s = v * (cos_t - ratio_tan * sin_t) / denom
            d_e = v * (sin_t + ratio_tan * cos_t)
            d_t = yaw_rate - kappa_k * d_s
            s, e, theta = (s + dt * (a_s + 2.0 * b_s + 2.0 * c_s + d_s) / 6.0,
                           e + dt * (a_e + 2.0 * b_e + 2.0 * c_e + d_e) / 6.0,
                           theta + dt * (a_t + 2.0 * b_t + 2.0 * c_t + d_t) / 6.0)
            # The sum is not finite when one of the three is not (a sum that
            # only overflowed passes _check_finite); inside [-pi, pi) the
            # wrap returns theta itself.
            if not isfinite(s + e + theta):
                _check_finite(s, e, theta)
            if not -pi <= theta < pi:
                theta = wrap_angle_error(theta, 0.0)
    except (DomainError, SingularityError) as exc:
        raise type(exc)(f"{exc} (at t={i * dt:.6g} s, s={s:.6g} m)") from exc
    except ValueError as exc:
        # math.cos and math.sin raise it for an infinite angle only: a stage rate overflowed.
        raise OffsetSteerError(f"integration diverged: a stage rate overflowed ({exc}) "
                               f"(at t={i * dt:.6g} s, s={s:.6g} m)") from exc
    finally:
        buf.release()

    cols = rec.T
    np.multiply(np.arange(n + 1), dt, out=cols[0])
    if cfg.frame != "path":
        _earth_pass(cols, cols[-3:], path, dt, v * dt, offset)
    if cfg.frame != "earth":
        for lo in range(0, n + 1, POSE_SLICE_ROWS):
            rows = slice(lo, lo + POSE_SLICE_ROWS)
            cols[10:13, rows] = path.to_earth(PathState(*cols[1:4, rows]))
    # The earth fields stay None unless the record has columns 13-15.
    traj = Trajectory(*cols[:5], cols[3] - cols[4], *cols[5:8], *cols[10:13], cols[8], g_sat,
                      np.abs(cols[9]) > g_sat, *cols[13:])
    return traj, _metrics(traj, cfg)


def _earth_pass(cols: np.ndarray, out: np.ndarray, path, dt: float, v_dt: float,
                offset: float) -> None:
    """Write the earth run's pose into ``out``, three columns of the record ``cols``.

    Row i + 1 of the yaw-rate column 10 holds the yaw rate held over step i.
    From the mapped initial pose, each step rotates its body-frame chord by
    the heading and advances the heading by yaw_rate * dt,
    ``POSE_SLICE_ROWS`` steps per array pass. ``out`` may be columns 10-12:
    a pass overwrites only rows whose yaw rates it has read. cumsum adds in
    sequence, so each slice resumes from the previous one's last row and
    every element equals the step-by-step scalar sums bit for bit. The chord
    is bounded by V*dt + 2d, so the sums stay finite.
    """
    x, y, psi = out
    x[0], y[0], psi[0] = path.to_earth(PathState(*cols[1:4, 0].tolist()))
    for lo in range(1, cols.shape[1], POSE_SLICE_ROWS):
        turn = cols[10, lo:lo + POSE_SLICE_ROWS] * dt
        chord_x, chord_y = _arc_chord(turn, v_dt, offset)
        # Each sum starts from the row before the slice; the heading's gives
        # each step's heading at its start (heading[:-1]) and end.
        rows = slice(lo - 1, lo + POSE_SLICE_ROWS)
        heading = np.concatenate((psi[lo - 1:lo], turn)).cumsum()
        cos_psi = np.cos(heading[:-1])
        sin_psi = np.sin(heading[:-1])
        x[rows] = np.concatenate((x[lo - 1:lo], cos_psi * chord_x - sin_psi * chord_y)).cumsum()
        y[rows] = np.concatenate((y[lo - 1:lo], sin_psi * chord_x + cos_psi * chord_y)).cumsum()
        psi[rows] = heading


def compare_controllers(cfg: ScenarioConfig, variants) -> ComparisonReport:
    """Run the identical scenario once per controller variant.

    Per-variant failures are recorded in the report instead of aborting the
    remaining runs. Trajectory deltas are measured against the first variant.
    Each variant may be compared once.
    """
    variants = tuple(variants)
    if len(set(variants)) != len(variants):
        raise ConfigError(f"each variant may be compared once, got {list(variants)}")
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
    write_columns(path, TRAJECTORY_COLUMNS, traj.signals().values())


def write_metrics(metrics: TrackingMetrics, txt_path, json_path) -> None:
    """Emit metrics as flat key=value text plus JSON."""
    data = metrics.as_dict()
    write_rows(txt_path, None, data.items(), sep="=")
    write_json(json_path, {k: (v if math.isfinite(v) else None) for k, v in data.items()})
