"""Deterministic fixed-step closed-loop simulation and tracking metrics.

The path-frame dynamics are always integrated; the earth-frame dynamics can
be integrated in parallel under the identical steering sequence for
cross-validation. Steering is recomputed at a fixed control period and held
constant in between (zero-order hold), so at a fixed control period refining
the integration step converges to the exact sampled-data trajectory. Left
unset, the control period follows the step, and refining the step then
refines the sampling too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ._writer import write_rows
from .bicycle import VehicleParams, earth_derivatives, path_derivatives
from .errors import ConfigError, DomainError, OffsetSteerError, SingularityError
from .paths import PathSpec, PathState, build_path, wrap_angle_error
from .steering import ControlConfig, control, desired_yaw_error, max_allowable_steer

# Abort threshold for the path-frame singularity 1 - e*kappa -> 0.
SINGULARITY_TOL = 1e-6

# Default |e| threshold for the settling-time metric [m].
SETTLE_THRESHOLD = 0.01

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
        return dict(zip(TRAJECTORY_COLUMNS,
                        (self.t, self.s_d, self.e_d, self.theta_d, self.theta_0,
                         self.theta_hat, self.gamma_des, self.gamma_ff,
                         self.gamma_fb, self.x_a, self.y_a, self.psi,
                         self.kappa_d)))

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
    if not all(math.isfinite(v) for v in out):
        raise OffsetSteerError(f"integration diverged: state {out}")
    return out


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

    cols = {name: np.empty(n + 1) for name in
            ("t", "s", "e", "theta", "theta0", "gdes", "gff", "gfb", "kappa")}
    sat = np.empty(n + 1, dtype=bool)
    map_x = np.empty(n + 1)
    map_y = np.empty(n + 1)
    map_psi = np.empty(n + 1)
    if want_earth:
        earth_x = np.empty(n + 1)
        earth_y = np.empty(n + 1)
        earth_psi = np.empty(n + 1)

    def path_field(state, steer):
        return path_derivatives(state, steer, params, path.curvature(state[0]))

    def earth_field(state, steer):
        return earth_derivatives(state, steer, params)

    ps = PathState(cfg.initial.s, cfg.initial.e, wrap_angle_error(cfg.initial.theta, 0.0))
    if want_earth:
        estate = tuple(path.to_earth(ps))

    try:
        for i in range(n + 1):
            kappa = path.curvature(ps.s)
            theta_0 = desired_yaw_error(kappa, params.sensor_offset)
            if abs(1.0 - ps.e * kappa) < SINGULARITY_TOL:
                raise SingularityError(
                    f"curvature-center singularity (1 - e*kappa = {1.0 - ps.e * kappa:.3g})")
            if i % hold == 0:
                decision = control(ps, kappa, ctl, params)

            cols["t"][i] = i * dt
            cols["s"][i], cols["e"][i], cols["theta"][i] = ps
            cols["theta0"][i] = theta_0
            cols["gdes"][i] = decision.gamma_des
            cols["gff"][i] = decision.gamma_ff
            cols["gfb"][i] = decision.gamma_fb
            cols["kappa"][i] = kappa
            sat[i] = abs(decision.fb_input) > g_sat
            map_x[i], map_y[i], map_psi[i] = path.to_earth(ps)
            if want_earth:
                earth_x[i], earth_y[i], earth_psi[i] = estate

            if i == n:
                break
            s, e, theta = step_rk4(path_field, ps, decision.gamma_des, dt)
            ps = PathState(s, e, wrap_angle_error(theta, 0.0))
            if want_earth:
                estate = step_rk4(earth_field, estate, decision.gamma_des, dt)
    except (DomainError, SingularityError) as exc:
        raise type(exc)(f"{exc} (at t={i * dt:.6g} s, s={ps.s:.6g} m)") from exc

    if cfg.frame == "earth":
        x_a, y_a, psi = earth_x, earth_y, earth_psi
    else:
        x_a, y_a, psi = map_x, map_y, map_psi
    # Only "both" has a second integration to cross-check the pose columns.
    cross_check = cfg.frame == "both"

    traj = Trajectory(
        t=cols["t"], s_d=cols["s"], e_d=cols["e"], theta_d=cols["theta"],
        theta_0=cols["theta0"], theta_hat=cols["theta"] - cols["theta0"],
        gamma_des=cols["gdes"], gamma_ff=cols["gff"], gamma_fb=cols["gfb"],
        x_a=x_a, y_a=y_a, psi=psi, kappa_d=cols["kappa"],
        g_sat=g_sat, fb_saturated=sat,
        earth_x=earth_x if cross_check else None,
        earth_y=earth_y if cross_check else None,
        earth_psi=earth_psi if cross_check else None,
    )
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
