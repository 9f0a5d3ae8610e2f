"""Batch command-line front-end.

Subcommands parse a YAML config, run one workflow (closed-loop simulation,
controller comparison, gain-plane stability map, or frequency response),
and write deterministic CSV artifacts plus a JSON run manifest. A bundled
preset collection regenerates the data behind every standard study in one
call (``figs-repro``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path as FsPath

import numpy as np
import yaml

from ._writer import write_rows
from .analysis import (OMEGA_MAX, OMEGA_MIN, OMEGA_POINTS, frequency_response, kappa_bar,
                       stability_region_scan, write_freq_csv, write_stability_csv)
from .bicycle import VehicleParams
from .errors import (ConfigError, DomainError, OffsetSteerError,
                     ProjectionError, SingularityError)
from .paths import PathSpec, PathState, load_curvature_table
from .sim import (ScenarioConfig, compare_controllers, run_scenario,
                  write_metrics, write_trajectory_csv)
from .steering import (ControlConfig, VARIANTS, desired_heading, desired_yaw_error,
                       feedforward_error, max_allowable_steer, wrapper)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

_REQUIRED = object()


def _number(value, what: str) -> float:
    """The finite number a config value must be; ``what`` names it in the error."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond double range
        finite = False
    if not finite:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved inputs for the stability-map and freq-response workflows."""

    vehicle: VehicleParams
    kappa0: tuple[float, ...]
    grid: tuple[tuple[float, float], tuple[float, float], int] | None = None
    gains: tuple[tuple[float, float], ...] | None = None
    omega: tuple[float, float, int] | None = None


@dataclass
class RunManifest:
    command: str
    config: dict
    input_digests: dict[str, str]
    outputs: list[str]
    wall_clock_s: float
    exit_status: int
    seedless: bool = False

    def write(self, path) -> None:
        payload = {
            "command": self.command,
            "config": self.config,
            "input_digests": self.input_digests,
            "outputs": self.outputs,
            "wall_clock_s": self.wall_clock_s,
            "exit_status": self.exit_status,
            "seedless": self.seedless,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


class _Section:
    """Mapping view that tracks consumption and rejects unknown keys."""

    def __init__(self, name: str, data):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"section '{name}' must be a mapping, got {type(data).__name__}")
        self.name = name
        self.data = dict(data)

    def take(self, key: str, default=_REQUIRED):
        if key not in self.data:
            if default is _REQUIRED:
                raise ConfigError(f"{self.name}: missing required key '{key}'")
            return default
        return self.data.pop(key)

    def take_number(self, key: str, default=_REQUIRED) -> float:
        value = self.take(key, default)
        if value is default and default is not _REQUIRED:
            return value
        return _number(value, f"{self.name}: key '{key}'")

    def take_angle(self, base: str, default=_REQUIRED) -> float:
        """Angles require an explicit unit suffix: <base>_deg or <base>_rad."""
        deg_key, rad_key = f"{base}_deg", f"{base}_rad"
        if base in self.data:
            raise ConfigError(
                f"{self.name}: key '{base}' needs a unit suffix ('{deg_key}' or '{rad_key}')")
        if deg_key in self.data and rad_key in self.data:
            raise ConfigError(f"{self.name}: give only one of '{deg_key}' and '{rad_key}'")
        if deg_key in self.data:
            return math.radians(self.take_number(deg_key))
        if rad_key in self.data:
            return self.take_number(rad_key)
        if default is _REQUIRED:
            raise ConfigError(f"{self.name}: missing required key '{deg_key}' (or '{rad_key}')")
        return default

    def subsection(self, key: str, default=_REQUIRED) -> "_Section | None":
        if key not in self.data and default is not _REQUIRED:
            return None
        return _Section(f"{self.name}.{key}", self.take(key))

    def finish(self) -> None:
        if self.data:
            raise ConfigError(f"{self.name}: unknown keys {sorted(self.data)}")


def _parse_vehicle(section: _Section) -> VehicleParams:
    wheelbase = section.take_number("wheelbase_m")
    offset = section.take_number("sensor_offset_m")
    max_steer = section.take_angle("max_steer")
    speed = section.take_number("speed_mps")
    section.finish()
    if offset < 0.0:
        logger.warning("sensor offset %.4g m is negative (behind the rear axle); "
                       "the model remains valid but no standard scenario uses it", offset)
    return VehicleParams(wheelbase=wheelbase, sensor_offset=offset,
                         max_steer=max_steer, speed=speed)


def _parse_control(section: _Section) -> ControlConfig:
    k1 = section.take_number("k1")
    k2 = section.take_number("k2_per_m")
    a_max = section.take_number("max_lat_accel_mps2")
    variant = section.take("variant", ControlConfig.variant)
    section.finish()
    return ControlConfig(k1=k1, k2=k2, max_lat_accel=a_max, variant=variant)


def _parse_path(section: _Section, base_dir: FsPath) -> PathSpec:
    kind = section.take("kind")
    anchor = section.subsection("anchor", None)
    x0 = y0 = psi0 = 0.0
    if anchor is not None:
        x0 = anchor.take_number("x_m", 0.0)
        y0 = anchor.take_number("y_m", 0.0)
        psi0 = anchor.take_angle("heading", 0.0)
        anchor.finish()
    if kind == "straight":
        spec = PathSpec.straight(x0, y0, psi0)
    elif kind == "circular":
        spec = PathSpec.circular(section.take_number("radius_m"), x0, y0, psi0)
    elif kind == "cosine":
        spec = PathSpec.cosine(section.take_number("kappa_max_per_m"),
                               section.take_number("period_m"),
                               int(section.take_number("periods")), x0, y0, psi0)
    elif kind == "sampled":
        if "table" in section.data:
            table_sec = section.subsection("table")
            s_vals = table_sec.take("s_m")
            k_vals = table_sec.take("kappa_per_m")
            table_sec.finish()
            if not isinstance(s_vals, list) or not isinstance(k_vals, list):
                raise ConfigError("path.table: s_m and kappa_per_m must be lists")
            spec = PathSpec.sampled([_number(v, "path.table.s_m") for v in s_vals],
                                    [_number(v, "path.table.kappa_per_m") for v in k_vals],
                                    x0, y0, psi0)
        else:
            csv_name = section.take("csv")
            csv_path = FsPath(csv_name)
            if not csv_path.is_absolute():
                csv_path = base_dir / csv_path
            table = load_curvature_table(csv_path)
            spec = PathSpec.sampled(table.table_s, table.table_kappa, x0, y0, psi0)
    else:
        raise ConfigError(f"path: unknown kind {kind!r}; "
                          "expected straight|circular|cosine|sampled")
    section.finish()
    spec.validate()
    return spec


def _parse_kappa0(raw, vehicle: VehicleParams) -> tuple[float, ...]:
    """'auto' expands to {0, kappa_bar/2, kappa_bar} for the given vehicle."""
    if raw == "auto" or raw is None:
        kb = kappa_bar(vehicle)
        return (0.0, 0.5 * kb, kb)
    if not isinstance(raw, list):
        raise ConfigError("kappa0_per_m must be 'auto' or a list of numbers")
    return tuple(_number(v, "kappa0_per_m") for v in raw)


def _parse(text: str, base_dir: FsPath) -> tuple[ScenarioConfig | AnalysisConfig, dict]:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from None
    if doc is None:
        raise ConfigError(
            "empty config; a scenario needs sections vehicle(wheelbase_m, sensor_offset_m, "
            "max_steer_deg|_rad, speed_mps), control(k1, k2_per_m, max_lat_accel_mps2), "
            "path(kind, ...), initial(s_m, e_m, theta_deg|_rad); an analysis config needs "
            "vehicle plus grid(...) or gains[...]")
    top = _Section("config", doc)

    if "path" in top.data or "initial" in top.data:
        vehicle = _parse_vehicle(top.subsection("vehicle"))
        control = _parse_control(top.subsection("control"))
        path_spec = _parse_path(top.subsection("path"), base_dir)
        init = top.subsection("initial")
        initial = PathState(init.take_number("s_m"), init.take_number("e_m"),
                            init.take_angle("theta"))
        init.finish()
        sim = _Section("config.sim", top.take("sim", None))
        dt = sim.take_number("dt_s", ScenarioConfig.dt)
        t_end = sim.take_number("t_end_s", None)
        frame = sim.take("frame", ScenarioConfig.frame)
        control_dt = sim.take_number("control_dt_s", None)
        settle = sim.take_number("settle_threshold_m", ScenarioConfig.settle_threshold)
        sim.finish()
        variants = top.take("variants", None)
        if variants is not None:
            if (not isinstance(variants, list) or not variants
                    or any(v not in VARIANTS for v in variants)):
                raise ConfigError(f"variants must be a non-empty list drawn from {VARIANTS}")
            variants = tuple(variants)
        top.finish()
        cfg = ScenarioConfig(path_spec=path_spec, vehicle=vehicle, control=control,
                             initial=initial, dt=dt, t_end=t_end, frame=frame,
                             control_dt=control_dt, settle_threshold=settle)
        return cfg, {"variants": variants}

    if "grid" in top.data or "gains" in top.data:
        vehicle = _parse_vehicle(top.subsection("vehicle"))
        kappa0 = _parse_kappa0(top.take("kappa0_per_m", None), vehicle)
        grid = gains = omega = None
        grid_sec = top.subsection("grid", None)
        if grid_sec is not None:
            grid = ((grid_sec.take_number("k1_min"), grid_sec.take_number("k1_max")),
                    (grid_sec.take_number("k2_min"), grid_sec.take_number("k2_max")),
                    int(grid_sec.take_number("resolution", 200)))
            grid_sec.finish()
        raw_gains = top.take("gains", None)
        if raw_gains is not None:
            if not isinstance(raw_gains, list) or not raw_gains:
                raise ConfigError("gains must be a non-empty list of {k1, k2_per_m} maps")
            parsed = []
            for idx, item in enumerate(raw_gains):
                sec = _Section(f"gains[{idx}]", item)
                parsed.append((sec.take_number("k1"), sec.take_number("k2_per_m")))
                sec.finish()
            gains = tuple(parsed)
        omega_sec = top.subsection("omega", None)
        if omega_sec is not None:
            omega = (omega_sec.take_number("min_rad_s", OMEGA_MIN),
                     omega_sec.take_number("max_rad_s", OMEGA_MAX),
                     int(omega_sec.take_number("points", OMEGA_POINTS)))
            omega_sec.finish()
        top.finish()
        return AnalysisConfig(vehicle=vehicle, kappa0=kappa0, grid=grid,
                              gains=gains, omega=omega), {}

    raise ConfigError("config must contain either a scenario ('path' and 'initial' "
                      "sections) or an analysis ('grid' or 'gains')")


def parse_config(text: str, base_dir=".") -> ScenarioConfig | AnalysisConfig:
    """Parse a YAML config into a fully-resolved scenario or analysis config."""
    cfg, _ = _parse(text, FsPath(base_dir))
    return cfg


# -- config echoes (re-parseable resolved views) --------------------------

def _echo_vehicle(p: VehicleParams) -> dict:
    return {"wheelbase_m": p.wheelbase, "sensor_offset_m": p.sensor_offset,
            "max_steer_rad": p.max_steer, "speed_mps": p.speed}


def _echo_scenario(cfg: ScenarioConfig, variants=None) -> dict:
    spec = cfg.path_spec
    path: dict = {"kind": spec.kind}
    if spec.kind == "circular":
        path["radius_m"] = spec.radius
    elif spec.kind == "cosine":
        path.update(kappa_max_per_m=spec.kappa_max, period_m=spec.period,
                    periods=spec.periods)
    elif spec.kind == "sampled":
        # Echo the resolved table inline so the echo re-parses anywhere.
        path["table"] = {"s_m": list(spec.table_s),
                         "kappa_per_m": list(spec.table_kappa)}
    if spec.x0 or spec.y0 or spec.psi0:
        path["anchor"] = {"x_m": spec.x0, "y_m": spec.y0, "heading_rad": spec.psi0}
    echo = {
        "vehicle": _echo_vehicle(cfg.vehicle),
        "control": {"k1": cfg.control.k1, "k2_per_m": cfg.control.k2,
                    "max_lat_accel_mps2": cfg.control.max_lat_accel,
                    "variant": cfg.control.variant},
        "path": path,
        "initial": {"s_m": cfg.initial.s, "e_m": cfg.initial.e,
                    "theta_rad": cfg.initial.theta},
        "sim": {"dt_s": cfg.dt, "frame": cfg.frame,
                "settle_threshold_m": cfg.settle_threshold},
    }
    if cfg.t_end is not None:
        echo["sim"]["t_end_s"] = cfg.t_end
    if cfg.control_dt is not None:
        echo["sim"]["control_dt_s"] = cfg.control_dt
    if variants:
        echo["variants"] = list(variants)
    return echo


def _echo_analysis(cfg: AnalysisConfig) -> dict:
    echo: dict = {"vehicle": _echo_vehicle(cfg.vehicle),
                  "kappa0_per_m": list(cfg.kappa0)}
    if cfg.grid is not None:
        (k1_lo, k1_hi), (k2_lo, k2_hi), res = cfg.grid
        echo["grid"] = {"k1_min": k1_lo, "k1_max": k1_hi,
                        "k2_min": k2_lo, "k2_max": k2_hi, "resolution": res}
    if cfg.gains is not None:
        echo["gains"] = [{"k1": k1, "k2_per_m": k2} for k1, k2 in cfg.gains]
    if cfg.omega is not None:
        lo, hi, pts = cfg.omega
        echo["omega"] = {"min_rad_s": lo, "max_rad_s": hi, "points": pts}
    return echo


# -- command implementations ----------------------------------------------

def _digest(path) -> str:
    return hashlib.sha256(FsPath(path).read_bytes()).hexdigest()


def _assert_deterministic(render, out_dir: FsPath, outputs: list[str]) -> None:
    """Re-render into a scratch directory and require byte-identical files."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = FsPath(tmp)
        render(tmp_dir)
        for name in outputs:
            if _digest(out_dir / name) != _digest(tmp_dir / name):
                raise OffsetSteerError(f"determinism check failed for {name}")


def _finalize(command: str, echo: dict, digests: dict, out_dir: FsPath,
              outputs: list[str], started: float, render, seedless: bool) -> RunManifest:
    if seedless:
        _assert_deterministic(render, out_dir, outputs)
    manifest = RunManifest(command=command, config=echo, input_digests=digests,
                           outputs=sorted(outputs + ["manifest.json"]),
                           wall_clock_s=time.perf_counter() - started,
                           exit_status=EXIT_OK, seedless=seedless)
    manifest.write(out_dir / "manifest.json")
    return manifest


def _load_scenario(config_path, dt=None, variant=None) -> tuple[ScenarioConfig, tuple | None, dict]:
    config_path = FsPath(config_path)
    text = config_path.read_text()
    cfg, extras = _parse(text, config_path.parent)
    if not isinstance(cfg, ScenarioConfig):
        raise ConfigError(f"{config_path}: expected a scenario config")
    if dt is not None:
        cfg = replace(cfg, dt=dt)
    if variant is not None:
        cfg = replace(cfg, control=replace(cfg.control, variant=variant))
    return cfg, extras.get("variants"), {str(config_path): _digest(config_path)}


def cmd_simulate(config_path, out_dir, dt=None, variant=None, seedless=False) -> RunManifest:
    started = time.perf_counter()
    cfg, _, digests = _load_scenario(config_path, dt, variant)
    out_dir = FsPath(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def render(target: FsPath):
        traj, metrics = run_scenario(cfg)
        write_trajectory_csv(traj, target / "trajectory.csv")
        write_metrics(metrics, target / "metrics.txt", target / "metrics.json")
        return ["trajectory.csv", "metrics.txt", "metrics.json"]

    outputs = render(out_dir)
    return _finalize("simulate", _echo_scenario(cfg), digests, out_dir, outputs,
                     started, render, seedless)


def cmd_compare(config_path, out_dir, dt=None, variants=None, seedless=False) -> RunManifest:
    started = time.perf_counter()
    cfg, cfg_variants, digests = _load_scenario(config_path, dt)
    variants = tuple(variants) if variants else (cfg_variants or ("naive", "full"))
    out_dir = FsPath(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def render(target: FsPath):
        report = compare_controllers(cfg, variants)
        names = []
        for variant, (traj, metrics) in report.results.items():
            sub = target / variant
            sub.mkdir(parents=True, exist_ok=True)
            write_trajectory_csv(traj, sub / "trajectory.csv")
            write_metrics(metrics, sub / "metrics.txt", sub / "metrics.json")
            names += [f"{variant}/trajectory.csv", f"{variant}/metrics.txt",
                      f"{variant}/metrics.json"]
        write_rows(target / "deltas.csv", ("variant", "signal", "max_abs_delta"),
                   ((variant, signal, value)
                    for variant, sig_deltas in report.deltas.items()
                    for signal, value in sig_deltas.items()), "ssg")
        names.append("deltas.csv")
        if report.failures:
            with open(target / "failures.json", "w") as fh:
                json.dump(report.failures, fh, indent=2, sort_keys=True)
                fh.write("\n")
            names.append("failures.json")
        return names

    outputs = render(out_dir)
    return _finalize("compare", _echo_scenario(cfg, variants), digests, out_dir,
                     outputs, started, render, seedless)


def _load_analysis(config_path) -> tuple[AnalysisConfig, dict]:
    config_path = FsPath(config_path)
    cfg, _ = _parse(config_path.read_text(), config_path.parent)
    if not isinstance(cfg, AnalysisConfig):
        raise ConfigError(f"{config_path}: expected an analysis config")
    return cfg, {str(config_path): _digest(config_path)}


def cmd_stability_map(config_path, out_dir, seedless=False) -> RunManifest:
    started = time.perf_counter()
    cfg, digests = _load_analysis(config_path)
    if cfg.grid is None:
        raise ConfigError("stability-map needs a 'grid' section")
    out_dir = FsPath(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def render(target: FsPath):
        k1_range, k2_range, resolution = cfg.grid
        result = stability_region_scan(k1_range, k2_range, cfg.kappa0,
                                       cfg.vehicle, resolution)
        write_stability_csv(result, target / "stability_map.csv")
        return ["stability_map.csv"]

    outputs = render(out_dir)
    return _finalize("stability-map", _echo_analysis(cfg), digests, out_dir,
                     outputs, started, render, seedless)


def cmd_freq_response(config_path, out_dir, seedless=False) -> RunManifest:
    started = time.perf_counter()
    cfg, digests = _load_analysis(config_path)
    if cfg.gains is None:
        raise ConfigError("freq-response needs a 'gains' list")
    out_dir = FsPath(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def render(target: FsPath):
        if cfg.omega is not None:
            lo, hi, pts = cfg.omega
            omega = np.logspace(math.log10(lo), math.log10(hi), pts)
        else:
            omega = None
        names, points = [], []
        for k1, k2 in cfg.gains:
            for kappa0 in cfg.kappa0:
                resp = frequency_response(kappa0, k1, k2, cfg.vehicle, omega)
                name = f"freq_response_{len(points):02d}.csv"
                write_freq_csv(resp, target / name)
                names.append(name)
                points.append((len(points), k1, k2, kappa0, resp.stable,
                               resp.m_max, resp.omega_m))
        write_rows(target / "points.csv", ("index", "k1", "k2_per_m", "kappa0_per_m",
                                           "stable", "m_max_m2", "omega_m_rad_s"),
                   points, "dgggdgg")
        names.append("points.csv")
        return names

    outputs = render(out_dir)
    return _finalize("freq-response", _echo_analysis(cfg), digests, out_dir,
                     outputs, started, render, seedless)


# -- preset bundle ---------------------------------------------------------

_PRESET_SIMULATE = ("optimal_gain", "positive_feedback")
_PRESET_COMPARE = ("straight_compare", "circular_compare", "varying_curvature_compare")
_PRESET_ANALYSIS = (("stability_map_d2", cmd_stability_map),
                    ("stability_map_d3", cmd_stability_map),
                    ("freq_response", cmd_freq_response))


def preset_text(name: str) -> str:
    """Contents of a bundled preset config."""
    return resources.files("offsetsteer").joinpath(f"presets/{name}.yaml").read_text()


def _write_sweep_csvs(target: FsPath, vehicle: VehicleParams) -> list[str]:
    """Static characteristic curves of the steering law (plot-ready)."""
    offsets = [replace(vehicle, sensor_offset=d) for d in (2.0, 3.0, 4.0)]
    write_rows(target / "steering_offset_curves.csv",
               ("d_m", "kappa_per_m", "feedforward_error_rad", "desired_heading_offset_rad"),
               ((p.sensor_offset, kap, feedforward_error(kap, p),
                 desired_yaw_error(kap, p.sensor_offset))
                for p in offsets for kap in np.linspace(0.0, 0.2, 401)
                if abs(p.sensor_offset * kap) < 1.0))

    write_rows(target / "desired_heading_curves.csv", ("e_m", "nonlinear_rad", "linear_rad"),
               ((e, desired_heading(e, 0.02, "full"), desired_heading(e, 0.02, "linear"))
                for e in np.linspace(-250.0, 250.0, 1001)))

    g_sat = max_allowable_steer(vehicle, 4.0)
    write_rows(target / "wrapper_curve.csv", ("x_rad", "g_rad"),
               ((x, wrapper(x, g_sat)) for x in np.linspace(-0.5, 0.5, 1001)))

    write_rows(target / "max_steer_vs_speed.csv",
               ("max_lat_accel_mps2", "speed_mps", "gamma_sat_rad"),
               ((a_max, v, max_allowable_steer(replace(vehicle, speed=float(v)), a_max))
                for a_max in (2.0, 4.0, 6.0) for v in np.linspace(1.0, 40.0, 391)))
    return ["steering_offset_curves.csv", "desired_heading_curves.csv",
            "wrapper_curve.csv", "max_steer_vs_speed.csv"]


def cmd_figs_repro(out_dir, dt=None, seedless=False) -> RunManifest:
    """Run every bundled preset and emit the full plot-ready data set."""
    started = time.perf_counter()
    out_dir = FsPath(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    digests: dict[str, str] = {}

    with tempfile.TemporaryDirectory() as tmp:
        def materialize(name: str) -> FsPath:
            target = FsPath(tmp) / f"{name}.yaml"
            target.write_text(preset_text(name))
            return target

        for name in _PRESET_COMPARE:
            manifest = cmd_compare(materialize(name), out_dir / name, dt=dt,
                                   seedless=seedless)
            digests[f"preset:{name}"] = next(iter(manifest.input_digests.values()))
            outputs += [f"{name}/{out}" for out in manifest.outputs]
        for name in _PRESET_SIMULATE:
            manifest = cmd_simulate(materialize(name), out_dir / name, dt=dt,
                                    seedless=seedless)
            digests[f"preset:{name}"] = next(iter(manifest.input_digests.values()))
            outputs += [f"{name}/{out}" for out in manifest.outputs]
        for name, command in _PRESET_ANALYSIS:
            manifest = command(materialize(name), out_dir / name, seedless=seedless)
            digests[f"preset:{name}"] = next(iter(manifest.input_digests.values()))
            outputs += [f"{name}/{out}" for out in manifest.outputs]

    table1 = VehicleParams(wheelbase=2.57, sensor_offset=2.0,
                           max_steer=math.radians(30.0), speed=20.0)
    outputs += _write_sweep_csvs(out_dir, table1)

    manifest = RunManifest(command="figs-repro", config={"presets": sorted(
        [*_PRESET_COMPARE, *_PRESET_SIMULATE, *(n for n, _ in _PRESET_ANALYSIS)])},
        input_digests=digests, outputs=sorted(outputs + ["manifest.json"]),
        wall_clock_s=time.perf_counter() - started, exit_status=EXIT_OK,
        seedless=seedless)
    manifest.write(out_dir / "manifest.json")
    return manifest


# -- entry point ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offsetsteer",
        description="Lateral path-following control lab for offset-mounted sensors")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seedless", action="store_true",
                       help="assert determinism: render twice, require identical bytes "
                            "(the pipeline uses no RNG anywhere)")

    p = sub.add_parser("simulate", help="single closed-loop run")
    add_common(p)
    p.add_argument("--dt", type=float, help="integration step override [s]")
    p.add_argument("--variant", choices=VARIANTS, help="controller variant override")

    p = sub.add_parser("compare", help="same scenario across controller variants")
    add_common(p)
    p.add_argument("--dt", type=float, help="integration step override [s]")
    p.add_argument("--variant", choices=VARIANTS, action="append",
                   help="variant to include (repeatable)")

    p = sub.add_parser("stability-map", help="gain-plane stability / peak-gain scan")
    add_common(p)

    p = sub.add_parser("freq-response", help="curvature-to-deviation frequency response")
    add_common(p)

    p = sub.add_parser("figs-repro", help="run every bundled preset study")
    add_common(p, config=False)
    p.add_argument("--dt", type=float, help="integration step override [s]")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cmd_simulate(args.config, args.out, dt=args.dt, variant=args.variant,
                         seedless=args.seedless)
        elif args.command == "compare":
            cmd_compare(args.config, args.out, dt=args.dt, variants=args.variant,
                        seedless=args.seedless)
        elif args.command == "stability-map":
            cmd_stability_map(args.config, args.out, seedless=args.seedless)
        elif args.command == "freq-response":
            cmd_freq_response(args.config, args.out, seedless=args.seedless)
        elif args.command == "figs-repro":
            cmd_figs_repro(args.out, dt=args.dt, seedless=args.seedless)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, SingularityError, ProjectionError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OffsetSteerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
