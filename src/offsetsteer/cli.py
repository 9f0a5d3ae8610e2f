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
import logging
import math
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from importlib import resources
from pathlib import Path as FsPath
from typing import NamedTuple

import numpy as np
import yaml

from ._writer import write_columns, write_json, write_rows
from .analysis import (OMEGA_MAX, OMEGA_MIN, OMEGA_POINTS, frequency_response, kappa_bar,
                       stability_region_scan, write_freq_csv, write_stability_csv)
from .bicycle import VehicleParams
from .errors import ConfigError, DomainError, OffsetSteerError, SingularityError
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
# libyaml's parser where PyYAML was built with it; both build the same objects
# (SafeConstructor, Resolver), so a config reads the same either way.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _ConfigLoader(_YAML_LOADER):
    """The config loader: ``_YAML_LOADER`` that rejects a key given twice in one
    mapping, which YAML would otherwise resolve silently to the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # Config keys are scalars; a merge key (<<) may repeat.
            if (not isinstance(key_node, yaml.ScalarNode)
                    or key_node.tag == "tag:yaml.org,2002:merge"):
                continue
            key = self.construct_object(key_node)
            if key in seen:
                mark = key_node.start_mark
                raise ConfigError(f"repeated key {key!r} at line {mark.line + 1}, column "
                                  f"{mark.column + 1}: a key may appear once in each mapping")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _number(value, what: str) -> float:
    """The finite number a config value must be; ``what`` names it in the error."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond double range
        finite = False
    if not finite:
        hint = ""
        try:
            if isinstance(value, str) and math.isfinite(float(value)):
                # YAML 1.1 reads 1e3 and 1.0e3 as text; only 1.0e+3 is a float.
                hint = (" (YAML read this as text: write numbers unquoted, and exponents"
                        " with a dot and a sign, as in 1.0e+2)")
        except ValueError:
            pass
        raise ConfigError(f"{what} must be a finite number, got {value!r}{hint}")
    return float(value)


def _count(value, what: str) -> int:
    """The whole number >= 1 a count (resolution, points, periods) must be."""
    number = _number(value, what)
    if number < 1.0 or number != int(number):
        raise ConfigError(f"{what} must be a whole number >= 1, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved inputs for the stability-map and freq-response workflows."""

    vehicle: VehicleParams
    kappa0: tuple[float, ...]
    # Each section's values in its schema's order (_GRID, _GAIN, _OMEGA).
    grid: tuple[float, float, float, float, int] | None = None
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


# -- config schema: one table per section drives parsing, echo and help ------

class _Key(NamedTuple):
    key: str           # YAML key; an angle's base name, given as <key>_deg or <key>_rad
    field: str | int   # dataclass field, or tuple slot, that the value fills
    kind: str = "number"  # number | count (whole number >= 1) | angle | text
    default: object = _REQUIRED


_VEHICLE = (_Key("wheelbase_m", "wheelbase"), _Key("sensor_offset_m", "sensor_offset"),
            _Key("max_steer", "max_steer", "angle"), _Key("speed_mps", "speed"))
_CONTROL = (_Key("k1", "k1"), _Key("k2_per_m", "k2"),
            _Key("max_lat_accel_mps2", "max_lat_accel"),
            _Key("variant", "variant", "text", ControlConfig.variant))
_INITIAL = (_Key("s_m", "s"), _Key("e_m", "e"), _Key("theta", "theta", "angle"))
_SIM = (_Key("dt_s", "dt", default=ScenarioConfig.dt),
        _Key("t_end_s", "t_end", default=None),
        _Key("frame", "frame", "text", ScenarioConfig.frame),
        _Key("control_dt_s", "control_dt", default=None),
        _Key("settle_threshold_m", "settle_threshold", default=ScenarioConfig.settle_threshold))
_ANCHOR = (_Key("x_m", "x0", default=0.0), _Key("y_m", "y0", default=0.0),
           _Key("heading", "psi0", "angle", 0.0))
# The sampled kind's csv / inline table is read in code (``_sampled_path``).
_PATH_KINDS = {"straight": (),
               "circular": (_Key("radius_m", "radius"),),
               "cosine": (_Key("kappa_max_per_m", "kappa_max"), _Key("period_m", "period"),
                          _Key("periods", "periods", "count")),
               "sampled": None}
_GRID = (_Key("k1_min", 0), _Key("k1_max", 1), _Key("k2_min", 2), _Key("k2_max", 3),
         _Key("resolution", 4, "count", 200))
_GAIN = (_Key("k1", 0), _Key("k2_per_m", 1))
_OMEGA = (_Key("min_rad_s", 0, default=OMEGA_MIN), _Key("max_rad_s", 1, default=OMEGA_MAX),
          _Key("points", 2, "count", OMEGA_POINTS))


def _mapping(name: str, data) -> dict:
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"section '{name}' must be a mapping, got {type(data).__name__}")
    return dict(data)


def _pop(data: dict, name: str, key: str, default=_REQUIRED):
    if key in data:
        return data.pop(key)
    if default is _REQUIRED:
        raise ConfigError(f"{name}: missing required key '{key}'")
    return default


def _finish(name: str, data: dict) -> None:
    if data:
        raise ConfigError(f"{name}: unknown keys {sorted(data)}")


def _take(data: dict, name: str, schema) -> dict:
    """Pop the schema's keys from the mapping ``data``: {field: value}."""
    values = {}
    for k in schema:
        key = k.key
        if k.kind == "angle":
            deg_key, rad_key = f"{key}_deg", f"{key}_rad"
            if key in data:
                raise ConfigError(
                    f"{name}: key '{key}' needs a unit suffix ('{deg_key}' or '{rad_key}')")
            if deg_key in data and rad_key in data:
                raise ConfigError(f"{name}: give only one of '{deg_key}' and '{rad_key}'")
            if deg_key not in data and rad_key not in data and k.default is _REQUIRED:
                raise ConfigError(f"{name}: missing required key '{deg_key}' (or '{rad_key}')")
            key = deg_key if deg_key in data else rad_key
        if key not in data:
            values[k.field] = _pop(data, name, key, k.default)  # default, or missing-key error
        elif k.kind == "text":
            values[k.field] = data.pop(key)
        elif k.kind == "count":
            values[k.field] = _count(data.pop(key), f"{name}: key '{key}'")
        else:
            number = _number(data.pop(key), f"{name}: key '{key}'")
            values[k.field] = math.radians(number) if key == f"{k.key}_deg" else number
    return values


def _read(name: str, data, schema) -> dict:
    """Read a whole section: {field: value}; unknown keys are an error."""
    data = _mapping(name, data)
    values = _take(data, name, schema)
    _finish(name, data)
    return values


def _section(top: dict, key: str, schema, default=_REQUIRED) -> dict:
    return _read(f"config.{key}", _pop(top, "config", key, default), schema)


def _echo(schema, source) -> dict:
    """Re-parseable view of one section: angles in radians, unset (None) values left out."""
    echo = {}
    for k in schema:
        value = getattr(source, k.field) if isinstance(k.field, str) else source[k.field]
        if value is not None:
            echo[f"{k.key}_rad" if k.kind == "angle" else k.key] = value
    return echo


def _needs(name: str, schema) -> str:
    """'name(key, ...)' with the section's required keys, for the empty-config help."""
    keys = (f"{k.key}_deg|_rad" if k.kind == "angle" else k.key
            for k in schema if k.default is _REQUIRED)
    return f"{name}({', '.join(keys)})"


def _sampled_path(data: dict, name: str, base_dir: FsPath):
    """Maker of a sampled path's spec from its anchor: an inline ``table`` or a ``csv`` file."""
    if "table" in data:
        table_name = f"{name}.table"
        table = _mapping(table_name, data.pop("table"))
        s_vals = _pop(table, table_name, "s_m")
        k_vals = _pop(table, table_name, "kappa_per_m")
        _finish(table_name, table)
        if not isinstance(s_vals, list) or not isinstance(k_vals, list):
            raise ConfigError("path.table: s_m and kappa_per_m must be lists")
        return partial(PathSpec.sampled, [_number(v, "path.table.s_m") for v in s_vals],
                       [_number(v, "path.table.kappa_per_m") for v in k_vals])
    csv_name = _pop(data, name, "csv")
    if not isinstance(csv_name, str):
        raise ConfigError(f"{name}: key 'csv' must be a file name, got {csv_name!r}")
    # An absolute name replaces base_dir; the table's errors name the file.
    return partial(load_curvature_table, base_dir / csv_name)


def _read_path(data, base_dir: FsPath) -> PathSpec:
    name = "config.path"
    data = _mapping(name, data)
    kind = _pop(data, name, "kind")
    anchor = _read(f"{name}.anchor", data.pop("anchor", None), _ANCHOR)
    if not isinstance(kind, str) or kind not in _PATH_KINDS:
        raise ConfigError(f"path: unknown kind {kind!r}; expected {'|'.join(_PATH_KINDS)}")
    if kind == "sampled":
        make = _sampled_path(data, name, base_dir)
    else:
        make = partial(PathSpec, kind, **_take(data, name, _PATH_KINDS[kind]))
    _finish(name, data)
    return make(**anchor)


def _parse_kappa0(raw, vehicle: VehicleParams) -> tuple[float, ...]:
    """'auto' expands to {0, kappa_bar/2, kappa_bar} for the given vehicle."""
    if raw == "auto" or raw is None:
        kb = kappa_bar(vehicle)
        return (0.0, 0.5 * kb, kb)
    if not isinstance(raw, list) or not raw:
        raise ConfigError("kappa0_per_m must be 'auto' or a non-empty list of numbers")
    return tuple(_number(v, "kappa0_per_m") for v in raw)


def _parse(text: str, base_dir: FsPath) -> tuple[ScenarioConfig | AnalysisConfig, dict]:
    try:
        doc = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from None
    if doc is None:
        raise ConfigError(
            f"empty config; a scenario needs sections {_needs('vehicle', _VEHICLE)}, "
            f"{_needs('control', _CONTROL)}, path(kind, ...), {_needs('initial', _INITIAL)}; "
            f"an analysis config needs vehicle plus {_needs('grid', _GRID)} "
            f"or a list of {_needs('gains', _GAIN)}")
    top = _mapping("config", doc)
    scenario = "path" in top or "initial" in top
    if not scenario and "grid" not in top and "gains" not in top:
        raise ConfigError("config must contain either a scenario ('path' and 'initial' "
                          "sections) or an analysis ('grid' or 'gains')")
    vehicle = VehicleParams(**_section(top, "vehicle", _VEHICLE))
    if vehicle.sensor_offset < 0.0:
        logger.warning("sensor offset %.4g m is negative (behind the rear axle); "
                       "the model remains valid but no standard scenario uses it",
                       vehicle.sensor_offset)

    if scenario:
        control = ControlConfig(**_section(top, "control", _CONTROL))
        path_spec = _read_path(_pop(top, "config", "path"), base_dir)
        initial = PathState(**_section(top, "initial", _INITIAL))
        sim = _section(top, "sim", _SIM, None)
        variants = top.pop("variants", None)
        if variants is not None:
            if (not isinstance(variants, list) or not variants
                    or any(v not in VARIANTS for v in variants)):
                raise ConfigError(f"variants must be a non-empty list drawn from {VARIANTS}")
            variants = tuple(variants)
        _finish("config", top)
        cfg = ScenarioConfig(path_spec=path_spec, vehicle=vehicle, control=control,
                             initial=initial, **sim)
        return cfg, {"variants": variants}

    kappa0 = _parse_kappa0(top.pop("kappa0_per_m", None), vehicle)
    grid = gains = omega = None
    if "grid" in top:
        grid = tuple(_section(top, "grid", _GRID).values())
    raw_gains = top.pop("gains", None)
    if raw_gains is not None:
        if not isinstance(raw_gains, list) or not raw_gains:
            raise ConfigError("gains must be a non-empty list of {k1, k2_per_m} maps")
        gains = tuple(tuple(_read(f"gains[{idx}]", item, _GAIN).values())
                      for idx, item in enumerate(raw_gains))
    if "omega" in top:
        omega = tuple(_section(top, "omega", _OMEGA).values())
        if not (omega[0] > 0.0 and omega[1] > 0.0):
            raise ConfigError(f"config.omega: min_rad_s and max_rad_s must be > 0, "
                              f"got {omega[0]!r} and {omega[1]!r}")
    _finish("config", top)
    return AnalysisConfig(vehicle=vehicle, kappa0=kappa0, grid=grid,
                          gains=gains, omega=omega), {}


def parse_config(text: str, base_dir=".") -> ScenarioConfig | AnalysisConfig:
    """Parse a YAML config into a fully-resolved scenario or analysis config."""
    cfg, _ = _parse(text, FsPath(base_dir))
    return cfg


# -- config echoes (re-parseable resolved views) --------------------------

def _echo_scenario(cfg: ScenarioConfig, variants=None) -> dict:
    spec = cfg.path_spec
    if spec.kind == "sampled":
        # Echo the resolved table inline so the echo re-parses anywhere.
        path = {"kind": spec.kind, "table": {"s_m": list(spec.table_s),
                                             "kappa_per_m": list(spec.table_kappa)}}
    else:
        path = {"kind": spec.kind, **_echo(_PATH_KINDS[spec.kind], spec)}
    if spec.x0 or spec.y0 or spec.psi0:
        path["anchor"] = _echo(_ANCHOR, spec)
    echo = {"vehicle": _echo(_VEHICLE, cfg.vehicle), "control": _echo(_CONTROL, cfg.control),
            "path": path, "initial": _echo(_INITIAL, cfg.initial), "sim": _echo(_SIM, cfg)}
    if variants:
        echo["variants"] = list(variants)
    return echo


def _echo_analysis(cfg: AnalysisConfig) -> dict:
    echo: dict = {"vehicle": _echo(_VEHICLE, cfg.vehicle),
                  "kappa0_per_m": list(cfg.kappa0)}
    if cfg.grid is not None:
        echo["grid"] = _echo(_GRID, cfg.grid)
    if cfg.gains is not None:
        echo["gains"] = [_echo(_GAIN, gain) for gain in cfg.gains]
    if cfg.omega is not None:
        echo["omega"] = _echo(_OMEGA, cfg.omega)
    return echo


# -- command implementations ----------------------------------------------

def _load(config_path, expected: type, dt=None) -> tuple:
    """(config, extras, input digests) of the config file or :class:`_Preset`, which
    must be of ``expected`` type. It is read once: its digest is of the bytes that
    were parsed."""
    if not isinstance(config_path, _Preset):
        config_path = FsPath(config_path)
    data = config_path.read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{config_path}: not UTF-8 text: {exc}") from None
    cfg, extras = _parse(text, config_path.parent)
    if not isinstance(cfg, expected):
        what = "a scenario" if expected is ScenarioConfig else "an analysis"
        raise ConfigError(f"{config_path}: expected {what} config")
    if dt is not None:
        cfg = replace(cfg, dt=dt)
    return cfg, extras, {str(config_path): hashlib.sha256(data).hexdigest()}


@contextmanager
def _out_dir(out_dir):
    """Make ``out_dir`` for a run; if the run fails, interrupts included, remove
    the directories made on the way to it (one that was there stays)."""
    out_dir = FsPath(out_dir)
    made = next((p for p in reversed((out_dir, *out_dir.parents)) if not p.exists()), None)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield out_dir
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def _run(command: str, started: float, echo: dict, digests: dict, out_dir,
         render, seedless: bool) -> RunManifest:
    """Render into ``out_dir`` (see :func:`_render`) and write the manifest."""
    with _out_dir(out_dir) as out_dir:
        outputs = _render(render, out_dir, seedless)
        return _write_manifest(command, started, echo, digests, out_dir, outputs, seedless)


def _render(render, out_dir: FsPath, seedless: bool) -> list[str]:
    """The names ``render(out_dir)`` returns, of the artifacts it wrote there.
    With ``seedless`` it runs a second time into a scratch directory and every
    artifact must come out byte-identical."""
    outputs = render(out_dir)
    if seedless:
        with tempfile.TemporaryDirectory() as tmp:
            render(FsPath(tmp))
            for name in outputs:
                if (out_dir / name).read_bytes() != (FsPath(tmp) / name).read_bytes():
                    raise OffsetSteerError(f"determinism check failed for {name}")
    return outputs


def _write_manifest(command: str, started: float, echo: dict, digests: dict,
                    out_dir: FsPath, outputs: list[str], seedless: bool) -> RunManifest:
    """Write ``out_dir/manifest.json`` for a run that began at ``started``."""
    manifest = RunManifest(command=command, config=echo, input_digests=digests,
                           outputs=sorted(outputs + ["manifest.json"]),
                           wall_clock_s=time.perf_counter() - started,
                           exit_status=EXIT_OK, seedless=seedless)
    write_json(out_dir / "manifest.json", asdict(manifest))
    return manifest


def _write_run(target: FsPath, traj, metrics) -> list[str]:
    """Make ``target`` and write one run's trajectory and metrics into it;
    the names of the files."""
    target.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, target / "trajectory.csv")
    write_metrics(metrics, target / "metrics.txt", target / "metrics.json")
    return ["trajectory.csv", "metrics.txt", "metrics.json"]


def cmd_simulate(config_path, out_dir, dt=None, variant=None, seedless=False) -> RunManifest:
    started = time.perf_counter()
    cfg, _, digests = _load(config_path, ScenarioConfig, dt)
    if variant is not None:
        cfg = replace(cfg, control=replace(cfg.control, variant=variant))

    def render(target: FsPath):
        return _write_run(target, *run_scenario(cfg))

    return _run("simulate", started, _echo_scenario(cfg), digests, out_dir, render, seedless)


def cmd_compare(config_path, out_dir, dt=None, variants=None, seedless=False) -> RunManifest:
    started = time.perf_counter()
    cfg, extras, digests = _load(config_path, ScenarioConfig, dt)
    variants = variants or extras["variants"] or ("naive", "full")

    def render(target: FsPath):
        report = compare_controllers(cfg, variants)
        if not report.results:
            raise OffsetSteerError("no variant ran: " + "; ".join(
                f"{variant}: {failure}" for variant, failure in report.failures.items()))
        names = []
        for variant, (traj, metrics) in report.results.items():
            names += [f"{variant}/{name}" for name in _write_run(target / variant, traj, metrics)]
        write_rows(target / "deltas.csv", ("variant", "signal", "max_abs_delta"),
                   ((variant, signal, value)
                    for variant, sig_deltas in report.deltas.items()
                    for signal, value in sig_deltas.items()))
        names.append("deltas.csv")
        if report.failures:
            write_json(target / "failures.json", report.failures)
            names.append("failures.json")
        return names

    return _run("compare", started, _echo_scenario(cfg, variants), digests, out_dir,
                render, seedless)


def cmd_stability_map(config_path, out_dir, seedless=False) -> RunManifest:
    started = time.perf_counter()
    cfg, _, digests = _load(config_path, AnalysisConfig)
    if cfg.grid is None:
        raise ConfigError("stability-map needs a 'grid' section")

    def render(target: FsPath):
        k1_min, k1_max, k2_min, k2_max, resolution = cfg.grid
        result = stability_region_scan((k1_min, k1_max), (k2_min, k2_max), cfg.kappa0,
                                       cfg.vehicle, resolution)
        write_stability_csv(result, target / "stability_map.csv")
        return ["stability_map.csv"]

    return _run("stability-map", started, _echo_analysis(cfg), digests, out_dir,
                render, seedless)


def cmd_freq_response(config_path, out_dir, seedless=False) -> RunManifest:
    started = time.perf_counter()
    cfg, _, digests = _load(config_path, AnalysisConfig)
    if cfg.gains is None:
        raise ConfigError("freq-response needs a 'gains' list")

    def render(target: FsPath):
        omega = None  # each response then has its own grid
        if cfg.omega is not None:
            lo, hi, pts = cfg.omega
            omega = np.logspace(math.log10(lo), math.log10(hi), pts)
        names, points = [], []
        for k1, k2 in cfg.gains:
            for kappa0 in cfg.kappa0:
                resp = frequency_response(kappa0, k1, k2, cfg.vehicle, omega)
                name = f"freq_response_{len(points):02d}.csv"
                write_freq_csv(resp, target / name)
                names.append(name)
                points.append((len(points), k1, k2, kappa0, resp.stable,
                               resp.m_max, resp.omega_m))
        write_columns(target / "points.csv", ("index", "k1", "k2_per_m", "kappa0_per_m",
                                              "stable", "m_max_m2", "omega_m_rad_s"),
                      np.array(points, dtype=float).T)
        names.append("points.csv")
        return names

    return _run("freq-response", started, _echo_analysis(cfg), digests, out_dir,
                render, seedless)


# -- preset bundle ---------------------------------------------------------

def preset_text(name: str) -> str:
    """Contents of a bundled preset config."""
    return resources.files("offsetsteer").joinpath(f"presets/{name}.yaml").read_text()


class _Preset(NamedTuple):
    """A bundled preset, run in place of a config file. Its input digest is
    keyed ``preset:<name>``, and a relative path in it is read beside it."""
    name: str

    def __str__(self) -> str:
        return f"preset:{self.name}"

    def read_bytes(self) -> bytes:
        return preset_text(self.name).encode()

    @property
    def parent(self):
        return resources.files("offsetsteer").joinpath("presets")


def _write_sweep_csvs(target: FsPath, vehicle: VehicleParams) -> list[str]:
    """Static characteristic curves of the steering law (plot-ready)."""
    offsets = [replace(vehicle, sensor_offset=d) for d in (2.0, 3.0, 4.0)]
    write_columns(target / "steering_offset_curves.csv",
                  ("d_m", "kappa_per_m", "feedforward_error_rad", "desired_heading_offset_rad"),
                  np.array([(p.sensor_offset, kap, feedforward_error(kap, p),
                             desired_yaw_error(kap, p.sensor_offset))
                            for p in offsets for kap in np.linspace(0.0, 0.2, 401)]).T)

    write_columns(target / "desired_heading_curves.csv", ("e_m", "nonlinear_rad", "linear_rad"),
                  np.array([(e, desired_heading(e, 0.02, "full"),
                             desired_heading(e, 0.02, "linear"))
                            for e in np.linspace(-250.0, 250.0, 1001)]).T)

    g_sat = max_allowable_steer(vehicle, 4.0)
    write_columns(target / "wrapper_curve.csv", ("x_rad", "g_rad"),
                  np.array([(x, wrapper(x, g_sat)) for x in np.linspace(-0.5, 0.5, 1001)]).T)

    write_columns(target / "max_steer_vs_speed.csv",
                  ("max_lat_accel_mps2", "speed_mps", "gamma_sat_rad"),
                  np.array([(a_max, v,
                             max_allowable_steer(replace(vehicle, speed=float(v)), a_max))
                            for a_max in (2.0, 4.0, 6.0) for v in np.linspace(1.0, 40.0, 391)]).T)
    return ["steering_offset_curves.csv", "desired_heading_curves.csv",
            "wrapper_curve.csv", "max_steer_vs_speed.csv"]


def cmd_figs_repro(out_dir, dt=None, seedless=False) -> RunManifest:
    """Run every bundled preset and emit the full plot-ready data set."""
    started = time.perf_counter()
    compare, simulate = partial(cmd_compare, dt=dt), partial(cmd_simulate, dt=dt)
    runs = (("straight_compare", compare), ("circular_compare", compare),
            ("varying_curvature_compare", compare), ("optimal_gain", simulate),
            ("positive_feedback", simulate), ("stability_map_d2", cmd_stability_map),
            ("stability_map_d3", cmd_stability_map), ("freq_response", cmd_freq_response))
    outputs: list[str] = []
    digests: dict[str, str] = {}
    with _out_dir(out_dir) as out_dir:
        for name, command in runs:
            manifest = command(_Preset(name), out_dir / name, seedless=seedless)
            digests.update(manifest.input_digests)
            outputs += [f"{name}/{out}" for out in manifest.outputs]

        table1 = VehicleParams(wheelbase=2.57, sensor_offset=2.0,
                               max_steer=math.radians(30.0), speed=20.0)
        outputs += _render(partial(_write_sweep_csvs, vehicle=table1), out_dir, seedless)

        echo = {"presets": sorted(name for name, _ in runs)}
        return _write_manifest("figs-repro", started, echo, digests, out_dir, outputs, seedless)


# -- entry point ------------------------------------------------------------

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="offsetsteer",
        description="Lateral path-following control lab for offset-mounted sensors")
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*names, **kwargs) -> argparse.ArgumentParser:
        holder = argparse.ArgumentParser(add_help=False)
        holder.add_argument(*names, **kwargs)
        return holder

    # Each dest is the keyword argument of the cmd_* function the flag feeds.
    config = flag("--config", dest="config_path", metavar="CONFIG", required=True,
                  help="YAML config file")
    out = flag("--out", dest="out_dir", metavar="OUT", required=True, help="output directory")
    seedless = flag("--seedless", action="store_true",
                    help="assert determinism: render twice, require identical bytes "
                         "(the pipeline uses no RNG anywhere)")
    dt = flag("--dt", type=float, help="integration step override [s]")
    variant = flag("--variant", choices=VARIANTS, help="controller variant override")
    variants = flag("--variant", dest="variants", choices=VARIANTS, action="append",
                    help="variant to include (repeatable)")
    for name, text, flags in (
            ("simulate", "single closed-loop run", (config, out, seedless, dt, variant)),
            ("compare", "same scenario across controller variants",
             (config, out, seedless, dt, variants)),
            ("stability-map", "gain-plane stability / peak-gain scan", (config, out, seedless)),
            ("freq-response", "curvature-to-deviation frequency response",
             (config, out, seedless)),
            ("figs-repro", "run every bundled preset study", (out, seedless, dt))):
        sub.add_parser(name, help=text, parents=flags)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = vars(_build_parser().parse_args(argv))
    # Subcommand x-y runs cmd_x_y, looked up when it runs so that a rebound name is called.
    command = globals()["cmd_" + args.pop("command").replace("-", "_")]
    try:
        command(**args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, SingularityError) as exc:
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
