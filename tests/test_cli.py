"""Config parsing, workflow commands, manifests, exit codes."""

import hashlib
import inspect
import json
import logging
import math
import pathlib
import re
import textwrap
from importlib import resources
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import assume, example, given, settings, strategies as st

from offsetsteer import (VARIANTS, ComparisonReport, ConfigError, ControlConfig,
                         OffsetSteerError, PathSpec, PathState, ScenarioConfig,
                         TrackingMetrics, VehicleParams, amplification, is_stable,
                         run_scenario, wrapper)
from offsetsteer import cli
from offsetsteer.cli import (EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO, EXIT_OK,
                             AnalysisConfig, _echo_analysis, _echo_scenario,
                             cmd_freq_response, cmd_simulate, cmd_stability_map, main,
                             parse_config, preset_text)

from conftest import CROSSING_YAML, run_python

SCENARIO_YAML = textwrap.dedent("""\
    vehicle:
      wheelbase_m: 2.57
      sensor_offset_m: 2.0
      max_steer_deg: 30.0
      speed_mps: 20.0
    control:
      k1: -0.8
      k2_per_m: 0.02
      max_lat_accel_mps2: 4.0
      variant: full
    path:
      kind: cosine
      kappa_max_per_m: 0.012566370614359173
      period_m: 250.0
      periods: 4
    initial:
      s_m: 0.0
      e_m: -10.0
      theta_deg: 0.0
    sim:
      dt_s: 0.001
      t_end_s: 1.5
    """)

ANALYSIS_YAML = textwrap.dedent("""\
    vehicle:
      wheelbase_m: 2.57
      sensor_offset_m: 2.0
      max_steer_deg: 30.0
      speed_mps: 20.0
    grid:
      k1_min: -2.0
      k1_max: 2.0
      k2_min: -1.0
      k2_max: 1.0
      resolution: 9
    gains:
      - {k1: -0.8, k2_per_m: 0.02}
    kappa0_per_m: [0.0, 0.05]
    """)


# -- parsing -----------------------------------------------------------------

def test_parse_scenario_resolves_units_and_defaults():
    cfg = parse_config(SCENARIO_YAML)
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.vehicle.wheelbase == 2.57
    assert cfg.vehicle.max_steer == pytest.approx(math.radians(30.0), rel=1e-15)
    assert cfg.control.k1 == -0.8 and cfg.control.variant == "full"
    assert cfg.path_spec.kind == "cosine" and cfg.path_spec.periods == 4
    assert cfg.initial.e == -10.0 and cfg.initial.theta == 0.0
    assert cfg.dt == 1e-3 and cfg.t_end == 1.5 and cfg.frame == "both"


def test_parse_analysis_config():
    cfg = parse_config(ANALYSIS_YAML)
    assert isinstance(cfg, AnalysisConfig)
    assert cfg.grid == (-2.0, 2.0, -1.0, 1.0, 9)
    assert cfg.gains == ((-0.8, 0.02),)
    assert cfg.kappa0 == (0.0, 0.05)


def test_parse_kappa0_auto_expands_to_capability():
    text = ANALYSIS_YAML.replace("kappa0_per_m: [0.0, 0.05]", "kappa0_per_m: auto")
    cfg = parse_config(text)
    assert cfg.kappa0[0] == 0.0
    assert cfg.kappa0[2] == pytest.approx(0.20491674207981267, rel=1e-13)
    assert cfg.kappa0[1] == pytest.approx(cfg.kappa0[2] / 2.0, rel=1e-15)


def test_parse_empty_config_lists_requirements():
    with pytest.raises(ConfigError, match="vehicle") as err:
        parse_config("")
    for key in ("wheelbase_m", "k2_per_m", "initial", "grid"):
        assert key in str(err.value)


def test_parse_rejects_unknown_keys():
    bad = SCENARIO_YAML.replace("speed_mps: 20.0", "speed_mps: 20.0\n  turbo: yes")
    with pytest.raises(ConfigError, match="turbo"):
        parse_config(bad)


def test_parse_names_missing_key():
    bad = SCENARIO_YAML.replace("  k2_per_m: 0.02\n", "")
    with pytest.raises(ConfigError, match="k2_per_m"):
        parse_config(bad)


def test_parse_requires_angle_unit_suffix():
    bad = SCENARIO_YAML.replace("max_steer_deg: 30.0", "max_steer: 0.5")
    with pytest.raises(ConfigError, match="max_steer_deg"):
        parse_config(bad)
    both = SCENARIO_YAML.replace("max_steer_deg: 30.0",
                                 "max_steer_deg: 30.0\n  max_steer_rad: 0.5")
    with pytest.raises(ConfigError, match="only one"):
        parse_config(both)


def test_parse_accepts_radian_suffix():
    text = SCENARIO_YAML.replace("max_steer_deg: 30.0", "max_steer_rad: 0.5")
    assert parse_config(text).vehicle.max_steer == 0.5


def test_parse_rejects_unknown_variant():
    bad = SCENARIO_YAML.replace("variant: full", "variant: fancy")
    with pytest.raises(ConfigError, match="fancy"):
        parse_config(bad)


@pytest.mark.parametrize("key, value", [
    ("dt_s", ".nan"), ("speed_mps", ".nan"), ("wheelbase_m", ".nan"), ("k1", ".nan"),
    ("e_m", ".nan"), ("max_lat_accel_mps2", ".inf"),
    pytest.param("speed_mps", "1" + "0" * 400, id="speed_mps-int-beyond-double"),
])
def test_non_finite_numbers_exit_config(tmp_path, key, value):
    config = tmp_path / "scenario.yaml"
    config.write_text(re.sub(rf"(?m)^(\s*{key}): .*$", rf"\1: {value}", SCENARIO_YAML))
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "periods", "2.5"),
    ("simulate", "settle_threshold_m", "-1.0"), ("simulate", "settle_threshold_m", "0.0"),
    ("stability-map", "resolution", "-1"), ("stability-map", "resolution", "0"),
    ("stability-map", "resolution", "2.7"),
    ("freq-response", "points", "-1"), ("freq-response", "points", "0"),
    ("freq-response", "min_rad_s", "0.0"), ("freq-response", "min_rad_s", "-1.0e-3"),
    ("freq-response", "max_rad_s", "0.0"),
    ("stability-map", "kappa0_per_m", "[]"), ("freq-response", "kappa0_per_m", "[]"),
    # V**2 overflows.
    ("simulate", "speed_mps", "1.0e+306"), ("stability-map", "speed_mps", "1.0e+306"),
])
def test_counts_and_ranges_exit_config(tmp_path, command, key, value):
    text = SCENARIO_YAML + "  settle_threshold_m: 0.01\n" if command == "simulate" else (
        ANALYSIS_YAML + "omega:\n  min_rad_s: 0.01\n  max_rad_s: 100.0\n  points: 50\n")
    parse_config(text)  # valid before the one edit
    config = tmp_path / "config.yaml"
    config.write_text(re.sub(rf"(?m)^(\s*{key}): .*$", rf"\1: {value}", text))
    assert main([command, "--config", str(config),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize("value", ["1.0e2", "1e2", "1e+2"])
def test_unsigned_exponent_names_the_yaml_spelling(tmp_path, capsys, value):
    # YAML 1.1 loads these as text; only 1.0e+2 is a float.
    config = tmp_path / "config.yaml"
    config.write_text(ANALYSIS_YAML + f"omega:\n  min_rad_s: 0.01\n  max_rad_s: {value}\n")
    assert main(["freq-response", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "exponents with a dot and a sign, as in 1.0e+2" in capsys.readouterr().err


@pytest.mark.parametrize("csv, kappa", [("table.csv", "nan"), ("5", "0.002"), ("", "0.002")],
                         ids=["nan-cell", "csv-number", "csv-empty"])
def test_bad_sampled_path_exits_config(tmp_path, csv, kappa):
    (tmp_path / "table.csv").write_text(
        f"s_meters,kappa_per_meter\n0.0,0.0\n500.0,{kappa}\n1000.0,0.0\n")
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML.replace(
        "  kind: cosine\n  kappa_max_per_m: 0.012566370614359173\n"
        "  period_m: 250.0\n  periods: 4",
        f"  kind: sampled\n  csv: {csv}"))
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize("kappa, s_m, message", [
    ("nan", "0.0", "table.csv: sampled path table must hold finite numbers only"),
    ("0.002", "-10.0", "initial s=-10 outside sampled table range [0, 1000]"),
    ("0.002", "1100.0", "initial s=1100 outside sampled table range [0, 1000]"),
    ("0.002 # caf\xe9", "0.0", "table.csv: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9"),
], ids=["nan-cell-names-the-file", "started-before-its-table", "started-past-its-table",
        "not-utf8-names-the-file"])
def test_bad_sampled_road_names_its_cause(tmp_path, capsys, kappa, s_m, message):
    (tmp_path / "table.csv").write_text(
        f"s_meters,kappa_per_meter\n0.0,0.0\n500.0,{kappa}\n1000.0,0.0\n", encoding="latin-1")
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML.replace(
        "  kind: cosine\n  kappa_max_per_m: 0.012566370614359173\n"
        "  period_m: 250.0\n  periods: 4",
        "  kind: sampled\n  csv: table.csv").replace("s_m: 0.0", f"s_m: {s_m}"))
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "bad" / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "bad").exists()


def test_parse_warns_on_negative_offset(caplog):
    text = SCENARIO_YAML.replace("sensor_offset_m: 2.0", "sensor_offset_m: -0.4")
    with caplog.at_level(logging.WARNING):
        cfg = parse_config(text)
    assert cfg.vehicle.sensor_offset == -0.4
    assert any("negative" in rec.message for rec in caplog.records)


def test_all_presets_parse():
    for name in ("straight_compare", "circular_compare", "varying_curvature_compare",
                 "optimal_gain", "positive_feedback", "stability_map_d2",
                 "stability_map_d3", "freq_response"):
        parse_config(preset_text(name))


def test_parse_sampled_path_from_csv(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("s_meters,kappa_per_meter\n0.0,0.0\n500.0,0.002\n1000.0,0.0\n")
    text = SCENARIO_YAML.replace(
        "  kind: cosine\n  kappa_max_per_m: 0.012566370614359173\n"
        "  period_m: 250.0\n  periods: 4",
        "  kind: sampled\n  csv: table.csv")
    cfg = parse_config(text, base_dir=tmp_path)
    assert cfg.path_spec.kind == "sampled"
    assert len(cfg.path_spec.table_s) == 3


def test_csv_road_builds_its_spec_once(tmp_path, monkeypatch):
    (tmp_path / "table.csv").write_text(
        "s_meters,kappa_per_meter\n0.0,0.0\n500.0,0.002\n1000.0,0.0\n")
    text = SCENARIO_YAML.replace(
        "  kind: cosine\n  kappa_max_per_m: 0.012566370614359173\n"
        "  period_m: 250.0\n  periods: 4",
        "  kind: sampled\n  csv: table.csv\n  anchor:\n    x_m: 5.0\n    heading_deg: 90.0")
    checked = []
    check = PathSpec.__post_init__

    def counted(spec):
        checked.append(spec.kind)
        check(spec)

    monkeypatch.setattr(PathSpec, "__post_init__", counted)
    spec = parse_config(text, base_dir=tmp_path).path_spec
    assert checked == ["sampled"]
    assert (spec.x0, spec.y0, spec.psi0) == (5.0, 0.0, math.radians(90.0))
    assert spec.table_kappa == (0.0, 0.002, 0.0)


@pytest.mark.parametrize("command, text", [("simulate", SCENARIO_YAML),
                                           ("stability-map", ANALYSIS_YAML)],
                         ids=["simulate", "stability-map"])
def test_malformed_yaml_exits_config_and_names_the_place(tmp_path, capsys, command, text):
    # The flow sequence opened on line 4 is still open at the key on line 5.
    config = tmp_path / "config.yaml"
    config.write_text(text.replace("  max_steer_deg: 30.0", "  max_steer_deg: [30.0"))
    assert main([command, "--config", str(config),
                 "--out", str(tmp_path / "bad" / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed YAML: ")
    assert "line 4, column 18" in err and "line 5, column 12" in err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command, text", [("simulate", SCENARIO_YAML),
                                           ("stability-map", ANALYSIS_YAML)],
                         ids=["simulate", "stability-map"])
def test_config_that_is_not_utf8_exits_config_and_names_the_file(tmp_path, capsys, command,
                                                                 text):
    config = tmp_path / "config.yaml"
    config.write_bytes(b"# caf\xe9 (Latin-1)\n" + text.encode())
    assert main([command, "--config", str(config),
                 "--out", str(tmp_path / "bad" / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config}: not UTF-8 text: ")
    assert "0xe9" in err and "Traceback" not in err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("text, message", [
    (SCENARIO_YAML + "control: {k1: 0.8, k2_per_m: 0.02, max_lat_accel_mps2: 4.0}\n",
     "repeated key 'control' at line 23, column 1"),
    (SCENARIO_YAML.replace("  k1: -0.8\n", "  k1: -0.8\n  k1: 0.8\n"),
     "repeated key 'k1' at line 8, column 3"),
], ids=["section", "key-in-a-section"])
def test_repeated_key_exits_config_and_names_the_place(tmp_path, capsys, text, message):
    # YAML alone would run with the last value given.
    config = tmp_path / "config.yaml"
    config.write_text(text)
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "bad" / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "bad").exists()


# Scalars whose type the YAML 1.1 resolver decides; 1.0e2 stays text.
_RESOLVED_YAML = textwrap.dedent("""\
    texts: [1.0e2, 1e3, "5", yes please, 0.5.1]
    numbers: [1.0e+2, -0.0, .inf, -.Inf, 0x1f, 0o17, 1_000, 3.]
    other: [yes, No, ~, null, 2001-12-14, 2001-12-14t21:59:43.10-05:00]
    """)


_PRESETS = sorted(p.name[:-len(".yaml")]
                  for p in resources.files("offsetsteer").joinpath("presets").iterdir()
                  if p.name.endswith(".yaml"))


@pytest.mark.parametrize("text", [*map(preset_text, _PRESETS), SCENARIO_YAML, ANALYSIS_YAML,
                                  _RESOLVED_YAML],
                         ids=[*_PRESETS, "scenario", "analysis", "resolved-scalars"])
def test_config_loader_reads_what_the_pure_python_loader_reads(text):
    assert yaml.load(text, Loader=cli._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


def test_yaml_resolver_keeps_an_unsigned_exponent_as_text():
    doc = yaml.load(_RESOLVED_YAML, Loader=cli._YAML_LOADER)
    assert doc["texts"][:2] == ["1.0e2", "1e3"] and doc["numbers"][:2] == [100.0, -0.0]


def test_config_loader_is_libyaml_where_pyyaml_has_it():
    assert cli._YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


# Generated valid configs: the echo must parse back to the same config.
_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
_vehicles = st.builds(VehicleParams, wheelbase=_positive, sensor_offset=_finite,
                      max_steer=st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
                      speed=st.floats(min_value=0.0, max_value=1e150, exclude_min=True))


@st.composite
def _path_specs(draw):
    anchor = draw(st.just({}) | st.fixed_dictionaries(
        {"x0": _finite, "y0": _finite, "psi0": _finite}))
    kind = draw(st.sampled_from(("straight", "circular", "cosine", "sampled")))
    if kind == "straight":
        return PathSpec.straight(**anchor)
    if kind == "circular":
        return PathSpec.circular(draw(_positive), **anchor)
    if kind == "cosine":
        return PathSpec.cosine(draw(st.floats(0.0, 1e300)), draw(_positive),
                               draw(st.integers(1, 10**6)), **anchor)
    s = sorted(draw(st.lists(_finite, min_size=2, max_size=6, unique=True)))
    kappa = draw(st.lists(_finite, min_size=len(s), max_size=len(s)))
    return PathSpec.sampled(s, kappa, **anchor)


@st.composite
def _scenarios(draw):
    dt = draw(st.floats(0.0, 1e3, exclude_min=True))
    spec = draw(_path_specs())
    # A sampled road starts inside its table.
    s = st.floats(spec.table_s[0], spec.table_s[-1]) if spec.kind == "sampled" else _finite
    fields = dict(path_spec=spec, vehicle=draw(_vehicles),
                  initial=draw(st.builds(PathState, s, _finite, _finite)),
                  t_end=draw(st.none() | st.floats(2e3, 1e300)))
    # dt must stay below the horizon. Without a t_end that is the road's
    # default horizon, which follows from these fields alone.
    assume(dt < ScenarioConfig.resolved_t_end(SimpleNamespace(**fields)) < math.inf)
    return ScenarioConfig(
        **fields, dt=dt,
        control=draw(st.builds(ControlConfig, k1=_finite, k2=_finite, max_lat_accel=_positive,
                               variant=st.sampled_from(VARIANTS))),
        frame=draw(st.sampled_from(("path", "earth", "both"))),
        control_dt=draw(st.none() | st.integers(1, 1000).map(lambda n: n * dt)),
        settle_threshold=draw(_positive))


@st.composite
def _analyses(draw):
    grid = draw(st.none() | st.tuples(_finite, _finite, _finite, _finite, st.integers(1, 10**6)))
    gains = draw(st.none() | st.lists(st.tuples(_finite, _finite), min_size=1,
                                      max_size=4).map(tuple))
    assume(grid is not None or gains is not None)
    return AnalysisConfig(
        vehicle=draw(_vehicles),
        kappa0=tuple(draw(st.lists(_finite, min_size=1, max_size=4))),
        grid=grid, gains=gains,
        omega=draw(st.none() | st.tuples(_positive, _positive, st.integers(1, 10**6))))


@settings(deadline=None)
@example(parse_config(preset_text("straight_compare")))
@example(parse_config(preset_text("circular_compare")))
@example(parse_config(preset_text("varying_curvature_compare")))
@example(parse_config(preset_text("optimal_gain")))
@example(parse_config(preset_text("positive_feedback")))
@example(parse_config(preset_text("stability_map_d2")))
@example(parse_config(preset_text("stability_map_d3")))
@example(parse_config(preset_text("freq_response")))
@given(_scenarios() | _analyses())
def test_echo_parses_back_to_the_same_config(cfg):
    echo = _echo_scenario(cfg) if isinstance(cfg, ScenarioConfig) else _echo_analysis(cfg)
    assert parse_config(yaml.safe_dump(echo)) == cfg


# -- commands ---------------------------------------------------------------

@pytest.mark.parametrize("command, text", [(cmd_simulate, SCENARIO_YAML),
                                           (cmd_stability_map, ANALYSIS_YAML)],
                         ids=["simulate", "stability-map"])
def test_command_reads_its_config_once_and_digests_those_bytes(tmp_path, monkeypatch,
                                                               command, text):
    config = tmp_path / "config.yaml"
    config.write_text(text)
    parsed = config.read_bytes()
    opened = []
    path_open, parse = pathlib.Path.open, cli._parse

    def counted_open(self, *args, **kwargs):
        if self == config:
            opened.append(self)
        return path_open(self, *args, **kwargs)

    def parse_then_edit(*args):
        result = parse(*args)
        # The file changes after the parse; the digest is still of what was parsed.
        with open(config, "a") as fh:
            fh.write("# edited after the parse\n")
        return result

    monkeypatch.setattr(pathlib.Path, "open", counted_open)
    monkeypatch.setattr(cli, "_parse", parse_then_edit)
    manifest = command(config, tmp_path / "out")
    assert len(opened) == 1
    assert manifest.input_digests == {str(config): hashlib.sha256(parsed).hexdigest()}


def test_simulate_writes_artifacts_and_reruns_identically(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML)
    manifest = cmd_simulate(config, tmp_path / "out")
    for name in ("trajectory.csv", "metrics.txt", "metrics.json", "manifest.json"):
        assert (tmp_path / "out" / name).exists()
        assert name in manifest.outputs
    first = (tmp_path / "out" / "trajectory.csv").read_bytes()
    cmd_simulate(config, tmp_path / "out2")
    assert (tmp_path / "out2" / "trajectory.csv").read_bytes() == first


def test_manifest_echo_round_trips(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML)
    cmd_simulate(config, tmp_path / "a")
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    echoed = tmp_path / "echo.yaml"
    echoed.write_text(yaml.safe_dump(manifest["config"]))
    cmd_simulate(echoed, tmp_path / "b")
    assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
            == (tmp_path / "b" / "trajectory.csv").read_bytes())


def test_simulate_variant_override_changes_run(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML)
    cmd_simulate(config, tmp_path / "full")
    manifest = cmd_simulate(config, tmp_path / "naive", variant="naive")
    assert manifest.config["control"]["variant"] == "naive"
    assert ((tmp_path / "full" / "trajectory.csv").read_bytes()
            != (tmp_path / "naive" / "trajectory.csv").read_bytes())


def test_compare_command_exit_and_outputs(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML + "variants: [naive, full]\n")
    code = main(["compare", "--config", str(config), "--out", str(tmp_path / "cmp")])
    assert code == EXIT_OK
    assert (tmp_path / "cmp" / "naive" / "trajectory.csv").exists()
    assert (tmp_path / "cmp" / "full" / "metrics.json").exists()
    deltas = (tmp_path / "cmp" / "deltas.csv").read_text().splitlines()
    assert deltas[0] == "variant,signal,max_abs_delta"
    assert any(line.startswith("full,e_D,") for line in deltas[1:])


@pytest.mark.parametrize("tail, flags", [
    ("variants: [full, full]\n", []), ("", ["--variant", "full", "--variant", "full"]),
], ids=["config", "flags"])
def test_compare_repeated_variant_exits_config(tmp_path, tail, flags):
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML + tail)
    assert main(["compare", "--config", str(config), "--out", str(tmp_path / "cmp"),
                 *flags]) == EXIT_CONFIG
    # compare_controllers rejects the list inside the run, and the failed run
    # removes the output directory it made.
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("path, e_m, failed", [
    # From e = -pi/k2 on a straight road the linear law commands 2.51 rad,
    # beyond pi/2, while the full law's bounded feedback runs.
    ("  kind: straight", "-157.07963267948966", ["linear"]),
    # On a 1.5 m circle |d*kappa| > 1 for the 2 m offset: neither law runs.
    ("  kind: circular\n  radius_m: 1.5", "-10.0", ["full", "linear"]),
], ids=["one-ran", "none-ran"])
def test_compare_exits_domain_only_when_no_variant_ran(tmp_path, capsys, path, e_m, failed):
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML.replace(
        "  kind: cosine\n  kappa_max_per_m: 0.012566370614359173\n"
        "  period_m: 250.0\n  periods: 4", path).replace("e_m: -10.0", f"e_m: {e_m}")
        + "variants: [full, linear]\n")
    out = tmp_path / "bad" / "cmp"
    code = main(["compare", "--config", str(config), "--out", str(out)])
    if failed == ["full", "linear"]:
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error: no variant ran: ")
        assert all(f"{variant}: DomainError: path untrackable" in err for variant in failed)
        assert not (tmp_path / "bad").exists()
    else:
        assert code == EXIT_OK
        assert list(json.loads((out / "failures.json").read_text())) == failed


def test_text_tables_match_a_percent_reference_byte_for_byte(tmp_path, monkeypatch):
    # metrics.txt and deltas.csv mix text and numbers: a text field as it is,
    # a number as '%.17g' writes it.
    metrics = TrackingMetrics(math.inf, -0.0, 1e-300, 0.1, -2.5e-7, 1.0)
    deltas = {"full": {"e_D": math.inf, "theta_D": -0.0, "gamma_fb": 1e-300, "psi": 0.1}}

    def report(cfg, variants):
        traj, _ = run_scenario(cfg)
        return ComparisonReport(variants, {"full": (traj, metrics)}, {}, deltas)

    monkeypatch.setattr(cli, "compare_controllers", report)
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML)
    cli.cmd_compare(config, tmp_path / "cmp", variants=["naive", "full"])
    assert (tmp_path / "cmp" / "full" / "metrics.txt").read_text() == "".join(
        "%s=%.17g\n" % item for item in metrics.as_dict().items())
    assert (tmp_path / "cmp" / "deltas.csv").read_text() == "".join(
        ["variant,signal,max_abs_delta\n"]
        + ["%s,%s,%.17g\n" % ("full", signal, value) for signal, value in deltas["full"].items()])


def test_stability_map_matches_pointwise_predicate(tmp_path):
    config = tmp_path / "analysis.yaml"
    config.write_text(ANALYSIS_YAML)
    cmd_stability_map(config, tmp_path / "map")
    rows = (tmp_path / "map" / "stability_map.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 9 * 9
    cfg = parse_config(ANALYSIS_YAML)
    for row in rows:
        k1, k2, kappa0, stable, marginal, m_max, omega_m = row.split(",")
        verdict = is_stable(float(kappa0), float(k1), float(k2), cfg.vehicle)
        assert int(stable) == int(verdict.necessary_sufficient)


def test_freq_response_outputs_match_closed_form(tmp_path):
    config = tmp_path / "analysis.yaml"
    config.write_text(ANALYSIS_YAML)
    cmd_freq_response(config, tmp_path / "freq")
    points = (tmp_path / "freq" / "points.csv").read_text().splitlines()
    assert points[0] == "index,k1,k2_per_m,kappa0_per_m,stable,m_max_m2,omega_m_rad_s"
    assert len(points) == 1 + 2  # one gain pair x two curvatures
    cfg = parse_config(ANALYSIS_YAML)
    for line in points[1:]:
        idx, k1, k2, kappa0, stable, m_max, omega_m = line.split(",")
        data = (tmp_path / "freq" / f"freq_response_{int(idx):02d}.csv") \
            .read_text().splitlines()[1:]
        w, m = map(float, data[17].split(","))
        assert m == pytest.approx(
            amplification(w, float(kappa0), float(k1), float(k2), cfg.vehicle),
            rel=1e-12)


def test_straight_preset_runs_quickly_and_settles(tmp_path):
    import time
    config = tmp_path / "straight.yaml"
    config.write_text(preset_text("straight_compare"))
    started = time.perf_counter()
    cmd_simulate(config, tmp_path / "run", variant="full")
    assert time.perf_counter() - started < 10.0
    last = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()[-1]
    e_final = float(last.split(",")[2])
    assert abs(e_final) < 0.01


def test_seedless_flag_verifies_determinism(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIO_YAML)
    code = main(["simulate", "--config", str(config), "--out",
                 str(tmp_path / "out"), "--seedless"])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seedless"] is True


def test_figs_repro_manifest_lists_every_output(tmp_path):
    out = tmp_path / "figs"
    assert main(["figs-repro", "--dt", "0.01", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert manifest["outputs"] == on_disk
    assert len(on_disk) == 52
    presets = manifest["config"]["presets"]
    assert len(presets) == 8
    digests = {f"preset:{name}": hashlib.sha256(preset_text(name).encode()).hexdigest()
               for name in presets}
    assert manifest["input_digests"] == digests
    assert manifest["seedless"] is False
    manifests = {name: json.loads((out / name / "manifest.json").read_text())
                 for name in presets}
    # Each preset's own manifest keys its input by the preset, not by a file.
    for name, preset_manifest in manifests.items():
        key = f"preset:{name}"
        assert preset_manifest["input_digests"] == {key: digests[key]}
    scenarios = [preset_manifest["config"] for preset_manifest in manifests.values()]
    scenarios = [config for config in scenarios if "sim" in config]
    assert len(scenarios) == 5
    assert all(config["sim"]["dt_s"] == 0.01 for config in scenarios)


def test_figs_repro_seedless_checks_its_sweep_csvs(tmp_path, monkeypatch):
    # The presets are stubbed out, and the wrapper doubles on the second render
    # of the sweep CSVs: the determinism check must catch that.
    for name in ("cmd_simulate", "cmd_compare", "cmd_stability_map", "cmd_freq_response"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: SimpleNamespace(
            input_digests={}, outputs=[]))
    renders = []

    def drifting_wrapper(x, g_sat):
        if x == -0.5:  # the first point of each render's wrapper curve
            renders.append(x)
        return len(renders) * wrapper(x, g_sat)

    monkeypatch.setattr(cli, "wrapper", drifting_wrapper)
    with pytest.raises(OffsetSteerError, match="determinism check failed for wrapper_curve.csv"):
        cli.cmd_figs_repro(tmp_path / "figs", seedless=True)
    assert len(renders) == 2
    assert not (tmp_path / "figs").exists()


# -- dispatch -----------------------------------------------------------------

COMMANDS = ("simulate", "compare", "stability-map", "freq-response", "figs-repro")


@pytest.mark.parametrize("argv, forwarded", [
    (["simulate", "--config", "c.yaml", "--dt", "0.01", "--variant", "naive", "--seedless"],
     {"config_path": "c.yaml", "dt": 0.01, "variant": "naive", "seedless": True}),
    (["compare", "--config", "c.yaml", "--dt", "0.02", "--variant", "naive",
      "--variant", "linear"],
     {"config_path": "c.yaml", "dt": 0.02, "variants": ["naive", "linear"],
      "seedless": False}),
    (["stability-map", "--config", "c.yaml", "--seedless"],
     {"config_path": "c.yaml", "seedless": True}),
    (["freq-response", "--config", "c.yaml"], {"config_path": "c.yaml", "seedless": False}),
    (["figs-repro", "--dt", "0.01"], {"dt": 0.01, "seedless": False}),
], ids=COMMANDS)
def test_main_calls_the_command_bound_at_call_time(monkeypatch, argv, forwarded):
    # A profiler times the commands by rebinding them on the module after import.
    name = "cmd_" + argv[0].replace("-", "_")
    signature = inspect.signature(getattr(cli, name))
    calls = []
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(
        signature.bind(*args, **kwargs).arguments))
    assert main([*argv, "--out", "o"]) == EXIT_OK
    assert calls == [{**forwarded, "out_dir": "o"}]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_prints_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--out" in capsys.readouterr().out


def test_main_parses_with_one_parser_per_process(tmp_path, capsys):
    # Two commands in a row through the process's one parser, which prints
    # the help a freshly built parser prints.
    scenario, analysis = tmp_path / "scenario.yaml", tmp_path / "analysis.yaml"
    scenario.write_text(SCENARIO_YAML)
    analysis.write_text(ANALYSIS_YAML)
    assert main(["simulate", "--config", str(scenario), "--out", str(tmp_path / "sim")]) == EXIT_OK
    assert main(["stability-map", "--config", str(analysis),
                 "--out", str(tmp_path / "map")]) == EXIT_OK
    assert (tmp_path / "sim" / "trajectory.csv").exists()
    assert (tmp_path / "map" / "stability_map.csv").exists()
    assert cli._build_parser() is cli._build_parser()
    fresh = cli._build_parser.__wrapped__()
    for argv in ([], *([command] for command in COMMANDS)):
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        with pytest.raises(SystemExit):
            fresh.parse_args([*argv, "--help"])
        once, again = capsys.readouterr().out.split("usage:")[1:]
        assert once == again


# -- exit codes ---------------------------------------------------------------

def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


# A 1.5 m circle: |d*kappa| > 1 for the 2 m sensor offset, so the run fails.
UNTRACKABLE_YAML = SCENARIO_YAML.replace(
    "  kind: cosine\n  kappa_max_per_m: 0.012566370614359173\n"
    "  period_m: 250.0\n  periods: 4",
    "  kind: circular\n  radius_m: 1.5")


def test_exit_code_domain_error(tmp_path):
    config = tmp_path / "tight.yaml"
    config.write_text(UNTRACKABLE_YAML)
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == EXIT_DOMAIN


@pytest.mark.parametrize("text, message", [
    # On a 200 m circle, e = 250 m starts beyond the centre.
    (UNTRACKABLE_YAML.replace("radius_m: 1.5", "radius_m: 200.0")
     .replace("e_m: -10.0", "e_m: 250.0"), "1 - e*kappa = -0.25 at s=0 (at t=0 s, s=0 m)"),
    (CROSSING_YAML, "1 - e*kappa = -0.0487 at s=104.205 (at t=3.67099 s, s=97.964 m)"),
], ids=["from-the-start", "between-two-steps"])
def test_run_past_the_curvature_centre_exits_domain_and_leaves_no_output(tmp_path, capsys,
                                                                        text, message):
    config = tmp_path / "past_centre.yaml"
    config.write_text(text)
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "bad" / "out")]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("domain error: curvature-center singularity: ") and message in err
    assert not (tmp_path / "bad").exists()


def test_stage_rate_overflow_exits_domain_and_leaves_no_output(tmp_path, capsys):
    # On a 1e-307 m circle a rate overflows inside the first step.
    config = tmp_path / "tiny_circle.yaml"
    config.write_text(preset_text("circular_compare")
                      .replace("sensor_offset_m: 2.0", "sensor_offset_m: 0.0")
                      .replace("radius_m: 200.0", "radius_m: 1.0e-307")
                      .replace("e_m: -10.0", "e_m: 0.0"))
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "bad" / "out")]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: integration diverged: ") and "(at t=0 s, s=0 m)" in err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("existing", ["", "runs", "runs/out"], ids=["none", "parent", "out"])
def test_failed_run_removes_only_the_directories_it_made(tmp_path, existing):
    config = tmp_path / "tight.yaml"
    config.write_text(UNTRACKABLE_YAML)
    if existing:
        (tmp_path / existing).mkdir(parents=True)
        (tmp_path / existing / "keep.txt").write_text("kept")
    before = set(tmp_path.rglob("*"))
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "runs" / "out")]) == EXIT_DOMAIN
    # What was there before the run is all that is left.
    assert set(tmp_path.rglob("*")) == before


def test_failed_figs_repro_removes_only_the_directories_it_made(tmp_path):
    # The first preset rejects the step after figs-repro has made --out.
    (tmp_path / "runs").mkdir()
    before = set(tmp_path.rglob("*"))
    assert main(["figs-repro", "--dt", "-1",
                 "--out", str(tmp_path / "runs" / "new" / "figs")]) == EXIT_CONFIG
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [["simulate", "--dt", "100"], ["figs-repro", "--dt", "1000"]],
                         ids=["simulate", "figs-repro"])
def test_step_longer_than_the_default_horizon_exits_config(tmp_path, capsys, argv):
    # No t_end: the straight road's default horizon is 30 s, and one step may
    # not outlast it.
    config = tmp_path / "straight.yaml"
    config.write_text(preset_text("straight_compare"))
    if argv[0] == "simulate":
        argv = [*argv, "--config", str(config)]
    assert main([*argv, "--out", str(tmp_path / "bad" / "out")]) == EXIT_CONFIG
    assert "got 30.0 (the road's default horizon)" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_exit_code_io_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path / "out")]) == EXIT_IO


UNBOUNDED_YAML = textwrap.dedent("""\
    vehicle: {wheelbase_m: 2.57, sensor_offset_m: 2.0, max_steer_deg: 30.0, speed_mps: 20.0}
    gains: [{k1: 0.0, k2_per_m: 0.02}]
    kappa0_per_m: [0.05]
    """)


@pytest.mark.parametrize("argv, text, code, message", [
    # k1 = 0 at kappa0 != 0: M is inf at the undamped peak, which the default grid holds.
    (["freq-response", "--config", "config.yaml"], UNBOUNDED_YAML, EXIT_OK,
     "WARNING offsetsteer.analysis: amplification unbounded at kappa0=0.05"),
    (["simulate", "--config", "config.yaml"],
     SCENARIO_YAML.replace("  max_steer_deg: 30.0", "  max_steer_deg: [30.0"), EXIT_CONFIG,
     "config error: malformed YAML: "),
    (["simulate", "--config", "config.yaml"], CROSSING_YAML, EXIT_DOMAIN,
     "domain error: curvature-center singularity: "),
    (["simulate", "--config", "missing.yaml"], None, EXIT_IO, "i/o error: "),
    (["figs-repro", "--dt", "1000"], None, EXIT_CONFIG,
     "config error: t_end must be finite and exceed dt (1000.0), got 30.0"),
], ids=["unbounded-response", "malformed-yaml", "crossing", "missing-config", "step-past-horizon"])
def test_each_exit_path_through_a_fresh_interpreter(tmp_path, argv, text, code, message):
    # The process boundary: the status a process returns, stderr as logging and
    # main write it, and the --out cleanup. `-m offsetsteer.cli` exits with
    # main()'s status, as the console script does.
    if text is not None:
        (tmp_path / "config.yaml").write_text(text)
    proc = run_python("-m", "offsetsteer.cli", *argv, "--out", "bad/out", cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "bad").exists() == (code == EXIT_OK)
