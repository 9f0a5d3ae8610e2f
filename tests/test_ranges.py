"""Each config value's range: swept through the five commands, and held by
every preset and every benchmark input."""

import copy
import json
import math
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path as FsPath

import pytest
import yaml

from offsetsteer import (ConfigError, ControlConfig, PathSpec, PathState, ScenarioConfig,
                         load_curvature_table)
from offsetsteer.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, main, parse_config, preset_text
from offsetsteer.errors import RANGES, Range

_REPO = FsPath(__file__).resolve().parents[1]


def _documented() -> dict:
    """The README's table of ranges, {key: Range}: the sweep's edges come from
    it, so a range moved in the code alone fails the sweep."""
    rows = re.findall(r"^\| .*\((.+?)\) \| \[(\S+), (\S+)\] \| (.*?) \|$",
                      (_REPO / "README.md").read_text(), re.M)
    return {key: Range(float(lo), float(hi), "" if unit == "-" else unit)
            for key, lo, hi, unit in rows}


_DOCUMENTED = _documented()

_SCENARIO = {
    "vehicle": {"wheelbase_m": 2.57, "sensor_offset_m": 2.0, "max_steer_rad": 0.5,
                "speed_mps": 20.0},
    "control": {"k1": -0.8, "k2_per_m": 0.02, "max_lat_accel_mps2": 4.0},
    "path": {"kind": "straight"},
    "initial": {"s_m": 0.0, "e_m": -1.0, "theta_rad": 0.1},
    "sim": {"dt_s": 0.001, "t_end_s": 0.02},
}
_ANALYSIS = {
    "vehicle": _SCENARIO["vehicle"],
    "grid": {"k1_min": -2.0, "k1_max": 2.0, "k2_min": -1.0, "k2_max": 1.0, "resolution": 5},
    "gains": [{"k1": -0.8, "k2_per_m": 0.02}],
    "omega": {"min_rad_s": 0.01, "max_rad_s": 100.0, "points": 20},
    "kappa0_per_m": [0.05],
}
_VEHICLE = ("simulate", "compare", "stability-map", "freq-response")
_SCENARIO_ONLY = ("simulate", "compare")


def _set(*keys):
    """A setter of the value at ``keys`` in a config document."""
    def put(doc, value):
        *parents, last = keys
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return put


def _road(road):
    """A setter that swaps in ``road`` with the value at ``key``."""
    def setter(key):
        def put(doc, value):
            doc["path"] = {**road, key: value}
        return put
    return setter


def _table_s(doc, value):
    # The value is the first knot, or the last after -1 m; the run starts at
    # the first.
    s = [value, value + 1.0] if value <= 0.0 else [-1.0, value]
    doc["path"] = {"kind": "sampled", "table": {"s_m": s, "kappa_per_m": [0.0, 0.001]}}
    doc["initial"]["s_m"] = s[0]


_cosine = _road({"kind": "cosine", "kappa_max_per_m": 0.004, "period_m": 250.0, "periods": 1})
# Each range's key: the commands that read it and where it goes in their config.
_SWEPT = {
    "wheelbase": (_VEHICLE, _set("vehicle", "wheelbase_m")),
    "sensor_offset": (_VEHICLE, _set("vehicle", "sensor_offset_m")),
    "max_steer": (_VEHICLE, _set("vehicle", "max_steer_rad")),
    "speed": (_VEHICLE, _set("vehicle", "speed_mps")),
    "k1": (_VEHICLE, None),
    "k2": (_VEHICLE, None),
    "max_lat_accel": (_SCENARIO_ONLY, _set("control", "max_lat_accel_mps2")),
    "radius": (_SCENARIO_ONLY, _road({"kind": "circular"})("radius_m")),
    "kappa_max": (_SCENARIO_ONLY, _cosine("kappa_max_per_m")),
    "period": (_SCENARIO_ONLY, _cosine("period_m")),
    "periods": (_SCENARIO_ONLY, _cosine("periods")),
    "table s": (_SCENARIO_ONLY, _table_s),
    "table kappa": (_SCENARIO_ONLY, lambda doc, value: doc.update(path={
        "kind": "sampled", "table": {"s_m": [0.0, 10.0, 20.0], "kappa_per_m": [0.0, value, 0.0]}})),
    "x0": (_SCENARIO_ONLY, lambda doc, value: doc["path"].update(anchor={"x_m": value})),
    "y0": (_SCENARIO_ONLY, lambda doc, value: doc["path"].update(anchor={"y_m": value})),
    "psi0": (_SCENARIO_ONLY, lambda doc, value: doc["path"].update(anchor={"heading_rad": value})),
    "initial s": (_SCENARIO_ONLY, _set("initial", "s_m")),
    "initial e": (_SCENARIO_ONLY, _set("initial", "e_m")),
    "initial theta": (_SCENARIO_ONLY, _set("initial", "theta_rad")),
    "dt": (_SCENARIO_ONLY, _set("sim", "dt_s")),
    "t_end": (_SCENARIO_ONLY, _set("sim", "t_end_s")),
    "control_dt": (_SCENARIO_ONLY, _set("sim", "control_dt_s")),
    "settle_threshold": (_SCENARIO_ONLY, _set("sim", "settle_threshold_m")),
    "kappa0": (("stability-map", "freq-response"), _set("kappa0_per_m", 0)),
    "omega": (("freq-response",), _set("omega", "min_rad_s")),
    "resolution": (("stability-map",), _set("grid", "resolution")),
    "points": (("freq-response",), _set("omega", "points")),
}
# Where the gains go for each command.
_GAINS = {"k1": {"stability-map": _set("grid", "k1_min"), "freq-response": _set("gains", 0, "k1"),
                 "simulate": _set("control", "k1"), "compare": _set("control", "k1")},
          "k2": {"stability-map": _set("grid", "k2_max"),
                 "freq-response": _set("gains", 0, "k2_per_m"),
                 "simulate": _set("control", "k2_per_m"), "compare": _set("control", "k2_per_m")}}
_COUNTS = ("periods", "resolution", "points")
# The value set every key is swept at, of either sign.
_MAGNITUDES = (5e-324, 1e-300, 1e-30, 1e-6, 0.5, 1.0, 3.0, 1e6, 1e30, 1e150, 1e300, 1.7e308)


def _values(key: str) -> list:
    lo, hi, _ = _DOCUMENTED[key]
    if key in _COUNTS:
        edges = [int(lo), int(hi), int(lo) - 1, int(hi) + 1]
    else:
        edges = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    return edges + [sign * m for m in _MAGNITUDES for sign in (1.0, -1.0)]


def test_the_readme_table_lists_every_range():
    assert _DOCUMENTED == RANGES


def _sweep_cases():
    rng = random.Random(37)
    for key, (commands, put) in _SWEPT.items():
        for value in _values(key):
            command = rng.choice(commands)
            yield key, value, command, put or _GAINS[key][command]


def test_every_range_edge_and_the_value_set_through_every_command(tmp_path, capsys,
                                                                   record_property):
    # Inside its range a value runs, or meets a documented refusal that is not
    # its range's (exit 2 or 3); outside it exits 2 with the one text form and
    # leaves no --out. No run exits 1, and no numpy warning is raised
    # (pyproject.toml makes one an error).
    cases = list(_sweep_cases())
    outcomes = Counter()
    for i, (key, value, command, put) in enumerate(cases):
        doc = copy.deepcopy(_ANALYSIS if command in ("stability-map", "freq-response")
                            else _SCENARIO)
        put(doc, value)
        config = tmp_path / f"{i}.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / f"{i}" / "out"
        code = main([command, "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        case = (key, value, command, code, err)
        refusal = f"config error: {key} must lie in {_DOCUMENTED[key]}, got "
        lo, hi, _ = _DOCUMENTED[key]
        assert "Traceback" not in err, case
        outcomes[("inside" if lo <= value <= hi else "outside", code)] += 1
        if lo <= value <= hi:
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN), case
            assert refusal not in err and out.exists() == (code == EXIT_OK), case
        else:
            assert code == EXIT_CONFIG and not out.exists(), case
            if key in _COUNTS and value != int(value):
                assert err.endswith(f"must be a whole number, got {value!r}\n"), case
            else:
                assert err == f"{refusal}{int(value) if key in _COUNTS else value!r}\n", case
    assert len(cases) == 28 * len(_SWEPT)
    record_property("outcomes", {f"{side} exit {code}": n for (side, code), n in outcomes.items()})


@pytest.mark.parametrize("value", [*_values("dt"), 50.0])
def test_figs_repro_step_in_and_out_of_its_range(tmp_path, capsys, value):
    # Every step either fails the first preset's config check, out of range
    # naming dt, or in range naming the horizon, the step count or h_max.
    out = tmp_path / "figs"
    assert main(["figs-repro", f"--dt={value!r}", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert not out.exists()
    if _DOCUMENTED["dt"].lo <= value <= _DOCUMENTED["dt"].hi:
        assert any(text in err for text in ("t_end must be finite and exceed dt",
                                             "t_end / dt must lie in", "below h_max")), err
    else:
        assert err == f"config error: dt must lie in {_DOCUMENTED['dt']}, got {value!r}\n"


def test_derived_ranges_hold_at_their_edges():
    # The table's knot step and the run's step count are ranges too.
    # Knots 2e5 m apart span the whole table range, so no wider step is in it.
    for step, ok in ((1e-6, True), (2e5, True), (math.nextafter(1e-6, 0.0), False)):
        make = lambda: PathSpec.sampled([-step / 2, step / 2], [0.0, 0.0])  # noqa: E731
        if ok:
            make()
        else:
            with pytest.raises(ConfigError, match=r"^table s step must lie in "):
                make()
    base = parse_config(yaml.safe_dump(_SCENARIO))
    replace(base, t_end=1e4)
    with pytest.raises(ConfigError, match=r"^t_end / dt must lie in \[1, 1e\+07\], got 10000001\."):
        replace(base, t_end=10000.001)


def _benchmark_inputs(tmp_path, seed: int):
    """Every config the three benchmark workloads generate at ``seed``."""
    sys.path.insert(0, str(_REPO / "perfbench"))
    try:
        import checks
        import workloads
    finally:
        sys.path.pop(0)
    presets = _REPO / "src" / "offsetsteer" / "presets"
    for workload in ("closed_loop", "cli_scenarios", "cli_analysis"):
        work = tmp_path / f"{workload}_{seed}"
        workloads.generate(workload, seed, work, presets)
        inputs = work / "inputs"
        for config in sorted(inputs.glob("*.yaml")):
            yield config.name, parse_config(config.read_text(), base_dir=inputs)
        if workload != "closed_loop":
            continue
        for sc in json.loads((inputs / "scenarios.json").read_text()):
            p = sc["path"]
            anchor = (p["x0"], p["y0"], p["psi0"])
            spec = {"cosine": lambda: PathSpec.cosine(p["kappa_max"], p["period"],
                                                      p["periods"], *anchor),
                    "circular": lambda: PathSpec.circular(p["radius"], *anchor),
                    "straight": lambda: PathSpec.straight(*anchor),
                    "sampled": lambda: load_curvature_table(inputs / p["csv"], *anchor),
                    }[p["kind"]]()
            yield sc["name"], ScenarioConfig(
                path_spec=spec, vehicle=checks.vehicle_params(sc),
                control=ControlConfig(sc["gains"]["k1"], sc["gains"]["k2"],
                                      sc["max_lat_accel"], sc["variant"]),
                initial=PathState(sc["initial"]["s"], sc["initial"]["e"], sc["initial"]["theta"]),
                dt=1e-3, t_end=sc["t_end"], frame=sc["frame"], control_dt=sc["control_dt"])


@pytest.mark.parametrize("seed", [1, 2718])
def test_presets_and_benchmark_inputs_lie_in_every_range(tmp_path, seed):
    # Each config checks its ranges, and h_max, when it is made.
    names = [name for name, _ in _benchmark_inputs(tmp_path, seed)]
    assert len(names) == 17 + 10 + 8
    for name in ("straight_compare", "circular_compare", "varying_curvature_compare",
                 "optimal_gain", "positive_feedback", "stability_map_d2", "stability_map_d3",
                 "freq_response"):
        parse_config(preset_text(name))
