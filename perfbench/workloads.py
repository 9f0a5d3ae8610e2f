"""Seeded inputs for the three benchmark workloads and the operations they time.

Every workload is a *round*: a fixed list of operations whose inputs are
generated once from the seed and written under the run's work directory.
The seed changes the physical parameters (vehicle, gains, roads, initial
errors, grid ranges) but never the amount of work in a round: horizons,
step sizes, grid resolutions and the mix of road kinds, frames and control
periods are fixed, so rounds from different seeds cost about the same.

Ranges come from the paper's scenarios: the 2.57 m hatchback at 20 m/s with
the sensor 2-3 m ahead, gains k1 = -0.8 / -1.285 with k2 = 0.02 1/m, the
positive-feedback pair (0.8, -2.0), 10 m initial offsets, the 200 m ring
road and the 250 m-period cosine road with peak curvature 0.004*pi 1/m.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

DT = 1e-3                  # integration step of every scenario [s]
CLOSED_LOOP_T_END = 2.0    # horizon of a library scenario [s]
WRAP_T_END = 3.0           # horizon of the heading-wrap scenario [s]
CLI_T_END = 3.0            # horizon of a perturbed preset [s]
MAP_RESOLUTIONS = (40, 60, 80, 100)  # one stability map of each per round
FREQ_CONFIGS = 4           # freq-response commands per round
FREQ_POINTS = 400          # frequencies per response
# One perturbed copy of each scenario preset per frame, per round: "both" as
# the presets run, "path" without the earth-frame integration.
CLI_FRAMES = ("both", "path")

SCENARIO_PRESETS = ("straight_compare", "circular_compare",
                    "varying_curvature_compare", "optimal_gain",
                    "positive_feedback")
COMPARE_PRESETS = ("straight_compare", "circular_compare", "varying_curvature_compare")

ROAD_KINDS = ("cosine", "circular", "straight", "sampled")
VARIANTS = ("full", "naive", "unwrapped", "linear")
# (frame, control period in steps); a Latin square over kind x variant gives
# every kind and every variant each combination once per round.
FRAME_HOLD = (("both", 1), ("path", 1), ("both", 10), ("path", 10))

KAPPA_PAPER = 0.004 * math.pi  # peak curvature of the paper's cosine road [1/m]


@dataclass
class Op:
    """One timed operation plus the untimed steps around it.

    ``prepare`` clears what an earlier round left, ``run`` is the timed call
    and ``check`` inspects its result or files and returns an ``Outcome``.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], "Outcome"]
    prepare: Callable[[], None] = lambda: None


@dataclass
class Outcome:
    errors: list[str] = field(default_factory=list)
    digest: bytes = b""     # SHA-256 of the operation's artifacts
    steps: int = 0          # integration steps the operation completed
    csv_rows: int = 0       # CSV data rows it wrote


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"offsetsteer-perfbench/{workload}/{seed}")


def _vehicle(rng: random.Random, offset_range=(1.5, 3.0)) -> dict:
    return {"wheelbase_m": rng.uniform(2.4, 2.9),
            "sensor_offset_m": rng.uniform(*offset_range),
            "max_steer_deg": rng.uniform(25.0, 35.0),
            "speed_mps": rng.uniform(12.0, 25.0)}


def _write_yaml(path: Path, doc: dict) -> None:
    path.write_text(yaml.safe_dump(doc, sort_keys=False))


# -- closed_loop -------------------------------------------------------------

def _sampled_table(rng: random.Random, length: float) -> tuple[list[float], list[float]]:
    """Smooth curvature profile: three sinusoids under the paper's peak."""
    waves = [(rng.uniform(0.2, 1.0), rng.uniform(60.0, 300.0), rng.uniform(0.0, 2 * math.pi))
             for _ in range(3)]
    norm = sum(a for a, _, _ in waves)
    peak = rng.uniform(0.5, 1.0) * KAPPA_PAPER
    s_vals = [5.0 * i for i in range(int(length / 5.0) + 2)]
    k_vals = [peak / norm * sum(a * math.sin(2 * math.pi * s / p + ph) for a, p, ph in waves)
              for s in s_vals]
    return s_vals, k_vals


def generate_closed_loop(seed: int, inputs: Path) -> None:
    rng = _rng("closed_loop", seed)
    scenarios = []
    for (i, kind), (j, variant) in itertools.product(enumerate(ROAD_KINDS),
                                                     enumerate(VARIANTS)):
        frame, hold = FRAME_HOLD[(i + j) % len(FRAME_HOLD)]
        vehicle = _vehicle(rng)
        if kind == "cosine" and variant == "full":
            gains = {"k1": rng.uniform(0.6, 1.0), "k2": rng.uniform(-2.5, -1.5)}
        else:
            gains = {"k1": rng.uniform(-1.4, -0.6), "k2": rng.uniform(0.01, 0.04)}
        path: dict = {"kind": kind}
        if kind == "cosine":
            # One period: the run covers at most 50 m, and a longer road would
            # only add a seed-dependent pose-grid build to the operation.
            path.update(kappa_max=rng.uniform(0.5, 1.0) * KAPPA_PAPER,
                        period=rng.uniform(150.0, 350.0), periods=1)
        elif kind == "circular":
            path.update(radius=rng.uniform(100.0, 400.0))
        elif kind == "sampled":
            # Long enough that no RK4 stage leaves the table.
            length = 1.5 * vehicle["speed_mps"] * CLOSED_LOOP_T_END + 20.0
            s_vals, k_vals = _sampled_table(rng, length)
            table = inputs / f"road_{len(scenarios):02d}.csv"
            with open(table, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["s_meters", "kappa_per_meter"])
                writer.writerows(zip(s_vals, k_vals))
            path["csv"] = table.name
        path.update(x0=rng.uniform(-50.0, 50.0), y0=rng.uniform(-50.0, 50.0),
                    psi0=rng.uniform(-math.pi, math.pi))
        scenarios.append({
            "name": f"{kind}/{variant}/{frame}/hold{hold}",
            "vehicle": vehicle, "gains": gains,
            "max_lat_accel": rng.uniform(3.0, 5.0), "variant": variant,
            "path": path,
            "initial": {"s": 0.0, "e": rng.uniform(-10.0, 10.0),
                        "theta": math.radians(rng.uniform(-10.0, 10.0))},
            "frame": frame, "control_dt": hold * DT, "t_end": CLOSED_LOOP_T_END,
        })
    # Fixed, not seeded: the paper's hatchback facing backwards on the 200 m
    # ring road. The path-frame heading wraps by 2*pi at t ~ 2.7 s while the
    # earth-frame heading does not, so the traced run's
    # sim.frame_heading_gap_rad shows that known defect; positions agree.
    scenarios.append({
        "name": "circular/full/both/hold1/heading-wrap",
        "vehicle": {"wheelbase_m": 2.57, "sensor_offset_m": 2.0,
                    "max_steer_deg": 30.0, "speed_mps": 20.0},
        "gains": {"k1": -0.8, "k2": 0.02}, "max_lat_accel": 4.0, "variant": "full",
        "path": {"kind": "circular", "radius": 200.0, "x0": 0.0, "y0": 0.0, "psi0": 0.0},
        "initial": {"s": 0.0, "e": 10.0, "theta": math.radians(179.0)},
        "frame": "both", "control_dt": DT, "t_end": WRAP_T_END,
    })
    (inputs / "scenarios.json").write_text(json.dumps(scenarios, indent=1))


def closed_loop_ops(inputs: Path, checks) -> list[Op]:
    import offsetsteer
    from offsetsteer import paths, sim

    scenarios = json.loads((inputs / "scenarios.json").read_text())
    ops = []
    for sc in scenarios:
        def run(sc=sc):
            p = sc["path"]
            anchor = (p["x0"], p["y0"], p["psi0"])
            if p["kind"] == "cosine":
                spec = paths.PathSpec.cosine(p["kappa_max"], p["period"], p["periods"], *anchor)
            elif p["kind"] == "circular":
                spec = paths.PathSpec.circular(p["radius"], *anchor)
            elif p["kind"] == "straight":
                spec = paths.PathSpec.straight(*anchor)
            else:
                table = paths.load_curvature_table(inputs / p["csv"])
                spec = paths.PathSpec.sampled(table.table_s, table.table_kappa, *anchor)
            cfg = sim.ScenarioConfig(
                path_spec=spec,
                vehicle=checks.vehicle_params(sc),
                control=offsetsteer.ControlConfig(
                    k1=sc["gains"]["k1"], k2=sc["gains"]["k2"],
                    max_lat_accel=sc["max_lat_accel"], variant=sc["variant"]),
                initial=paths.PathState(sc["initial"]["s"], sc["initial"]["e"],
                                        sc["initial"]["theta"]),
                dt=DT, t_end=sc["t_end"], frame=sc["frame"],
                control_dt=sc["control_dt"])
            return sim.run_scenario(cfg)

        rows = round(sc["t_end"] / DT) + 1
        ops.append(Op(sc["name"], run,
                      lambda result, rows=rows, frame=sc["frame"]:
                          checks.check_trajectory(result, rows, frame)))
    return ops


# -- cli_scenarios -------------------------------------------------------------

def _perturb(rng: random.Random, value: float, spread: float = 0.15) -> float:
    return value * rng.uniform(1.0 - spread, 1.0 + spread)


def generate_cli_scenarios(seed: int, inputs: Path, preset_dir: Path) -> None:
    rng = _rng("cli_scenarios", seed)
    for copy, frame in enumerate(CLI_FRAMES):
        for name in SCENARIO_PRESETS:
            doc = yaml.safe_load((preset_dir / f"{name}.yaml").read_text())
            veh, ctl, path = doc["vehicle"], doc["control"], doc["path"]
            veh["wheelbase_m"] = _perturb(rng, veh["wheelbase_m"], 0.05)
            veh["sensor_offset_m"] = _perturb(rng, veh["sensor_offset_m"])
            veh["speed_mps"] = _perturb(rng, veh["speed_mps"])
            ctl["k1"] = _perturb(rng, ctl["k1"])
            ctl["k2_per_m"] = _perturb(rng, ctl["k2_per_m"])
            ctl["max_lat_accel_mps2"] = _perturb(rng, ctl["max_lat_accel_mps2"])
            for key in ("radius_m", "kappa_max_per_m", "period_m"):
                if key in path:
                    path[key] = _perturb(rng, path[key])
            if "periods" in path:
                # One period (about 250 m) already outlasts the run (at most
                # about 75 m). The presets' four would make the pose-grid
                # build a large share of the operation, not the ~1% it is in
                # a full-length preset run.
                path["periods"] = 1
            doc["initial"] = {"s_m": 0.0, "e_m": rng.uniform(-10.0, 10.0),
                              "theta_deg": rng.uniform(-10.0, 10.0)}
            doc["sim"] = {"dt_s": DT, "t_end_s": CLI_T_END, "frame": frame}
            _write_yaml(inputs / f"{name}_{copy}.yaml", doc)


def cli_scenario_ops(inputs: Path, out_root: Path, checks) -> list[Op]:
    from offsetsteer import cli

    ops = []
    for config in sorted(inputs.glob("*.yaml")):
        doc = yaml.safe_load(config.read_text())
        preset = config.stem.rsplit("_", 1)[0]
        command = "compare" if preset in COMPARE_PRESETS else "simulate"
        out = out_root / config.stem
        argv = [command, "--config", str(config), "--out", str(out)]
        variants = tuple(doc.get("variants") or ()) if command == "compare" else None
        expected = round(CLI_T_END / DT) + 1
        ops.append(Op(f"{command}:{config.stem}", lambda argv=argv: cli.main(argv),
                      lambda code, out=out, variants=variants:
                          checks.check_scenario_dir(code, out, expected, variants),
                      lambda out=out: checks.clear(out)))
    return ops


# -- cli_analysis --------------------------------------------------------------

def _kappa0(rng: random.Random, vehicle: dict):
    if rng.random() < 0.5:
        return "auto"
    t = math.tan(math.radians(vehicle["max_steer_deg"]))
    kbar = t / math.hypot(vehicle["wheelbase_m"], vehicle["sensor_offset_m"] * t)
    return sorted(rng.uniform(-0.95, 0.95) * kbar for _ in range(3))


def generate_cli_analysis(seed: int, inputs: Path) -> None:
    rng = _rng("cli_analysis", seed)
    resolutions = list(MAP_RESOLUTIONS)
    rng.shuffle(resolutions)
    for i, res in enumerate(resolutions):
        vehicle = _vehicle(rng, (0.5, 4.0))
        doc = {"vehicle": vehicle,
               "grid": {"k1_min": -rng.uniform(1.0, 4.0), "k1_max": rng.uniform(1.0, 4.0),
                        "k2_min": -rng.uniform(1.0, 4.0), "k2_max": rng.uniform(1.0, 4.0),
                        "resolution": res},
               "kappa0_per_m": _kappa0(rng, vehicle)}
        _write_yaml(inputs / f"map_{i}.yaml", doc)
    for i in range(FREQ_CONFIGS):
        vehicle = _vehicle(rng, (0.5, 4.0))
        gains = [{"k1": rng.uniform(-2.0, -0.3), "k2_per_m": rng.uniform(0.005, 0.1)},
                 {"k1": -vehicle["wheelbase_m"] / vehicle["sensor_offset_m"],
                  "k2_per_m": rng.uniform(0.005, 0.1)},
                 {"k1": rng.uniform(0.3, 1.2), "k2_per_m": rng.uniform(-3.0, -1.0)}]
        doc = {"vehicle": vehicle, "gains": gains, "kappa0_per_m": _kappa0(rng, vehicle),
               "omega": {"min_rad_s": 10.0 ** rng.uniform(-4.0, -2.0),
                         "max_rad_s": 10.0 ** rng.uniform(2.0, 4.0),
                         "points": FREQ_POINTS}}
        _write_yaml(inputs / f"freq_{i}.yaml", doc)


def cli_analysis_ops(inputs: Path, out_root: Path, checks, seed: int) -> list[Op]:
    from offsetsteer import cli

    ops = []
    for config in sorted(inputs.glob("*.yaml")):
        doc = yaml.safe_load(config.read_text())
        out = out_root / config.stem
        if config.stem.startswith("map_"):
            argv = ["stability-map", "--config", str(config), "--out", str(out)]
            check = (lambda code, out=out, doc=doc, name=config.stem:
                     checks.check_map_dir(code, out, doc, f"{seed}/{name}"))
        else:
            argv = ["freq-response", "--config", str(config), "--out", str(out)]
            check = lambda code, out=out, doc=doc: checks.check_freq_dir(code, out, doc)
        ops.append(Op(f"{argv[0]}:{config.stem}", lambda argv=argv: cli.main(argv),
                      check, lambda out=out: checks.clear(out)))
    return ops


def generate(workload: str, seed: int, work: Path, preset_dir: Path) -> None:
    """Write the workload's inputs for ``seed`` under ``work/inputs``."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "closed_loop":
        generate_closed_loop(seed, inputs)
    elif workload == "cli_scenarios":
        generate_cli_scenarios(seed, inputs, preset_dir)
    else:
        generate_cli_analysis(seed, inputs)


def build_ops(workload: str, seed: int, work: Path, checks) -> list[Op]:
    """The round of operations over the inputs ``generate`` wrote."""
    inputs = work / "inputs"
    if workload == "closed_loop":
        return closed_loop_ops(inputs, checks)
    if workload == "cli_scenarios":
        return cli_scenario_ops(inputs, work / "out", checks)
    return cli_analysis_ops(inputs, work / "out", checks, seed)
