"""Shared fixtures: benchmark vehicle, cached closed-loop runs, a scalar pose
oracle, the digests of a figs-repro run and a fresh interpreter."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from bisect import bisect_right
from pathlib import Path as FsPath

import pytest

from offsetsteer import (ControlConfig, PathSpec, PathState, ScenarioConfig,
                         VehicleParams, run_scenario)

# Benchmark vehicle (compact hatchback) and gains used across the suite.
WHEELBASE = 2.57          # [m]
SENSOR_OFFSET = 2.0       # [m]
MAX_STEER_DEG = 30.0
SPEED = 20.0              # [m/s]
K1 = -0.8
K2 = 0.02                 # [1/m]
MAX_LAT_ACCEL = 4.0       # [m/s^2]

COSINE_KAPPA_MAX = 0.004 * math.pi  # [1/m]
COSINE_PERIOD = 250.0               # [m]
COSINE_PERIODS = 4
CIRCLE_RADIUS = 200.0               # [m]

# A seeded draw of accepted configs: between two steps at t = 3.67 s,
# 1 - e*kappa goes from +0.0286 to -0.0125 without entering the guard band
# of either sign; a stage of the step lands past zero and the run stops there.
CROSSING_YAML = textwrap.dedent("""\
    vehicle: {wheelbase_m: 2.5973408861940053, sensor_offset_m: 2.598401855734136,
              max_steer_rad: 0.26921200171443516, speed_mps: 27.68874652414949}
    control: {k1: 0.7688763009017605, k2_per_m: -0.2527665413467767,
              max_lat_accel_mps2: 3.045401513543318, variant: full}
    path: {kind: cosine, kappa_max_per_m: 0.017894875655174083,
           period_m: 307.7529032367293, periods: 1}
    initial: {s_m: 0.0, e_m: -0.7431503053261856, theta_rad: 1.0038152436998642}
    sim: {dt_s: 0.002148035831934253, t_end_s: 4.2960716638685055, frame: both}
    """)


# The figs-repro run that tests/golden/figs_repro.sha256 pins, one
# "<sha256>  <path>" line per artifact; tests/golden/regenerate.py rewrites it.
# At --dt 0.01 it runs the default step's code at about a fifth of the cost.
FIGS_REPRO_GOLDEN_ARGS = ("figs-repro", "--dt", "0.01")
FIGS_REPRO_GOLDEN = FsPath(__file__).resolve().parent / "golden" / "figs_repro.sha256"
# The pose grid's accuracy table; tests/golden/pose_accuracy.py rewrites it.
POSE_ACCURACY = FsPath(__file__).resolve().parent / "golden" / "pose_accuracy.csv"


def figs_repro_digests(out: FsPath) -> dict[str, str]:
    """{path relative to ``out``: SHA-256} of every file of a ``figs-repro`` run.

    A manifest is hashed as ``json.dumps(doc, sort_keys=True, indent=2)``
    without its ``wall_clock_s``, the one field that differs between runs.
    """
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                doc = json.loads(data)
                del doc["wall_clock_s"]
                data = json.dumps(doc, sort_keys=True, indent=2).encode()
            digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def run_python(*args, cwd=None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the package from this
    checkout's ``src``, whether or not it is installed or on PATH."""
    src = str(FsPath(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def benchmark_params(**overrides) -> VehicleParams:
    values = dict(wheelbase=WHEELBASE, sensor_offset=SENSOR_OFFSET,
                  max_steer=math.radians(MAX_STEER_DEG), speed=SPEED)
    values.update(overrides)
    return VehicleParams(**values)


def benchmark_control(variant="full", k1=K1, k2=K2) -> ControlConfig:
    return ControlConfig(k1=k1, k2=k2, max_lat_accel=MAX_LAT_ACCEL, variant=variant)


def cosine_spec() -> PathSpec:
    return PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS)


def make_scenario(path_spec: PathSpec, variant="full", k1=K1, k2=K2,
                  dt=1e-3, control_dt=None, t_end=None,
                  initial=PathState(0.0, -10.0, 0.0)) -> ScenarioConfig:
    return ScenarioConfig(path_spec=path_spec, vehicle=benchmark_params(),
                          control=benchmark_control(variant, k1, k2),
                          initial=initial, dt=dt, control_dt=control_dt,
                          t_end=t_end, frame="both")


def reference_pose(path, s: float) -> tuple[float, float, float]:
    """Path.pose at one arc length in scalar math, kept apart from the library.

    The straight and circular closed forms; on the cosine road the straight
    continuations before its start and past its end, the closed-form heading
    and period k as period 0 turned by k periods and moved to where period k
    starts; on the sampled road the heading from the interval's quartic
    antiderivative; and on both Horner's rule on the pose grid's quintics
    (``path._grid``, filled whole first, since it fills on demand). Each is
    written as scalar ``math`` expressions in the library's order; the
    sampled road's PCHIP coefficients are read from the road.
    """
    spec = path.spec
    if spec.kind == "straight":
        return (spec.x0 + s * math.cos(spec.psi0),
                spec.y0 + s * math.sin(spec.psi0),
                spec.psi0)
    if spec.kind == "circular":
        rho = spec.radius
        psi = spec.psi0 + s / rho
        return (spec.x0 + rho * (math.sin(psi) - math.sin(spec.psi0)),
                spec.y0 - rho * (math.cos(psi) - math.cos(spec.psi0)),
                psi)
    grid = path._grid
    grid.fill(grid.n)
    if spec.kind == "sampled":
        qx, qy = _reference_grid_position(grid, s)
        knots = spec.table_s
        j = min(max(bisect_right(knots, s) - 1, 0), len(knots) - 2)
        psi = spec.psi0
        for i, (start, _, c0, c1, c2, c3) in enumerate(path._intervals[:j + 1]):
            u = (s if i == j else knots[i + 1]) - start
            psi = psi + u * (c3 / 1.0 + u * (c2 / 2.0 + u * (c1 / 3.0 + u * (c0 / 4.0))))
        return spec.x0 + qx, spec.y0 + qy, psi
    s_end = spec.periods * spec.period
    if s < 0.0:
        return (spec.x0 + s * math.cos(spec.psi0),
                spec.y0 + s * math.sin(spec.psi0),
                spec.psi0)
    if s > s_end:
        xe, ye, pe = reference_pose(path, s_end)
        ds = s - s_end
        return (xe + ds * math.cos(pe), ye + ds * math.sin(pe), pe)
    s = s + 0.0
    period, half_kappa_max = spec.period, 0.5 * spec.kappa_max
    omega = 2.0 * math.pi / period
    q = s / period
    k = min(math.copysign(math.floor(q), q), spec.periods)
    qx, qy = _reference_grid_position(grid, min(max(s - k * period, 0.0), period))
    # Where period k starts: the period chord turned by j periods, summed over
    # j < k by blocks of 2**m periods, one per binary digit of k.
    turn = half_kappa_max * period
    blocks = [grid.end()]
    for m in range(int(spec.periods).bit_length()):
        bx, by = blocks[m]
        c, sn = math.cos((1 << m) * turn), math.sin((1 << m) * turn)
        blocks.append((bx + (c * bx - sn * by), by + (sn * bx + c * by)))
    k = int(k)
    sx = sy = 0.0
    j = 0
    for m in reversed(range(k.bit_length())):
        if k >> m & 1:
            bx, by = blocks[m]
            c, sn = math.cos(j * turn), math.sin(j * turn)
            sx, sy = sx + (c * bx - sn * by), sy + (sn * bx + c * by)
            j += 1 << m
    c, sn = math.cos(k * turn), math.sin(k * turn)
    return (spec.x0 + (sx + (c * qx - sn * qy)),
            spec.y0 + (sy + (sn * qx + c * qy)),
            spec.psi0 + half_kappa_max * (s - math.sin(omega * s) / omega))


def _reference_grid_position(grid, s: float) -> tuple[float, float]:
    """The pose grid's position at s, relative to its first node: Horner's
    rule on the quintic of the segment that holds s."""
    breaks = grid.breaks.tolist()
    j = min(max(bisect_right(breaks, s) - 1, 0), len(breaks) - 2)
    u = (s - breaks[j]) / float(grid.h[j])
    k = int(min(max(u, 0.0), int(grid.counts[j]) - 1))
    t = u - k
    x0, x1, x2, x3, x4, x5, y0, y1, y2, y3, y4, y5 = grid.coef[:, int(grid.first[j]) + k].tolist()
    return (x0 + t * (x1 + t * (x2 + t * (x3 + t * (x4 + t * x5)))),
            y0 + t * (y1 + t * (y2 + t * (y3 + t * (y4 + t * y5)))))


def reference_to_earth(path, ps: PathState) -> tuple[float, float, float]:
    """Path.to_earth of one path-frame state through ``reference_pose``."""
    xd, yd, psid = reference_pose(path, ps.s)
    return (xd - ps.e * math.sin(psid),
            yd + ps.e * math.cos(psid),
            psid + ps.theta)


# Every standard study scenario, built lazily and cached for the session.
_SCENARIOS = {
    "straight_full": lambda: make_scenario(PathSpec.straight(), "full"),
    "straight_naive": lambda: make_scenario(PathSpec.straight(), "naive"),
    "circular_full": lambda: make_scenario(PathSpec.circular(CIRCLE_RADIUS), "full"),
    "circular_naive": lambda: make_scenario(PathSpec.circular(CIRCLE_RADIUS), "naive"),
    "cosine_full": lambda: make_scenario(cosine_spec(), "full"),
    "cosine_naive": lambda: make_scenario(cosine_spec(), "naive"),
    "cosine_optimal": lambda: make_scenario(
        cosine_spec(), "full", k1=-WHEELBASE / SENSOR_OFFSET),
    "cosine_positive": lambda: make_scenario(cosine_spec(), "full", k1=0.8, k2=-2.0),
    # Same sampled-data system as cosine_full (1 ms steering updates) but
    # integrated at half the step, for convergence checks.
    "cosine_full_dt_half": lambda: make_scenario(
        cosine_spec(), "full", dt=5e-4, control_dt=1e-3),
}


@pytest.fixture(scope="session")
def runs():
    """Session-cached scenario runner: runs('name') -> (Trajectory, metrics)."""
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = run_scenario(_SCENARIOS[name]())
        return cache[name]

    return get


@pytest.fixture(scope="session")
def params() -> VehicleParams:
    return benchmark_params()
