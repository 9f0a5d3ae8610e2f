"""Output checks for every benchmark operation.

The oracles do not reuse the code path being timed: trajectories are checked
for shape and finiteness and the two integration frames against each other;
CSV files are re-read from disk and counted; the stability column of the gain
map is compared with ``numpy.linalg.eigvals`` of the linearized state matrix;
and sampled amplification ratios are compared with the resolvent
omega * |c (j*omega*I - A)^-1 b| of the same matrices and with the closed-form peak.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

from offsetsteer.analysis import linearize
from offsetsteer.bicycle import VehicleParams
from workloads import FREQ_POINTS, Outcome

# Largest accepted gap between the path-frame and earth-frame positions; the
# acceptance suite holds the standard scenarios to the same bound.
FRAME_GAP_TOL_M = 1e-6

TRAJECTORY_HEADER = "t,s_D,e_D,theta_D,theta_0,theta_hat,gamma_des,gamma_ff,gamma_fb,x_A,y_A,psi,kappa_D"
MAP_HEADER = "k1,k2,kappa0,stable,marginal,M_max,omega_m"
POINTS_HEADER = "index,k1,k2_per_m,kappa0_per_m,stable,m_max_m2,omega_m_rad_s"
DELTA_SIGNALS = 12     # trajectory columns other than t
MAP_SAMPLE = 40        # gain-map cells checked against the eigenvalues
EIG_TOL = 1e-9         # eigenvalue real parts this close to 0 are not judged
PEAK_RTOL = 1e-9       # sampled M may exceed M_max by rounding only ...
PEAK_ATOL = 1e-12      # ... also where M_max is 0 (k1 = -l/d, kappa0 = 0) [m^2]
RESOLVENT_RTOL = 1e-6


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def _digest_files(root: Path) -> bytes:
    """SHA-256 over every artifact except the manifest, which holds a wall clock."""
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "manifest.json"):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.digest()


def _read_csv(path: Path, header: str, rows: int, errors: list[str]) -> np.ndarray | None:
    if not path.is_file():
        errors.append(f"{path.name}: missing")
        return None
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        errors.append(f"{path.name}: header {first!r}, expected {header!r}")
        return None
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != rows:
        errors.append(f"{path.name}: {data.shape[0]} rows, expected {rows}")
        return None
    return data


def _check_manifest(out: Path, errors: list[str]) -> None:
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"manifest.json: {exc}")
        return
    if manifest.get("exit_status") != 0:
        errors.append(f"manifest.json: exit_status {manifest.get('exit_status')}")
    listed = set(manifest.get("outputs", ()))
    present = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    if listed != present:
        errors.append(f"manifest.json: outputs {sorted(listed ^ present)} listed or "
                      "present but not both")


def vehicle_params(doc: dict) -> VehicleParams:
    v = doc["vehicle"]
    return VehicleParams(wheelbase=v["wheelbase_m"], sensor_offset=v["sensor_offset_m"],
                         max_steer=math.radians(v["max_steer_deg"]), speed=v["speed_mps"])


def _resolvent_gain(kappa0: float, k1: float, k2: float, params: VehicleParams,
                    omega: np.ndarray) -> np.ndarray:
    """|c (jwI - A)^-1 b| * w: the model's input is the curvature *rate*."""
    model = linearize(kappa0, k1, k2, params)
    eye = np.eye(2)
    return np.array([w * abs(model.c @ np.linalg.solve(1j * w * eye - model.a, model.b))
                     for w in omega])


def _n_kappa0(doc: dict) -> int:
    raw = doc.get("kappa0_per_m", "auto")
    return 3 if raw == "auto" else len(raw)


# -- closed_loop ---------------------------------------------------------------

def check_trajectory(result, rows: int, frame: str) -> Outcome:
    """Library result: shapes, finiteness and the earth/path frame gap."""
    traj, metrics = result
    errors: list[str] = []
    h = hashlib.sha256()
    arrays = dict(traj.signals())
    if frame == "both":
        arrays.update(earth_x=traj.earth_x, earth_y=traj.earth_y, earth_psi=traj.earth_psi)
    for name, values in arrays.items():
        if values is None or values.shape != (rows,):
            errors.append(f"{name}: shape {None if values is None else values.shape}, "
                          f"expected ({rows},)")
            continue
        if not np.all(np.isfinite(values)):
            errors.append(f"{name}: non-finite values")
        h.update(values.tobytes())
    h.update(repr(sorted(metrics.as_dict().items())).encode())
    if frame == "both" and not errors:
        # The heading gap is reported by the traced run, not checked: it shows
        # the known 2*pi wrap of the path-frame heading instead of hiding it.
        pos_gap, _ = traj.frame_mismatch()
        if not pos_gap < FRAME_GAP_TOL_M:
            errors.append(f"earth/path position gap {pos_gap:.3g} m >= {FRAME_GAP_TOL_M} m")
    return Outcome(errors, h.digest(), steps=rows - 1)


# -- cli_scenarios -------------------------------------------------------------

def check_scenario_dir(code: int, out: Path, rows: int, variants) -> Outcome:
    """simulate (``variants`` None) or compare output directory."""
    errors: list[str] = []
    if code != 0:
        return Outcome([f"exit code {code}"])
    dirs = [out] if variants is None else [out / v for v in variants]
    outcome = Outcome(errors)
    for d in dirs:
        data = _read_csv(d / "trajectory.csv", TRAJECTORY_HEADER, rows, errors)
        if data is not None:
            if not np.all(np.isfinite(data)):
                errors.append(f"{d.name}/trajectory.csv: non-finite values")
            outcome.steps += rows - 1
            outcome.csv_rows += rows
        try:
            keys = set(json.loads((d / "metrics.json").read_text()))
        except (OSError, ValueError) as exc:
            errors.append(f"{d.name}/metrics.json: {exc}")
        else:
            if "saturation_fraction" not in keys or "settling_time_s" not in keys:
                errors.append(f"{d.name}/metrics.json: keys {sorted(keys)}")
        if not (d / "metrics.txt").is_file():
            errors.append(f"{d.name}/metrics.txt: missing")
    if variants is not None:
        if (out / "failures.json").is_file():
            errors.append(f"failures.json: {(out / 'failures.json').read_text().strip()}")
        delta_rows = (len(variants) - 1) * DELTA_SIGNALS
        with open(out / "deltas.csv") as fh:
            lines = fh.read().splitlines()
        if lines[:1] != ["variant,signal,max_abs_delta"] or len(lines) - 1 != delta_rows:
            errors.append(f"deltas.csv: {len(lines) - 1} rows, expected {delta_rows}")
        outcome.csv_rows += delta_rows
    _check_manifest(out, errors)
    outcome.digest = _digest_files(out)
    return outcome


# -- cli_analysis --------------------------------------------------------------

def check_map_dir(code: int, out: Path, doc: dict, sample_key: str) -> Outcome:
    """Row count, then a seeded sample of cells against numpy eigenvalues."""
    if code != 0:
        return Outcome([f"exit code {code}"])
    errors: list[str] = []
    res = doc["grid"]["resolution"]
    rows = _n_kappa0(doc) * res * res
    data = _read_csv(out / "stability_map.csv", MAP_HEADER, rows, errors)
    if data is not None:
        params = vehicle_params(doc)
        rng = random.Random(sample_key)
        omega_grid = np.logspace(-3, 3, 61)
        for idx in rng.sample(range(rows), MAP_SAMPLE):
            k1, k2, kappa0, stable, marginal, m_max, _ = data[idx]
            if marginal:
                continue
            eig = np.linalg.eigvals(linearize(kappa0, k1, k2, params).a)
            top = float(eig.real.max())
            if abs(top) <= EIG_TOL * max(1.0, float(np.abs(eig).max())):
                continue
            if bool(stable) != (top < 0.0):
                errors.append(f"cell k1={k1:.6g} k2={k2:.6g} kappa0={kappa0:.6g}: "
                              f"stable={int(stable)} but max Re(eig)={top:.6g}")
            elif stable:
                gain = _resolvent_gain(kappa0, k1, k2, params, omega_grid).max()
                if not gain <= m_max * (1.0 + PEAK_RTOL) + PEAK_ATOL:
                    errors.append(f"cell k1={k1:.6g} k2={k2:.6g}: sampled M {gain:.9g} "
                                  f"> M_max {m_max:.9g}")
    _check_manifest(out, errors)
    return Outcome(errors, _digest_files(out), csv_rows=rows)


def check_freq_dir(code: int, out: Path, doc: dict) -> Outcome:
    """Every response file, its peak bound and a resolvent spot check."""
    if code != 0:
        return Outcome([f"exit code {code}"])
    errors: list[str] = []
    n_points = len(doc["gains"]) * _n_kappa0(doc)
    points = _read_csv(out / "points.csv", POINTS_HEADER, n_points, errors)
    outcome = Outcome(errors, csv_rows=n_points)
    if points is not None:
        params = vehicle_params(doc)
        for index, k1, k2, kappa0, stable, m_max, _ in points:
            name = f"freq_response_{int(index):02d}.csv"
            resp = _read_csv(out / name, "omega_rad_s,M", FREQ_POINTS, errors)
            if resp is None:
                continue
            outcome.csv_rows += FREQ_POINTS
            if not stable:
                continue
            omega, mag = resp[:, 0], resp[:, 1]
            if not (np.all(np.isfinite(mag))
                    and mag.max() <= m_max * (1.0 + PEAK_RTOL) + PEAK_ATOL):
                errors.append(f"{name}: stable point with M up to {mag.max():.9g} "
                              f"> M_max {m_max:.9g}")
            spot = slice(0, FREQ_POINTS, FREQ_POINTS // 8)
            ref = _resolvent_gain(kappa0, k1, k2, params, omega[spot])
            if not np.allclose(mag[spot], ref, rtol=RESOLVENT_RTOL, atol=1e-12):
                errors.append(f"{name}: M differs from the resolvent by up to "
                              f"{np.abs(mag[spot] - ref).max():.3g}")
    _check_manifest(out, errors)
    outcome.digest = _digest_files(out)
    return outcome
