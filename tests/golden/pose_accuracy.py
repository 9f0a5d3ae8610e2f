"""Rewrite tests/golden/pose_accuracy.csv, the pose grid's accuracy table.

    PYTHONPATH=src python tests/golden/pose_accuracy.py

For each road below, the table gives the worst position error [m] and the
worst heading error [rad] of the road's pose against scipy.integrate.quad,
at seeded arc lengths on the road: first for the grid the pose grid replaced
(grid ``old``: RK4 nodes every 0.01 m from the road's start, the heading
integrated too, cubic Hermite between nodes), then for ``Path.pose`` at
each candidate step (grid ``new``). ``paths.POSE_GRID_STEP`` is the largest
candidate step whose errors on every road are at most the old grid's;
tests/test_paths.py checks that against this file. Errors are written to two
significant digits.
"""

import csv
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from conftest import COSINE_KAPPA_MAX, COSINE_PERIOD, POSE_ACCURACY  # noqa: E402
from offsetsteer import PathSpec, build_path, paths  # noqa: E402

OLD_STEP = 0.01  # [m]
STEPS = (0.1, 0.2, 0.5, 1.0, 2.0)  # [m]
QUERIES = 1000


def _rough_table():
    """201 knots 5 m apart with seeded curvatures up to 0.01 1/m."""
    rng = np.random.default_rng(36)
    return np.arange(201) * 5.0, rng.uniform(-0.01, 0.01, 201)


def _uneven_table():
    """Knots from 3 cm to 12 m apart, some shorter than a grid step."""
    rng = np.random.default_rng(37)
    gaps = rng.choice([0.03, 0.37, 1.9, 5.0, 12.0], 120)
    return np.concatenate(([0.0], np.cumsum(gaps))), rng.uniform(-0.008, 0.008, 121)


def _smooth_table():
    """The paper's cosine road tabulated every 5 m."""
    s = np.arange(0.0, 1001.0, 5.0)
    return s, 0.5 * COSINE_KAPPA_MAX * (1.0 - np.cos(2.0 * math.pi / COSINE_PERIOD * s))


# (road, spec, first and last arc length queried)
ROADS = [
    ("cosine", PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, 4, 3.0, -2.0, 0.4), 0.0, 1000.0),
    # The last period of a 5 km road, which the grid reaches by turning
    # period 0; the old grid filled the 19 periods before it.
    ("cosine-5km-last-period", PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, 20),
     4750.0, 5000.0),
    # A tight road: 10 m radius at the peak, 50 m periods.
    ("cosine-tight", PathSpec.cosine(0.1, 50.0, 4), 0.0, 200.0),
    ("sampled-rough", PathSpec.sampled(*_rough_table(), 1.0, 2.0, -0.3), 0.0, 1000.0),
    ("sampled-uneven", PathSpec.sampled(*_uneven_table()), 0.0, None),
    ("sampled-smooth", PathSpec.sampled(*_smooth_table()), 0.0, 1000.0),
]


def _exact(spec):
    """Curvature and heading as functions of s: the cosine road's closed forms,
    or scipy's PCHIP of the table and its antiderivative."""
    if spec.kind == "cosine":
        omega = 2.0 * math.pi / spec.period

        def kappa(s):
            return 0.5 * spec.kappa_max * (1.0 - np.cos(omega * s))

        def heading(s):
            return spec.psi0 + 0.5 * spec.kappa_max * (s - np.sin(omega * s) / omega)
        return kappa, heading, 0.0, spec.periods * spec.period, []
    pchip = PchipInterpolator(spec.table_s, spec.table_kappa)
    turn = pchip.antiderivative()
    start = spec.table_s[0]
    return (pchip, lambda s: spec.psi0 + (turn(s) - turn(start)), start, spec.table_s[-1],
            list(spec.table_s))


def _quadrature(spec, s):
    """Pose at each sorted arc length of ``s`` by quad over the pieces between
    them, the knots and whole metres, summed with math.fsum."""
    kappa, heading, start, _, knots = _exact(spec)
    cuts = sorted({start, *s, *(k for k in knots if k <= s[-1]),
                   *np.arange(math.ceil(start), s[-1]).tolist()})
    pieces = [[quad(f, a, b, epsabs=1e-15, epsrel=1e-13)[0] for a, b in zip(cuts, cuts[1:])]
              for f in (lambda t: math.cos(heading(t)), lambda t: math.sin(heading(t)), kappa)]
    at = {c: i for i, c in enumerate(cuts)}
    out = []
    for v in s:
        n = at[v]
        out.append((spec.x0 + math.fsum(pieces[0][:n]), spec.y0 + math.fsum(pieces[1][:n]),
                    spec.psi0 + math.fsum(pieces[2][:n])))
    return np.array(out).T


def _old_pose(spec, s):
    """The replaced grid: RK4 on (psi, x, y) every 0.01 m from the road's start
    (psi' = kappa(s), so its increments are Simpson's rule), running sums,
    and cubic Hermite between the nodes."""
    kappa, _, start, end, _ = _exact(spec)
    n = max(1, math.ceil((end - start) / OLD_STEP - 1e-9))
    h = (end - start) / n
    nodes = start + h * np.arange(n + 1)
    k, k_half = kappa(nodes), kappa(nodes[:-1] + 0.5 * h)
    psi = np.concatenate(([spec.psi0], np.cumsum(h * (k[:-1] + 4.0 * k_half + k[1:]) / 6.0)
                          + spec.psi0))
    stages = (psi[:-1], psi[:-1] + 0.5 * h * k[:-1], psi[:-1] + 0.5 * h * k_half,
              psi[:-1] + h * k_half)
    x, y = (np.concatenate(([a], np.cumsum(h * (f(stages[0]) + 2.0 * f(stages[1])
                                                 + 2.0 * f(stages[2]) + f(stages[3])) / 6.0) + a))
            for f, a in ((np.cos, spec.x0), (np.sin, spec.y0)))
    u = (s - start) / h
    j = np.clip(u, 0, n - 1).astype(np.intp)
    u = u - j
    h00, h10 = 2.0 * u**3 - 3.0 * u**2 + 1.0, u**3 - 2.0 * u**2 + u
    h01, h11 = -2.0 * u**3 + 3.0 * u**2, u**3 - u**2
    return (h00 * x[j] + h10 * h * np.cos(psi[j]) + h01 * x[j + 1] + h11 * h * np.cos(psi[j + 1]),
            h00 * y[j] + h10 * h * np.sin(psi[j]) + h01 * y[j + 1] + h11 * h * np.sin(psi[j + 1]),
            h00 * psi[j] + h10 * h * k[j] + h01 * psi[j + 1] + h11 * h * k[j + 1])


def _errors(pose, exact):
    x, y, psi = pose
    return (float(np.max(np.hypot(x - exact[0], y - exact[1]))),
            float(np.max(np.abs(psi - exact[2]))))


def rows():
    for road, spec, lo, hi in ROADS:
        hi = spec.table_s[-1] if hi is None else hi
        rng = np.random.default_rng(sum(map(ord, road)))
        s = np.unique(np.concatenate(([lo, hi], rng.uniform(lo, hi, QUERIES))))
        exact = _quadrature(spec, s.tolist())
        yield road, "old", OLD_STEP, *_errors(_old_pose(spec, s), exact)
        for step in STEPS:
            with mock.patch.object(paths, "POSE_GRID_STEP", step):
                path = build_path(spec)
            yield road, "new", step, *_errors(path.pose(s), exact)


if __name__ == "__main__":
    with open(POSE_ACCURACY, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["road", "grid", "step_m", "position_error_m", "heading_error_rad"])
        for road, grid, step, position, heading in rows():
            writer.writerow([road, grid, step, f"{position:.2g}", f"{heading:.2g}"])
    print(f"pose accuracy table written to {POSE_ACCURACY}")
