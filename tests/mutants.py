"""The mutant suite: each listed mutant must make its test selection fail.

A mutant is one exact replacement in one file under ``src/``, and the pytest
selection that must catch it. For each, the runner copies ``src/`` to a
temporary directory, applies the replacement (an old text that is not there
exactly once fails the runner, so a refactor must update the list), and runs
the selection in a fresh process with ``PYTHONPATH`` on the copy. It requires
pytest's exit status 1, tests that failed, not a collection or usage error.

Run it from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py 3 7        # mutants 3 and 7 (their list positions)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str        # under src/offsetsteer
    old: str         # exact text, present once
    new: str
    selection: str   # pytest node ids or -k expression, space separated
    why: str         # the tie it breaks


MUTANTS = (
    # The steering law: its homes and the bound closures.
    Mutant("steering.py",
           "scale = 2.0 * max_allowable_steer(params, cfg.max_lat_accel) / math.pi",
           "scale = 2.0 / math.pi * max_allowable_steer(params, cfg.max_lat_accel)",
           "tests/test_steering.py::test_bound_law_equals_the_law_composed_from_its_homes",
           "the wrapper's scale in another order"),
    Mutant("steering.py",
           "gamma_ff = atan(wheelbase * kappa / sqrt(1.0 - dk * dk))",
           "gamma_ff = atan(wheelbase * kappa / sqrt((1.0 - dk) * (1.0 + dk)))",
           "tests/test_steering.py::test_bound_law_equals_the_law_composed_from_its_homes",
           "the full closure's feedforward factored"),
    # The PCHIP: scipy's, the array evaluation and the scalar lookup.
    Mutant("paths.py", "        d[mask] = 0.\n", "        d[mask] = d[mask]\n",
           "tests/test_paths.py::test_sampled_curvature_equals_pchip_exactly",
           "the first end-rule fix dropped"),
    Mutant("paths.py", "        d[mmm] = 3. * m0[mmm]\n", "        d[mmm] = d[mmm]\n",
           "tests/test_paths.py::test_sampled_curvature_equals_pchip_exactly",
           "the second end-rule fix dropped"),
    Mutant("paths.py",
           '    j = np.clip(np.searchsorted(knots, s, "right") - 1, 0, knots.size - 2)\n'
           "    # np.take gathers",
           '    j = np.clip(np.searchsorted(knots, s, "left") - 1, 0, knots.size - 2)\n'
           "    # np.take gathers",
           "tests/test_paths.py::test_sampled_curvature_equals_pchip_exactly",
           "the array lookup picks the interval left of a knot"),
    Mutant("paths.py",
           "    u2 = u * u\n    return c3 + c2 * u + c1 * u2 + c0 * (u2 * u)",
           "    return c3 + u * (c2 + u * (c1 + u * c0))",
           "tests/test_paths.py::test_sampled_curvature_equals_pchip_exactly",
           "Horner's order in the array sum"),
    Mutant("paths.py", "dk = np.array([mk[0], mk[0]])", "dk = np.array([mk[0], 0.0])",
           "tests/test_paths.py::test_sampled_curvature_equals_pchip_exactly",
           "a two-row table's end slope set to 0"),
    # The pose grid's growth: one segment fewer copied in _PoseGrid.fill.
    Mutant("paths.py", "grown[:, :a] = self.coef[:, :a]",
           "grown[:, :a - 1] = self.coef[:, :a - 1]",
           "tests/test_paths.py::test_pose_grid_fills_on_demand_bit_for_bit",
           "the grid's growth drops a filled segment"),
    # The scalar lookup's stored interval.
    Mutant("paths.py", "if not start <= s < end:", "if not start <= s <= end:",
           "tests/test_paths.py -k sampled_lookup",
           "a window that holds its end"),
    Mutant("paths.py", "from bisect import bisect_right",
           "from bisect import bisect_left as bisect_right",
           "tests/test_paths.py -k sampled_lookup",
           "bisect_left on the miss path"),
    Mutant("paths.py", "if not start <= s < end:", "if start != start:",
           "tests/test_paths.py -k sampled_lookup",
           "a lookup that trusts the stored interval"),
    # The path-frame rates: the model and the straight-line kernel.
    Mutant("sim.py", "b_e = v * (sin_t + ratio_tan * cos_t)",
           "b_e = v * (sin_t - ratio_tan * cos_t)",
           "tests/test_sim.py::test_fused_step_matches_reference_loop_bit_for_bit",
           "stage 2's lateral rate in the kernel"),
    # %.17g: the array encoder and the format.
    Mutant("_writer.py", "tie = np.abs(r - step) > 0.5 - _TIE",
           "tie = np.abs(r - step) > 0.5 + _TIE",
           "tests/test_writer.py",
           "the encoder keeps a near tie instead of handing it to the format"),
    # The stability verdict against the simulated decay.
    Mutant("analysis.py", "stable = (first < 0.0) & (lam.lam3 < 0.0)",
           "stable = lam.lam3 < 0.0",
           "tests/test_sim.py::test_exact_stability_condition_matches_the_simulated_decay",
           "the first sign condition dropped"),
    Mutant("analysis.py", "stable = (first < 0.0) & (lam.lam3 < 0.0)",
           "stable = first < 0.0",
           "tests/test_sim.py::test_exact_stability_condition_matches_the_simulated_decay",
           "the second sign condition dropped"),
    # The config ranges and the step guard.
    Mutant("errors.py", '"wheelbase": _LENGTH,', '"wheelbase": _LENGTH._replace(hi=1e5),',
           "tests/test_ranges.py::test_every_range_edge_and_the_value_set_through_every_command",
           "a range's edge moved inward"),
    Mutant("sim.py", "if self.dt >= h_max or", "if self.dt < h_max or",
           "tests/test_analysis.py::test_scenario_step_must_be_below_h_max",
           "the h_max comparison flipped"),
    Mutant("sim.py", 'else ("control_dt", self.control_dt)', 'else ("control_dt", self.dt)',
           "tests/test_cli.py::test_control_period_the_linear_loop_proves_unstable_exits_config",
           "the guard reads dt in place of the control period"),
)

# Known to be equivalent, or to change only speed: listed, not run.
EQUIVALENT = (
    Mutant("steering.py", "scale = 2.0 * max_allowable_steer(params, cfg.max_lat_accel) / math.pi",
           "scale = max_allowable_steer(params, cfg.max_lat_accel) / (0.5 * math.pi)", "",
           "scaling by 2 is exact"),
    Mutant("paths.py", "ends = self._knots[1:-1] + [math.nextafter(self._s_end, math.inf)]",
           "ends = self._knots[1:]", "",
           "a last window closed at s_end only sends s_end to the bisect"),
    Mutant("sim.py", "if self.dt >= h_max or", "if self.dt > h_max or", "",
           "dt equal to h_max to the last bit is the boundary itself"),
)


def run(mutant: Mutant, work: Path) -> tuple[bool, str]:
    """(killed, summary) of one mutant, run in a copy of src/ under ``work``."""
    src = work / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = src / "offsetsteer" / mutant.file
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return False, f"old text found {text.count(mutant.old)} times in {mutant.file}"
    target.write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    args = mutant.selection.split()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *args], cwd=ROOT, env=env, capture_output=True, text=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    return proc.returncode == 1, f"pytest exit {proc.returncode}: {last}"


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    survivors = 0
    for i in chosen:
        mutant = MUTANTS[i]
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as work:
            killed, summary = run(mutant, Path(work))
        survivors += not killed
        print(f"{i:2d} {'killed ' if killed else 'SURVIVED'} {mutant.file}: {mutant.why} "
              f"({summary}, {time.perf_counter() - started:.1f} s)", flush=True)
    for mutant in EQUIVALENT:
        print(f"   not run  {mutant.file}: {mutant.why}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
