"""Smoke-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json for one second with and without
tracing and checks the result line against the file: the keys, ``correct``,
no failed operations, exactly the declared metrics with their units, and
non-zero end-to-end values. It also checks the layer separation the traced
run must show, and that the benchmark refuses to run (non-zero exit, no
result line) in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    layers = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']}")
            expected = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != expected:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
            if trace == 0:
                problems += [f"{where}: {name} is {m['value']}" for name, m in metrics.items()
                             if not m["value"] > 0]
            else:
                layers[workload] = {name: m["value"] for name, m in metrics.items()}
            print(f"ok {where}: attempted={result['attempted']}")

    if set(layers) == {"closed_loop", "cli_scenarios", "cli_analysis"}:
        cl, cs, ca = layers["closed_loop"], layers["cli_scenarios"], layers["cli_analysis"]
        for ok, what in (
                (cl["sim.write_traj_rows"] == 0, "sim.write_traj_rows = 0 on closed_loop"),
                (ca["sim.steps"] == 0, "sim.steps = 0 on cli_analysis"),
                (cl["paths.curvature_s"] / cl["trace.wall_s"]
                 > cs["paths.curvature_s"] / cs["trace.wall_s"],
                 "paths.curvature_s share of traced wall_s larger on closed_loop "
                 "than on cli_scenarios")):
            if not ok:
                problems.append(f"layer separation: expected {what}")

    bare = ROOT / ".perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the package source: exit {proc.returncode}, "
                        f"stdout {proc.stdout.strip()[:200]!r}")
    else:
        print(f"ok without the package source: exit {proc.returncode}")

    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
