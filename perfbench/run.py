"""offsetsteer benchmark.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. The workload's inputs are
generated from ``--seed`` under ``.perfbench/`` and every operation's output
is checked. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
readable summary, and every failed operation with its cause, go to standard
error.

A run is a warm-up round followed by as many timed rounds of the workload's
fixed operation list as fit in ``--seconds``. Every timed metric is scaled
to a nominal host speed measured next to each operation (see
``scaled_op_times``); the raw round time and the host speed are printed to
standard error. ``--trace 1`` spends the first half of the time untraced and
the second half with the tracing wrappers installed, and reports the
difference as ``trace.overhead_s``. Its layer times are scaled per operation
in the same way, so every time it reports is in the same unit as the
end-to-end metrics, and it reports the host speed as ``host.speed``.

Seeds: DEFAULT_SEED is the one tuned against; HELD_OUT_SEED is kept out of
tuning, and a claimed gain must also hold on it.
"""

from __future__ import annotations

import os

# One thread per process: pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "offsetsteer"
WORK_ROOT = ROOT / ".perfbench"

WORKLOADS = ("closed_loop", "cli_scenarios", "cli_analysis")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2718
SETUP_PROBES = 5           # fresh processes timed for setup_s
# Time of ``reference_kernel`` at the host speed every timed metric is scaled
# to: its fastest time on a 2-core x86-64 host under Python 3.11.
REF_NOMINAL_S = 7.2e-4


def reference_kernel() -> float:
    """Seconds taken by a fixed workload that uses no program code.

    It mixes what the program spends its time on: float arithmetic with
    ``math`` calls, as in the per-step loop, and ``.17g`` formatting and
    joining, as in the CSV writers.
    """
    start = time.perf_counter()
    acc = 0.0
    parts = []
    for i in range(1000):
        x = i * 1e-3
        acc += math.sin(x) * math.cos(x) + math.atan(x)
        parts.append(format(acc, ".17g"))
    ",".join(parts)
    return time.perf_counter() - start


class Round:
    def __init__(self):
        self.op_times: list[float] = []
        self.ref_times: list[float] = []   # reference kernel around each operation
        self.steps = 0
        self.csv_rows = 0

    @property
    def wall(self) -> float:
        return sum(self.op_times)

    @property
    def scaled_wall(self) -> float:
        return sum(t * REF_NOMINAL_S / ref for t, ref in zip(self.op_times, self.ref_times))


class Runner:
    """Runs rounds of operations, checks each result and tracks determinism."""

    def __init__(self, ops):
        self.ops = ops
        self.after_op = None  # called with each operation's host-speed scale
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.digest_mismatch = False

    def _fail(self, op, cause: str) -> None:
        self.failures.append(f"{op.name}: {cause}")
        print(f"FAILED {op.name}: {cause}", file=sys.stderr)

    def round(self) -> Round:
        rnd = Round()
        digest = hashlib.sha256()
        for op in self.ops:
            op.prepare()
            self.attempted += 1
            ref = reference_kernel()
            start = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # every failure is counted and reported
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            rnd.op_times.append(time.perf_counter() - start)
            ref = 0.5 * (ref + reference_kernel())
            rnd.ref_times.append(ref)
            if self.after_op is not None:
                self.after_op(REF_NOMINAL_S / ref)
            if error is not None:
                self._fail(op, error)
                continue
            try:
                outcome = op.check(result)
            except Exception as exc:  # a check that crashes is a failed check
                self._fail(op, f"check raised {type(exc).__name__}: {exc}")
                continue
            if outcome.errors:
                self._fail(op, "; ".join(outcome.errors))
            digest.update(op.name.encode() + b"\0" + outcome.digest)
            rnd.steps += outcome.steps
            rnd.csv_rows += outcome.csv_rows
        hexdigest = digest.hexdigest()
        if self.digest is None:
            self.digest = hexdigest
        elif hexdigest != self.digest:
            self.digest_mismatch = True
            print(f"NONDETERMINISTIC: round digest {hexdigest} != first {self.digest}",
                  file=sys.stderr)
        return rnd

    def rounds_for(self, seconds: float) -> list[Round]:
        """Whole rounds until the next one would overrun ``seconds`` (at least one)."""
        start = time.perf_counter()
        rounds = []
        while True:
            t0 = time.perf_counter()
            rounds.append(self.round())
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                return rounds


class _LogCounter(logging.Handler):
    """Counts log records by logger name. Attached to the root logger, it also
    keeps ``cli.main``'s ``basicConfig`` from adding a stderr handler."""

    def __init__(self):
        super().__init__()
        self.by_logger: Counter = Counter()

    def emit(self, record):
        self.by_logger[record.name] += 1


def setup(workload: str, seed: int, work: Path):
    """Import the package, generate the inputs and build the round.

    Returns the operations and the import and generation times, scaled to
    nominal host speed by the reference kernel run before and after.
    """
    refs = [reference_kernel() for _ in range(3)]
    t0 = time.perf_counter()
    import offsetsteer.cli  # noqa: F401
    t1 = time.perf_counter()
    import checks
    import workloads
    workloads.generate(workload, seed, work, PACKAGE / "presets")
    ops = workloads.build_ops(workload, seed, work, checks)
    t2 = time.perf_counter()
    refs += [reference_kernel() for _ in range(3)]
    scale = REF_NOMINAL_S / statistics.median(refs)
    return ops, (t1 - t0) * scale, (t2 - t1) * scale


def _code_key() -> str:
    """Hash of the package and benchmark sources: digests are compared per key."""
    h = hashlib.sha256()
    for f in sorted([*PACKAGE.rglob("*.py"), *PACKAGE.rglob("*.yaml"), *BENCH_DIR.glob("*.py")]):
        h.update(f.name.encode() + f.read_bytes())
    return h.hexdigest()[:16]


def _check_stored_digest(workload: str, seed: int, digest: str) -> bool:
    """Same code and seed must give the same artifacts in every run."""
    store = WORK_ROOT / "digests" / _code_key() / f"{workload}-{seed}.sha256"
    if store.is_file():
        previous = store.read_text().strip()
        if previous != digest:
            print(f"NONDETERMINISTIC: digest {digest} != {previous} from an earlier run",
                  file=sys.stderr)
            return False
        return True
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}")
    tmp.write_text(digest + "\n")
    os.replace(tmp, store)
    return True


def _setup_probe_seconds(workload: str, seed: int, work: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--work", str(work)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def scaled_op_times(rounds: list[Round]) -> list[float]:
    """Each operation's median time over the rounds, scaled to nominal host speed.

    The host's speed changes by up to 2x over seconds to minutes (other
    tenants share its cores), so raw times say as much about the host as
    about the program. Each operation is therefore bracketed by the fixed
    ``reference_kernel`` and its time multiplied by REF_NOMINAL_S over the
    kernel's time at that moment.
    """
    per_op = zip(zip(*(r.op_times for r in rounds)), zip(*(r.ref_times for r in rounds)))
    return [statistics.median(t * REF_NOMINAL_S / ref for t, ref in zip(times, refs))
            for times, refs in per_op]


def host_speed(rounds: list[Round]) -> float:
    """Median host speed over the rounds; 1.0 is the nominal speed."""
    return statistics.median(REF_NOMINAL_S / ref for r in rounds for ref in r.ref_times)


def end_to_end(runner: Runner, workload: str, seed: int, work: Path, seconds: float) -> dict:
    runner.round()  # warm-up: caches fill, lazy imports finish
    setups = [_setup_probe_seconds(workload, seed, work / "probe") for _ in range(SETUP_PROBES)]
    rounds = runner.rounds_for(seconds)
    per_op = scaled_op_times(rounds)
    print(f"# {len(rounds)} timed rounds of {len(per_op)} operations; op_s_p50 and op_s_p90 "
          f"over the {len(per_op)} operations; {SETUP_PROBES} setup probes; host speed "
          f"{host_speed(rounds):.3f} x nominal; raw median round "
          f"{statistics.median(r.wall for r in rounds):.4f} s", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_s_p50": (statistics.median(per_op), "s"),
        "op_s_p90": (statistics.quantiles(per_op, n=10, method="inclusive")[-1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(runner: Runner, workload: str, seed: int, seconds: float,
              import_s: float, generate_s: float, log_counter: _LogCounter) -> dict:
    import tracing

    runner.round()  # warm-up
    plain = runner.rounds_for(seconds / 2)
    refs = [reference_kernel() for _ in range(3)]
    wrapper_raw_s = tracing.wrapper_cost_s()
    refs += [reference_kernel() for _ in range(3)]
    wrapper_s = wrapper_raw_s * REF_NOMINAL_S / statistics.median(refs)
    tracer = tracing.Tracer()
    clips_before = log_counter.by_logger["offsetsteer.steering"]
    tracer.install()
    runner.after_op = tracer.flush
    try:
        traced = runner.rounds_for(seconds / 2)
    finally:
        runner.after_op = None
        tracer.uninstall()
    clips = log_counter.by_logger["offsetsteer.steering"] - clips_before
    traces = WORK_ROOT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(traces / f"{workload}-{seed}.json")

    plain_wall = statistics.fmean(r.scaled_wall for r in plain)
    metrics = tracing.layer_metrics(tracer, len(traced),
                                    statistics.fmean(r.scaled_wall for r in traced),
                                    plain_wall, wrapper_s)
    rnd = plain[0]
    metrics.update({
        "steering.clip_warnings": (clips / len(traced), "count"),
        "setup.import_s": (import_s, "s"),
        "setup.generate_s": (generate_s, "s"),
        "sim_steps_per_s": (rnd.steps / plain_wall, "1/s"),
        "csv_rows_per_s": (rnd.csv_rows / plain_wall, "1/s"),
        "failed_frac": (len(runner.failures) / runner.attempted, "ratio"),
        "host.speed": (host_speed(plain + traced), "ratio"),
    })
    m = {k: v for k, (v, _) in metrics.items()}
    print(f"# {len(plain)} untraced and {len(traced)} traced rounds; per round, in seconds "
          f"at nominal host speed: traced wall {m['trace.wall_s']:.4f} = layer self times "
          f"{m['trace.self_sum_s']:.4f} + unattributed {m['trace.unattributed_s']:.4f}; "
          f"untraced wall {m['trace.untraced_wall_s']:.4f}; overhead "
          f"{m['trace.overhead_s']:.4f} against calibrated {m['trace.wrapper_ns']:.0f} ns x "
          f"{m['trace.wrapped_calls']:.0f} wrapped calls = "
          f"{wrapper_s * m['trace.wrapped_calls']:.4f}; host speed {m['host.speed']:.3f} x "
          f"nominal", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    if args.setup_probe:
        _, import_s, generate_s = setup(args.workload, args.seed, args.work)
        print(import_s + generate_s)
        return 0

    work = WORK_ROOT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    log_counter = _LogCounter()
    logging.getLogger().addHandler(log_counter)
    try:
        ops, import_s, generate_s = setup(args.workload, args.seed, work)
        runner = Runner(ops)
        if args.trace:
            metrics = per_layer(runner, args.workload, args.seed, args.seconds,
                                import_s, generate_s, log_counter)
        else:
            metrics = end_to_end(runner, args.workload, args.seed, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stored_ok = _check_stored_digest(args.workload, args.seed, runner.digest)
    failed = len(runner.failures)
    correct = failed == 0 and not runner.digest_mismatch and stored_ok
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"digest={runner.digest} attempted={runner.attempted} failed={failed} "
          f"failed_frac={failed}/{runner.attempted} correct={correct}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"#   {name:32s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
