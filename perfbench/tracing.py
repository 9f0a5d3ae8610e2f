"""Per-layer tracing by swapping the program's functions for timing wrappers.

No program file is edited. ``Tracer.install`` replaces module attributes as
``offsetsteer.sim`` and ``offsetsteer.cli`` look them up at call time (plus
``Path.curvature`` and ``Path.pose`` on the class) and ``uninstall`` puts the
originals back.

Coarse calls - one per command, config parse, scenario, comparison, writer,
scan or response - record a span with its parent, kept in memory and written
out when the run ends. Per-step calls - control law, derivatives, RK4 step,
curvature and pose lookups, path build - only add to a call count and a self
time: one span each would mean about a million spans per scenario.

A layer's self time is its inclusive time minus the time of wrapped calls
made inside it, so the self times of all layers plus the benchmark's own glue
add up to the traced wall time. After each timed operation ``flush`` moves the
operation's layer times into the run's totals, scaled by the same host-speed
factor as the operation's own time, so layer times and wall times are in one
unit: seconds at the nominal host speed. Span start and end times stay raw
host clock readings.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter

# Wrapped calls made inside ``run_scenario``; their calibrated wrapper cost is
# taken out of ``sim.us_per_step``.
IN_RUN = ("steering.control", "bicycle.path_deriv", "bicycle.earth_deriv",
            "sim.rk4", "paths.curvature", "paths.pose", "paths.build")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # layer -> [calls, inclusive s, self s], raw
        self.totals: dict[str, list] = {}  # the same, flushed and scaled
        self.spans: list = []              # (id, parent id, name, start s, end s)
        self.counts: Counter = Counter()
        self.max_pos_gap = 0.0
        self.max_psi_gap = 0.0
        self._child = [0.0]                # wrapped-child time of each open call
        self._open = [None]                # ids of open spans
        self._patched: list = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def flush(self, scale: float) -> None:
        """Add the raw layer times since the last flush, times ``scale``, to
        the totals and zero them (in place: the wrappers hold the lists)."""
        for name, rec in self.stats.items():
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += rec[0]
            total[1] += rec[1] * scale
            total[2] += rec[2] * scale
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0

    def fine(self, name: str, fn):
        """Wrapper that only counts calls and accumulates self time."""
        rec, child, clock = self._stat(name), self._child, time.perf_counter

        def wrapper(*args):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - inner
                child[-1] += elapsed
        return wrapper

    def coarse(self, name: str, fn, observe=None):
        """Wrapper that also records a span; ``observe(args, result)`` runs after
        the timed call and its cost is booked to ``trace.observe``."""
        rec, child, clock = self._stat(name), self._child, time.perf_counter
        spans, open_spans = self.spans, self._open
        hook = self._stat("trace.observe")

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(span_id)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                inner = child.pop()
                open_spans.pop()
                rec[0] += 1
                rec[1] += end - start
                rec[2] += end - start - inner
                child[-1] += end - start
                spans[span_id] = (span_id, parent, name, start, end)
            if observe is not None:
                t0 = clock()
                observe(args, result)
                spent = clock() - t0
                hook[0] += 1
                hook[1] += spent
                hook[2] += spent
                child[-1] += spent
            return result
        return wrapper

    # -- observers (run outside the timed call) ---------------------------

    def _observe_run(self, args, result):
        traj, metrics = result
        self.counts["sim.steps"] += traj.t.size - 1
        self.counts["sim.runs"] += 1
        self.counts["sim.saturated_sum"] += metrics.saturation_fraction
        gap = traj.frame_mismatch()
        if gap is not None:
            self.max_pos_gap = max(self.max_pos_gap, gap[0])
            self.max_psi_gap = max(self.max_psi_gap, gap[1])

    def _observe_traj(self, args, result):
        traj, path = args
        self.counts["sim.write_traj_rows"] += traj.t.size
        self.counts["sim.write_traj_bytes"] += os.path.getsize(path)

    def _observe_map(self, args, result):
        scan, path = args
        self.counts["analysis.write_map_rows"] += scan.stable.size
        self.counts["analysis.write_map_bytes"] += os.path.getsize(path)

    def _observe_freq(self, args, result):
        self.counts["analysis.write_freq_rows"] += args[0].omega.size

    def _observe_scan(self, args, result):
        self.counts["analysis.scan_cells"] += result.stable.size

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from offsetsteer import cli, paths, sim

        for mod in (sim, cli):
            self._patch(mod, "run_scenario",
                        self.coarse("sim.run_scenario", mod.run_scenario, self._observe_run))
            self._patch(mod, "compare_controllers",
                        self.coarse("sim.compare", mod.compare_controllers))
        for attr, name in (("control", "steering.control"),
                           ("path_derivatives", "bicycle.path_deriv"),
                           ("earth_derivatives", "bicycle.earth_deriv"),
                           ("step_rk4", "sim.rk4"), ("build_path", "paths.build")):
            self._patch(sim, attr, self.fine(name, getattr(sim, attr)))
        self._patch(paths.Path, "curvature", self.fine("paths.curvature", paths.Path.curvature))
        self._patch(paths.Path, "pose", self.fine("paths.pose", paths.Path.pose))
        for mod in (paths, cli):
            self._patch(mod, "load_curvature_table",
                        self.fine("paths.load_table", mod.load_curvature_table))
        for attr, name, observe in (
                ("write_trajectory_csv", "sim.write_traj", self._observe_traj),
                ("write_metrics", "sim.write_metrics", None),
                ("stability_region_scan", "analysis.scan", self._observe_scan),
                ("frequency_response", "analysis.freq", None),
                ("write_stability_csv", "analysis.write_map", self._observe_map),
                ("write_freq_csv", "analysis.write_freq", self._observe_freq),
                ("_parse", "cli.parse", None),
                ("cmd_simulate", "cli.cmd", None), ("cmd_compare", "cli.cmd", None),
                ("cmd_stability_map", "cli.cmd", None),
                ("cmd_freq_response", "cli.cmd", None),
                ("main", "cli.main", None)):
            self._patch(cli, attr, self.coarse(name, getattr(cli, attr), observe))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        origin = min((s[3] for s in self.spans if s), default=0.0)
        with open(path, "w") as fh:
            json.dump({"spans_clock": "raw host seconds since the first span",
                       "spans": [{"id": i, "parent": p, "name": n,
                                  "start_s": a - origin, "end_s": b - origin}
                                 for i, p, n, a, b in filter(None, self.spans)],
                       "layers_clock": "seconds at nominal host speed, whole traced phase",
                       "layers": {k: {"calls": c, "inclusive_s": t, "self_s": s}
                                  for k, (c, t, s) in sorted(self.totals.items())}},
                      fh)


def wrapper_cost_s(calls: int = 100_000, repeats: int = 5) -> float:
    """Calibrated cost of one per-step wrapper: wrapped minus bare no-op call,
    in raw host seconds."""
    def noop(x):
        return x

    wrapped = Tracer().fine("calibration", noop)
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for i in range(calls):
            noop(i)
        t1 = clock()
        for i in range(calls):
            wrapped(i)
        t2 = clock()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)


def layer_metrics(tracer: Tracer, rounds: int, traced_wall: float, untraced_wall: float,
                  wrapper_s: float) -> dict[str, tuple[float, str]]:
    """Per-round layer metrics of a traced phase of ``rounds`` identical rounds.

    Every time is in seconds at the nominal host speed. ``traced_wall`` is
    the mean traced round time, which the layer self times add up to;
    ``untraced_wall`` the mean untraced round time; ``wrapper_s`` the
    calibrated cost of one wrapper.
    """
    def calls(name):
        return tracer.totals.get(name, (0, 0.0, 0.0))[0] / rounds

    def incl(name):
        return tracer.totals.get(name, (0, 0.0, 0.0))[1] / rounds

    def self_s(name):
        return tracer.totals.get(name, (0, 0.0, 0.0))[2] / rounds

    def count(name):
        return tracer.counts[name] / rounds

    steps = count("sim.steps")
    nested = sum(calls(name) for name in IN_RUN)
    loop_s = incl("sim.run_scenario") - wrapper_s * nested
    runs = tracer.counts["sim.runs"]
    self_sum = sum(s for _, _, s in tracer.totals.values()) / rounds
    wrapped_calls = sum(c for c, _, _ in tracer.totals.values()) / rounds
    return {
        "sim.self_s": (self_s("sim.run_scenario"), "s"),
        "sim.rk4_calls": (calls("sim.rk4"), "count"),
        "sim.rk4_self_s": (self_s("sim.rk4"), "s"),
        "sim.steps": (steps, "count"),
        "sim.us_per_step": (1e6 * loop_s / steps if steps else 0.0, "us"),
        "bicycle.path_deriv_calls": (calls("bicycle.path_deriv"), "count"),
        "bicycle.path_deriv_s": (self_s("bicycle.path_deriv"), "s"),
        "bicycle.earth_deriv_calls": (calls("bicycle.earth_deriv"), "count"),
        "bicycle.earth_deriv_s": (self_s("bicycle.earth_deriv"), "s"),
        "steering.control_calls": (calls("steering.control"), "count"),
        "steering.control_s": (self_s("steering.control"), "s"),
        "paths.curvature_calls": (calls("paths.curvature"), "count"),
        "paths.curvature_s": (self_s("paths.curvature"), "s"),
        "paths.pose_calls": (calls("paths.pose"), "count"),
        "paths.pose_s": (self_s("paths.pose"), "s"),
        "paths.build_calls": (calls("paths.build"), "count"),
        "paths.build_s": (self_s("paths.build"), "s"),
        "paths.load_table_s": (self_s("paths.load_table"), "s"),
        "sim.write_traj_s": (self_s("sim.write_traj"), "s"),
        "sim.write_traj_rows": (count("sim.write_traj_rows"), "count"),
        "sim.write_traj_bytes": (count("sim.write_traj_bytes"), "B"),
        "sim.metrics_s": (self_s("sim.write_metrics"), "s"),
        "sim.compare_s": (self_s("sim.compare"), "s"),
        "analysis.write_map_s": (self_s("analysis.write_map"), "s"),
        "analysis.write_map_rows": (count("analysis.write_map_rows"), "count"),
        "analysis.write_map_bytes": (count("analysis.write_map_bytes"), "B"),
        "analysis.write_freq_s": (self_s("analysis.write_freq"), "s"),
        "analysis.write_freq_rows": (count("analysis.write_freq_rows"), "count"),
        "analysis.scan_s": (self_s("analysis.scan"), "s"),
        "analysis.scan_cells": (count("analysis.scan_cells"), "count"),
        "analysis.freq_s": (self_s("analysis.freq"), "s"),
        "cli.parse_s": (self_s("cli.parse"), "s"),
        "cli.cmd_self_s": (self_s("cli.main") + self_s("cli.cmd"), "s"),
        "steering.saturation_fraction": (
            tracer.counts["sim.saturated_sum"] / runs if runs else 0.0, "ratio"),
        "sim.frame_gap_m": (tracer.max_pos_gap, "m"),
        "sim.frame_heading_gap_rad": (tracer.max_psi_gap, "rad"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.wrapper_ns": (1e9 * wrapper_s, "ns"),
        "trace.wrapped_calls": (wrapped_calls, "count"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.unattributed_s": (traced_wall - self_sum, "s"),
    }
