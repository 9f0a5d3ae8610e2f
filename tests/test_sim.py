"""Closed-loop runner: integrator, metrics, comparisons, artifacts."""

import math
import re
import time
import tracemalloc
import types
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.linalg import expm

from offsetsteer import (VARIANTS, ConfigError, ControlConfig, DomainError, OffsetSteerError,
                         PathSpec, PathState, ScenarioConfig, SingularityError, VehicleParams,
                         amplification, build_path, compare_controllers, control,
                         is_stable,
                         desired_yaw_error, lambdas, linearize, max_allowable_steer,
                         path_derivatives, run_scenario, step_rk4, wrap_angle_error,
                         write_metrics, write_trajectory_csv)
from offsetsteer import _writer, sim, steering
from offsetsteer.bicycle import _arc_chord
from offsetsteer.cli import parse_config, preset_text
from offsetsteer.paths import POSE_GRID_MIN_PASS, POSE_GRID_STEP, Path
from offsetsteer.sim import TRAJECTORY_COLUMNS

from conftest import (CIRCLE_RADIUS, COSINE_KAPPA_MAX, COSINE_PERIOD,
                      COSINE_PERIODS, CROSSING_YAML, K2, SENSOR_OFFSET, WHEELBASE,
                      benchmark_control, benchmark_params, cosine_spec, make_scenario,
                      reference_to_earth)


# -- integrator ----------------------------------------------------------------

def test_step_rk4_zero_field():
    state = (1.0, -2.0, 0.5)
    assert step_rk4(lambda s, g: (0.0, 0.0, 0.0), state, 0.0, 0.1) == state


def test_step_rk4_constant_velocity_exact():
    state = (0.0,)
    for _ in range(1000):
        state = step_rk4(lambda s, g: (20.0,), state, 0.0, 1e-3)
    assert state[0] == pytest.approx(20.0, rel=1e-12)


def test_step_rk4_quartic_polynomial_exact():
    # RK4 integrates polynomials of degree <= 3 in time exactly (so the
    # quartic state is recovered to rounding).
    state = (0.0, 0.0)

    def field(st, _):
        t = st[1]
        return (4.0 * t ** 3, 1.0)

    for _ in range(100):
        state = step_rk4(field, state, 0.0, 0.01)
    assert state[0] == pytest.approx(1.0, rel=1e-12)


def test_step_rk4_aborts_on_divergence():
    with pytest.raises(OffsetSteerError):
        step_rk4(lambda s, g: (math.inf,), (0.0,), 0.0, 1e-3)


def test_integration_refinement_converges(runs):
    # Identical 1 ms steering updates, finer integration grid: fourth-order
    # refinement leaves the final state essentially unchanged.
    coarse = runs("cosine_full")[0]
    fine = runs("cosine_full_dt_half")[0]
    assert abs(coarse.s_d[-1] - fine.s_d[-1]) < 1e-8
    assert abs(coarse.e_d[-1] - fine.e_d[-1]) < 1e-8
    assert abs(coarse.theta_d[-1] - fine.theta_d[-1]) < 1e-8


# -- runner behavior --------------------------------------------------------------

def test_run_scenario_deterministic():
    cfg = make_scenario(PathSpec.straight(), t_end=2.0)
    first, _ = run_scenario(cfg)
    second, _ = run_scenario(cfg)
    for name, signal in first.signals().items():
        np.testing.assert_array_equal(signal, second.signals()[name], err_msg=name)


def test_run_scenario_row_layout(runs):
    traj, _ = runs("straight_full")
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(30.0, abs=1e-12)
    steps = np.diff(traj.t)
    np.testing.assert_allclose(steps, 1e-3, rtol=1e-9)
    assert np.all(traj.theta_d >= -math.pi) and np.all(traj.theta_d < math.pi)


def test_equilibrium_preserved_on_circle(params):
    kappa = 1.0 / CIRCLE_RADIUS
    theta_0 = desired_yaw_error(kappa, params.sensor_offset)
    cfg = make_scenario(PathSpec.circular(CIRCLE_RADIUS),
                        initial=PathState(0.0, 0.0, theta_0), t_end=50.0)
    traj, metrics = run_scenario(cfg)
    assert np.abs(traj.e_d).max() < 1e-9
    assert np.abs(traj.theta_hat).max() < 1e-9
    assert np.abs(traj.gamma_fb).max() < 1e-9
    assert metrics.overshoot == 0.0


# The rear-axle law's standing offset on the 200 m circle (README).
NAIVE_CIRCLE_OFFSET = 0.4992263266


@pytest.mark.parametrize("road", [PathSpec.straight(), PathSpec.circular(CIRCLE_RADIUS)],
                         ids=["straight", "circular"])
def test_large_initial_errors_are_recovered(road, record_property):
    # The paper's transient from large initial errors: the wrapper and
    # atan(k2*e) bring the full law back from any offset and heading, and on
    # the circle the naive law settles at its standing offset.
    circle = road.kind == "circular"
    failures = {variant: 0 for variant in VARIANTS}
    for variant in VARIANTS:
        for e0 in (-200.0, -50.0, -10.0, 10.0, 50.0, 100.0):
            for theta0 in (-150.0, 0.0, 150.0):
                cfg = replace(make_scenario(road, variant, dt=0.01, t_end=60.0,
                                            initial=PathState(0.0, e0, math.radians(theta0))),
                              frame="path")
                try:
                    traj, _ = run_scenario(cfg)
                except DomainError:
                    failures[variant] += 1
                    continue
                if variant not in ("full", "naive"):
                    continue  # the degraded laws are contrast, not judged
                start = f"{variant} from e0 = {e0} m, theta0 = {theta0} deg"
                if not circle:
                    assert abs(traj.e_d[-1]) < 1e-2, start
                    continue
                target = NAIVE_CIRCLE_OFFSET if variant == "naive" else 0.0
                assert abs(traj.e_d[-1] - target) < 1e-3, start
                assert (1.0 - traj.e_d * traj.kappa_d).min() > 0.0, start
    assert failures["full"] == failures["naive"] == 0
    # The unwrapped and linear laws reach |gamma| >= pi/2 from some starts
    # (8 and 11 of the 18 on either road when this was written).
    record_property("domain_errors", failures)


def test_frame_consistency_for_standard_runs(runs):
    for name in ("straight_full", "circular_naive", "cosine_full", "cosine_positive"):
        traj, _ = runs(name)
        pos_err, psi_err = traj.frame_mismatch()
        assert pos_err < 1e-6, name
        assert psi_err < 1e-7, name


def _clothoid_table() -> PathSpec:
    # PCHIP reproduces a linear kappa exactly, so the table's curvature is
    # smooth; at the knots of a general table kappa'' jumps and RK4 loses its
    # order there.
    s = np.linspace(0.0, 600.0, 7)
    return PathSpec.sampled(s, -0.01 + 0.02 * s / 600.0)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("road", [PathSpec.straight, lambda: PathSpec.circular(CIRCLE_RADIUS),
                                  cosine_spec, _clothoid_table],
                         ids=["straight", "circular", "cosine", "sampled"])
def test_frame_gap_shrinks_at_fourth_order(road, variant):
    # The earth step is exact under the held steering, so at a fixed control
    # period the gap between the frames is the path-frame RK4's global error:
    # halving dt divides it by 16 until it reaches rounding.
    spec = road()
    gaps = []
    for dt in (0.1, 0.05, 0.025):
        cfg = make_scenario(spec, variant, dt=dt, control_dt=0.1, t_end=20.0,
                            initial=PathState(0.0, -10.0, 0.3))
        gaps.append(run_scenario(cfg)[0].frame_mismatch()[0])
    orders = [math.log2(coarse / fine) for coarse, fine in zip(gaps, gaps[1:])
              if fine > 1e-11]
    assert orders, gaps
    assert all(3.8 <= order <= 4.2 for order in orders), gaps


def test_frame_heading_gap_ignores_full_turns():
    # Facing backwards on the ring road, the path-frame heading error wraps
    # by 2*pi while the earth-frame heading does not; the headings still
    # agree modulo 2*pi.
    cfg = make_scenario(PathSpec.circular(CIRCLE_RADIUS), t_end=3.0,
                        initial=PathState(0.0, 10.0, math.radians(179.0)))
    traj, _ = run_scenario(cfg)
    pos_err, psi_err = traj.frame_mismatch()
    assert np.abs(traj.earth_psi - traj.psi).max() > 6.0  # the columns do differ by 2*pi
    assert pos_err < 1e-6
    assert psi_err < 1e-7


@pytest.mark.parametrize("cfg", [
    parse_config(preset_text("optimal_gain")),
    make_scenario(PathSpec.circular(CIRCLE_RADIUS), t_end=30.0,
                  initial=PathState(0.0, 10.0, math.radians(179.0))),
], ids=["optimal_gain", "circle-backwards"])
def test_frame_heading_gap_is_the_row_by_row_maximum(cfg):
    traj, _ = run_scenario(cfg)
    row_by_row = max(abs(wrap_angle_error(a, b)) for a, b in zip(traj.earth_psi, traj.psi))
    assert traj.frame_mismatch()[1] == row_by_row


@pytest.mark.parametrize("cfg", [
    make_scenario(cosine_spec(), dt=0.01, t_end=10.0),
    replace(parse_config(preset_text("circular_compare")), t_end=10.0),
], ids=["cosine", "circular_compare"])
def test_only_both_frames_cross_check(cfg):
    # With frame "earth" the pose columns are the earth integration itself,
    # so there is no second integration to compare them with; frame "path"
    # maps the same path-frame run as "both". So the two single-frame runs
    # differ by the gap that "both" reports.
    both, _ = run_scenario(replace(cfg, frame="both"))
    earth, _ = run_scenario(replace(cfg, frame="earth"))
    path, _ = run_scenario(replace(cfg, frame="path"))
    assert 0.0 < both.frame_mismatch()[0] <= 1e-6
    assert earth.frame_mismatch() is None and path.frame_mismatch() is None
    assert earth.t.size == path.t.size == round(cfg.t_end / cfg.dt) + 1
    assert np.array_equal(earth.x_a, both.earth_x)
    assert np.array_equal(earth.y_a, both.earth_y)
    assert np.array_equal(earth.psi, both.earth_psi)
    assert np.array_equal(path.x_a, both.x_a)
    assert np.array_equal(path.y_a, both.y_a)


def _reference_arc(estate, steer: float, params, dt: float) -> tuple[float, float, float]:
    """Held-steering earth step built from the turning centre.

    The rear axle R = A - d (cos psi, sin psi) circles C = R + (l / tan gamma) n,
    n the left normal, while psi advances by (V tan gamma / l) dt; A is then
    R + d (cos psi, sin psi) again. For gamma = 0, R runs straight ahead.
    R's move, (l / tan gamma) (n(psi) - n(psi_new)), is written by the
    sum-to-product identities as a chord along the mid heading, not formed
    through C: near gamma = 0 the radius is large, and C would cancel the
    step's digits (2.9e-9 m over a 3 s straight-road run).
    """
    x, y, psi = estate
    d, l = params.sensor_offset, params.wheelbase
    tan_g = math.tan(steer)
    turn = params.speed / l * tan_g * dt
    psi_new = psi + turn
    rx, ry = x - d * math.cos(psi), y - d * math.sin(psi)
    if tan_g == 0.0:
        rx, ry = rx + params.speed * dt * math.cos(psi), ry + params.speed * dt * math.sin(psi)
    else:
        chord = 2.0 * l / tan_g * math.sin(0.5 * turn)
        mid = psi + 0.5 * turn
        rx, ry = rx + chord * math.cos(mid), ry + chord * math.sin(mid)
    return rx + d * math.cos(psi_new), ry + d * math.sin(psi_new), psi_new


def _reference_run(cfg: ScenarioConfig) -> dict[str, np.ndarray]:
    """The closed loop as step_rk4 over path_derivatives, with sampled
    curvature from a scalar PchipInterpolator call, each row's pose from the
    scalar ``reference_to_earth`` and the earth rows from ``_reference_arc``."""
    path = build_path(cfg.path_spec)
    spec = cfg.path_spec
    if spec.kind == "sampled":
        pchip = PchipInterpolator(spec.table_s, spec.table_kappa)

        def curvature(s):
            return float(pchip(s))
    else:
        curvature = path.curvature
    params, ctl, dt = cfg.vehicle, cfg.control, cfg.dt
    g_sat = max_allowable_steer(params, ctl.max_lat_accel)
    hold = 1 if cfg.control_dt is None else round(cfg.control_dt / dt)
    n = max(1, round(cfg.resolved_t_end() / dt))

    def path_field(state, steer):
        return path_derivatives(state, steer, params, curvature(state[0]))

    ps = PathState(cfg.initial.s, cfg.initial.e, wrap_angle_error(cfg.initial.theta, 0.0))
    estate = reference_to_earth(path, ps)
    rows = []
    for i in range(n + 1):
        kappa = curvature(ps.s)
        if i % hold == 0:
            dec = control(ps, kappa, ctl, params)
        rows.append((i * dt, *ps, desired_yaw_error(kappa, params.sensor_offset),
                     dec.gamma_des, dec.gamma_ff, dec.gamma_fb, *reference_to_earth(path, ps),
                     kappa, abs(dec.fb_input) > g_sat, *estate))
        if i == n:
            break
        s, e, theta = step_rk4(path_field, ps, dec.gamma_des, dt)
        ps = PathState(s, e, wrap_angle_error(theta, 0.0))
        estate = _reference_arc(estate, dec.gamma_des, params, dt)
    names = ("t", "s_d", "e_d", "theta_d", "theta_0", "gamma_des", "gamma_ff",
             "gamma_fb", "x_a", "y_a", "psi", "kappa_d", "fb_saturated",
             "earth_x", "earth_y", "earth_psi")
    return dict(zip(names, np.array(rows).T))


def _table_road() -> PathSpec:
    rng = np.random.default_rng(5)
    s = np.concatenate(([0.0], np.cumsum(rng.uniform(2.0, 15.0, 29))))
    return PathSpec.sampled(s, rng.uniform(-0.02, 0.02, s.size))


_ROADS = {"sampled": _table_road, "cosine": cosine_spec,
          "circular": lambda: PathSpec.circular(CIRCLE_RADIUS), "straight": PathSpec.straight}
_HOLDS = {"every-step": None, "every-10-steps": 1e-2}


def _fused_case(road: str, variant: str, hold: str, frame: str):
    # Frame "both", which make_scenario builds, carries no id suffix.
    suffix = "" if frame == "both" else f"-{frame}"
    return pytest.param(_ROADS[road], variant, _HOLDS[hold], frame,
                        id=f"{road}-{variant}-{hold}{suffix}")


# Every road, hold and frame with the full and linear laws on the curved
# roads; the straight road and the naive law in a subset that still reaches
# each hold, frame and road once.
@pytest.mark.parametrize("road, variant, control_dt, frame", [
    *(_fused_case(road, variant, hold, frame)
      for road in ("sampled", "cosine", "circular") for variant in ("full", "linear")
      for hold in _HOLDS for frame in ("both", "path", "earth")),
    _fused_case("straight", "full", "every-step", "both"),
    _fused_case("straight", "linear", "every-10-steps", "path"),
    _fused_case("straight", "naive", "every-10-steps", "earth"),
    _fused_case("sampled", "naive", "every-step", "path"),
    _fused_case("cosine", "naive", "every-10-steps", "both"),
    _fused_case("circular", "naive", "every-step", "earth"),
])
def test_fused_step_matches_reference_loop_bit_for_bit(road, variant, control_dt, frame,
                                                       monkeypatch):
    cfg = replace(make_scenario(road(), variant, control_dt=control_dt, t_end=3.0),
                  frame=frame)
    expected = _reference_run(cfg)
    original = Path.to_earth
    calls = []

    def counting_to_earth(self, ps):
        calls.append(ps)
        return original(self, ps)

    monkeypatch.setattr(Path, "to_earth", counting_to_earth)
    traj, _ = run_scenario(cfg)
    # The earth integration maps its initial pose; the pose columns of
    # frames "path" and "both" are mapped in one call after the loop.
    assert len(calls) == {"path": 1, "earth": 1, "both": 2}[frame]
    pose = ("x_a", "y_a", "psi")
    earth = ("earth_x", "earth_y", "earth_psi")
    if frame == "earth":
        for name, source in zip(pose, earth):
            expected[name] = expected[source]
    # The loop's exact earth step and the turning-centre construction round
    # differently, so the earth positions agree to 1e-9 m; every other
    # column, the earth heading included, agrees bit for bit.
    from_earth = {"earth_x", "earth_y"} | ({"x_a", "y_a"} if frame == "earth" else set())
    for name, values in expected.items():
        if name in earth and frame != "both":
            assert getattr(traj, name) is None, name
        elif name in from_earth:
            np.testing.assert_allclose(getattr(traj, name), values, rtol=0, atol=1e-9,
                                       err_msg=name)
        else:
            assert np.array_equal(getattr(traj, name), values), name
    assert np.array_equal(traj.theta_hat, traj.theta_d - traj.theta_0)


def test_run_binds_its_steering_constants_once(monkeypatch):
    # The feedback bound depends only on the vehicle and the config, so a
    # run computes it a fixed number of times, however many updates it makes.
    calls = []

    def counted(params, max_lat_accel):
        calls.append(max_lat_accel)
        return max_allowable_steer(params, max_lat_accel)

    monkeypatch.setattr(steering, "max_allowable_steer", counted)
    monkeypatch.setattr(sim, "max_allowable_steer", counted)
    counts = []
    for t_end, control_dt in ((0.1, None), (1.0, None), (1.0, 1e-2)):
        calls.clear()
        run_scenario(make_scenario(cosine_spec(), t_end=t_end, control_dt=control_dt))
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] > 0


def test_full_law_supplies_theta_0_on_update_rows(monkeypatch):
    # The full law takes -asin(d*kappa) on each update, so the loop takes it
    # itself only on hold rows; the variants that ignore the offset leave it
    # to the loop on every row. Neither calls check_trackable while d*kappa
    # passes its range test, as it does on every row here.
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for module, name in ((steering, "law"), (sim, "loop")):
        fake_math = types.SimpleNamespace(**vars(math))
        fake_math.asin = counted(name, math.asin)
        monkeypatch.setattr(module, "math", fake_math)
        monkeypatch.setattr(module, "check_trackable",
                            counted("check_trackable", module.check_trackable))
    full, _ = run_scenario(make_scenario(cosine_spec(), t_end=1.0))
    rows = full.t.size
    assert calls == {"law": rows}
    calls.clear()
    run_scenario(make_scenario(cosine_spec(), t_end=1.0, control_dt=1e-2))
    updates = len(range(0, rows, 10))
    assert calls == {"law": updates, "loop": rows - updates} and rows - updates == 900
    calls.clear()
    run_scenario(make_scenario(cosine_spec(), "naive", t_end=1.0))
    assert calls == {"loop": rows}


def test_exact_earth_step_runs_straight_at_zero_steer(params):
    v_dt = params.speed * 1e-3
    with np.errstate(all="raise"):
        chord_x, chord_y = _arc_chord(np.zeros(3), v_dt, params.sensor_offset)
    assert np.array_equal(chord_x, np.full(3, v_dt)) and not chord_y.any()
    # On a straight road from the path the full law commands gamma = 0, so
    # every earth step adds exactly V*dt to x and leaves y and psi alone.
    cfg = replace(make_scenario(PathSpec.straight(), t_end=1.0,
                                initial=PathState(0.0, 0.0, 0.0)), frame="earth")
    traj, _ = run_scenario(cfg)
    assert not traj.gamma_des.any()
    assert np.array_equal(traj.x_a[1:], traj.x_a[:-1] + v_dt)
    assert not traj.y_a.any() and not traj.psi.any()


def test_exact_earth_step_closes_a_held_turn(params):
    # One steering update held for 2*pi/omega: A circles the turning centre
    # C = R + (l / tan gamma) n at radius hypot(l / tan gamma, d) and comes
    # back to its start after a full turn.
    kappa = 1.0 / CIRCLE_RADIUS
    d = params.sensor_offset
    initial = PathState(0.0, 0.0, desired_yaw_error(kappa, d))
    gamma = control(initial, kappa, benchmark_control(), params).gamma_des
    omega = params.speed / params.wheelbase * math.tan(gamma)
    steps = 5000
    dt = 2.0 * math.pi / omega / steps
    cfg = replace(make_scenario(PathSpec.circular(CIRCLE_RADIUS), dt=dt, t_end=steps * dt,
                                control_dt=steps * dt, initial=initial), frame="earth")
    traj, _ = run_scenario(cfg)
    assert traj.t.size == steps + 1
    assert np.all(traj.gamma_des == gamma)
    x0, y0, psi0 = traj.x_a[0], traj.y_a[0], traj.psi[0]
    radius = params.wheelbase / math.tan(gamma)
    cx = x0 - d * math.cos(psi0) - radius * math.sin(psi0)
    cy = y0 - d * math.sin(psi0) + radius * math.cos(psi0)
    np.testing.assert_allclose(np.hypot(traj.x_a - cx, traj.y_a - cy),
                               math.hypot(radius, d), rtol=0, atol=1e-9)
    assert abs(traj.x_a[-1] - x0) < 1e-9
    assert abs(traj.y_a[-1] - y0) < 1e-9
    assert traj.psi[-1] == pytest.approx(psi0 + 2.0 * math.pi, abs=1e-9)


def _scalar_arc_chord(turn: float, v_dt: float, d: float) -> tuple[float, float]:
    """``bicycle._arc_chord`` for one step, in scalar ``math``."""
    if turn == 0.0:
        return v_dt, 0.0
    sin_turn = math.sin(turn)
    sin_half = math.sin(0.5 * turn)
    versine = 2.0 * sin_half * sin_half
    return v_dt * sin_turn / turn - d * versine, v_dt * versine / turn + d * sin_turn


def _scalar_earth_run(traj, cfg: ScenarioConfig) -> np.ndarray:
    """The earth run stepped row by row in floats from the run's steering.

    Each control update computes yaw_rate = V / l * tan(gamma) and the
    step's chord once; each step rotates the chord by the heading and
    advances the heading by yaw_rate * dt.
    """
    params, dt = cfg.vehicle, cfg.dt
    hold = 1 if cfg.control_dt is None else round(cfg.control_dt / dt)
    v_dt = params.speed * dt
    start = PathState(float(traj.s_d[0]), float(traj.e_d[0]), float(traj.theta_d[0]))
    x, y, psi = build_path(cfg.path_spec).to_earth(start)
    rows = [(x, y, psi)]
    for i in range(traj.t.size - 1):
        if i % hold == 0:
            yaw_rate = params.speed / params.wheelbase * math.tan(float(traj.gamma_des[i]))
            turn = yaw_rate * dt
            chord_x, chord_y = _scalar_arc_chord(turn, v_dt, params.sensor_offset)
        cos_psi = math.cos(psi)
        sin_psi = math.sin(psi)
        x = x + (cos_psi * chord_x - sin_psi * chord_y)
        y = y + (sin_psi * chord_x + cos_psi * chord_y)
        psi = psi + turn
        rows.append((x, y, psi))
    return np.array(rows).T


# Runs of 2 * POSE_SLICE_ROWS + 37 steps, so that two slices carry their
# last row into the next: the circle with the steering held for 10 steps,
# and the straight road from the path, where every turn is 0.
@pytest.mark.parametrize("frame", ["earth", "both"])
@pytest.mark.parametrize("road, control_dt, initial", [
    (PathSpec.circular(CIRCLE_RADIUS), 1e-2, PathState(0.0, -10.0, 0.0)),
    (PathSpec.straight(), None, PathState(0.0, 0.0, 0.0)),
], ids=["circular-hold-10", "straight-from-the-path"])
def test_earth_pass_equals_the_scalar_steps_bit_for_bit(road, control_dt, initial, frame):
    steps = 2 * sim.POSE_SLICE_ROWS + 37
    cfg = replace(make_scenario(road, t_end=steps * 1e-3, control_dt=control_dt,
                                initial=initial), frame=frame)
    traj, _ = run_scenario(cfg)
    assert traj.t.size == steps + 1
    if road.kind == "straight":
        assert not traj.gamma_des.any()
    expected = _scalar_earth_run(traj, cfg)
    names = ("x_a", "y_a", "psi") if frame == "earth" else ("earth_x", "earth_y", "earth_psi")
    for name, values in zip(names, expected):
        assert np.array_equal(getattr(traj, name), values), name


def test_numpy_sin_and_cos_equal_math_over_wide_headings():
    # The earth heading accumulates with every turn, so the earth pass takes
    # np.sin and np.cos of angles far outside [-1, 1]: seeded magnitudes,
    # 20,000 per decade from 1e-3 to 1e4, of either sign.
    rng = np.random.default_rng(24)
    x = rng.choice((-1.0, 1.0), 140_000) * 10.0 ** rng.uniform(-3.0, 4.0, 140_000)
    assert np.array_equal(np.sin(x), [math.sin(v) for v in x.tolist()])
    assert np.array_equal(np.cos(x), [math.cos(v) for v in x.tolist()])


def _drawn_scenario(rng) -> ScenarioConfig:
    """One accepted config: a straight, circular or cosine road, any
    variant, dt from 0.3 ms to 0.1 s and at most 2,000 steps."""
    kind = rng.choice(("straight", "circular", "cosine"))
    if kind == "straight":
        road = PathSpec.straight()
    elif kind == "circular":
        road = PathSpec.circular(float(rng.uniform(20.0, 500.0)))
    else:
        road = PathSpec.cosine(float(rng.uniform(0.0, 0.05)), float(rng.uniform(50.0, 500.0)),
                               int(rng.integers(1, 4)))
    vehicle = VehicleParams(wheelbase=float(rng.uniform(1.5, 4.0)),
                            sensor_offset=float(rng.uniform(-1.0, 4.0)),
                            max_steer=float(rng.uniform(0.2, 1.2)),
                            speed=float(rng.uniform(2.0, 35.0)))
    ctl = ControlConfig(k1=float(rng.uniform(-2.0, 1.0)), k2=float(rng.uniform(-0.5, 0.5)),
                        max_lat_accel=float(rng.uniform(1.0, 8.0)),
                        variant=str(rng.choice(VARIANTS)))
    dt = float(10.0 ** rng.uniform(math.log10(3e-4), -1.0))
    steps = int(rng.integers(2, 2001))
    return ScenarioConfig(path_spec=road, vehicle=vehicle, control=ctl,
                          initial=PathState(float(rng.uniform(0.0, 50.0)),
                                            float(rng.uniform(-5.0, 5.0)),
                                            float(rng.uniform(-1.0, 1.0))),
                          dt=dt, t_end=steps * dt, control_dt=dt * int(rng.integers(1, 11)),
                          frame="both")


def test_accepted_configs_fail_with_an_offsetsteer_error_or_stay_finite(record_property):
    # Every accepted config either raises a documented error or runs to its
    # horizon with finite columns, ahead of the curvature centre, and a
    # finite frame gap. Whether that gap shrinks at least 8x as dt is halved
    # is not asserted: past a cosine road's end kappa'' jumps and RK4 loses
    # its order, so such a rule needs runs kept on the road.
    rng = np.random.default_rng(7)
    outcomes = Counter()
    for k in range(200):
        try:
            # dt at or past h_max is refused; such a draw is not accepted.
            cfg = _drawn_scenario(rng)
        except ConfigError:
            outcomes["refused"] += 1
            continue
        try:
            traj, _ = run_scenario(cfg)
        except OffsetSteerError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        outcomes["ran"] += 1
        columns = [*traj.signals().values(), traj.earth_x, traj.earth_y, traj.earth_psi]
        assert all(np.isfinite(c).all() for c in columns), (k, cfg)
        assert (1.0 - traj.e_d * traj.kappa_d).min() > 0.0, (k, cfg)
        assert all(math.isfinite(gap) for gap in traj.frame_mismatch()), (k, cfg)
    # Most draws must run to their horizon, or the checks above see little.
    assert outcomes["ran"] >= 100, outcomes
    record_property("outcomes", dict(outcomes))


# The record is 13 columns (7.8 MB) wide for "path" and "earth" and 16
# (9.6 MB) for "both", which alone appends the earth run.
@pytest.mark.parametrize("frame", ["path", "both", "earth"])
def test_long_run_maps_its_pose_in_slices(frame):
    # 60,000 steps on the cosine road: the pose columns equal one array
    # mapping of the recorded rows bit for bit, and building them slice by
    # slice keeps the memory peak near the record's size.
    cfg = replace(make_scenario(cosine_spec()), frame=frame)
    tracemalloc.start()
    try:
        traj, _ = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.t.size == 60_001
    assert peak <= {"path": 11.0e6, "both": 12e6, "earth": 11.0e6}[frame], peak
    if frame == "earth":
        return
    whole = build_path(cfg.path_spec).to_earth(PathState(traj.s_d, traj.e_d, traj.theta_d))
    for name, values in zip(("x_a", "y_a", "psi"), whole):
        assert np.array_equal(getattr(traj, name), values), name


def test_short_run_fills_only_the_pose_grid_it_drives(monkeypatch):
    # 5 s at 20 m/s covers 100 m of the 1 km cosine road, whose grid holds
    # one 250 m period: the run fills the grid to the farthest node its poses
    # read, or less than one minimum pass further, and its coefficient array
    # holds at most twice the segments it filled.
    built = []

    def recording_build_path(spec):
        built.append(build_path(spec))
        return built[-1]

    monkeypatch.setattr(sim, "build_path", recording_build_path)
    traj, _ = run_scenario(make_scenario(cosine_spec(), t_end=5.0))
    grid = built[0]._grid
    reached = int(traj.s_d.max() / grid.h[0]) + 1
    assert POSE_GRID_MIN_PASS < reached <= grid._last < reached + POSE_GRID_MIN_PASS < grid.n
    assert grid.coef.shape[1] <= 2 * grid._last


def test_far_start_on_a_long_cosine_road_costs_one_period():
    # 1 s started 99.9 km along a 100 km cosine road: the grid fills at most
    # one 250 m period and sums it once for the period chords, where a grid
    # filled from the road's start took 1.7 s and 359 MB (max RSS). The
    # paper's road turns by pi/2 a period, so period 399 lies on period 3.
    spec = PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, 400)
    cfg = make_scenario(spec, k1=-WHEELBASE / SENSOR_OFFSET, t_end=1.0,
                        initial=PathState(99_900.0, -10.0, 0.0))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        traj, _ = run_scenario(cfg)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6 and seconds <= 1.0, (peak, seconds)
    path = build_path(spec)
    assert path._grid.n == COSINE_PERIOD / POSE_GRID_STEP
    far, near = path.pose(traj.s_d), path.pose(traj.s_d - 396 * COSINE_PERIOD)
    for got, want in zip(far[:2], near[:2]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_small_perturbations_follow_linear_model(params):
    # Matrix-exponential oracle for the reduced linear model on a constant
    # curvature; the nonlinear run must track it to 1% of the perturbation.
    kappa0 = 1.0 / CIRCLE_RADIUS
    theta_0 = desired_yaw_error(kappa0, params.sensor_offset)
    eps = 1e-3
    cfg = make_scenario(PathSpec.circular(CIRCLE_RADIUS),
                        initial=PathState(0.0, eps, theta_0), t_end=2.5)
    traj, _ = run_scenario(cfg)
    model = linearize(kappa0, -0.8, K2, params)
    x0 = np.array([eps, 0.0])
    worst = 0.0
    for t in np.arange(0.0, 2.5001, 0.1):
        i = int(round(t / cfg.dt))
        predicted = expm(model.a * t) @ x0
        actual = np.array([traj.e_d[i], traj.theta_hat[i]])
        worst = max(worst, float(np.linalg.norm(actual - predicted)))
    assert worst <= 0.01 * float(np.linalg.norm(x0))


def test_sway_converges_to_amplification_ratio(params):
    # Sampled-data yardstick for the frequency response: on a small cosine
    # road the steady sway is M(omega) * kappa_max / 2 up to a sampling error
    # that is first order in the control period h. The zero-order hold
    # delays the feedforward by h/2 on average, which shifts the ratio by
    # h * slope (README "Tests").
    kappa_max, period, k1, k2, periods = 1e-3, 250.0, -0.8, 0.02, 4
    # The curvature swings by kappa_max/2 about its mean kappa0 = kappa_max/2.
    kappa0 = 0.5 * kappa_max
    omega = 2.0 * math.pi * params.speed / period
    target = amplification(omega, kappa0, k1, k2, params) * kappa0
    ratio = {}
    for h in (5e-4, 2.5e-4):
        cfg = ScenarioConfig(PathSpec.cosine(kappa_max, period, periods), params,
                             benchmark_control("full", k1, k2), PathState(0.0, 0.0, 0.0),
                             dt=h, control_dt=h, frame="path",
                             t_end=1.05 * periods * period / params.speed)
        _, metrics = run_scenario(cfg)
        ratio[h] = metrics.sway_amplitude / target - 1.0
    # Richardson extrapolation to h -> 0 removes the first-order term.
    assert abs(2.0 * ratio[2.5e-4] - ratio[5e-4]) < 1e-4
    d, l = params.sensor_offset, params.wheelbase
    lam2 = lambdas(kappa0, k1, k2, params).lam2
    slope = -params.speed / (2.0 * d * (1.0 + d / l * lam2 * k1))
    assert (ratio[5e-4] - ratio[2.5e-4]) / 2.5e-4 == pytest.approx(slope, rel=0.01)


def test_naive_circular_steady_state_matches_fixed_point(runs):
    # Steady state of the rear-axle law on the ring road, solved to 40
    # digits from the stationarity conditions of the path dynamics plus the
    # control law: e = 0.4992263266, theta = -0.0100251917,
    # gamma_fb = 3.2797510754e-5.
    traj, metrics = runs("circular_naive")
    tail = slice(int(0.8 * traj.t.size), None)
    assert metrics.steady_e == pytest.approx(0.499226326635807, abs=1e-3)
    assert float(traj.theta_d[tail].mean()) == pytest.approx(-0.010025191707562, abs=1e-5)
    assert float(traj.gamma_fb[tail].mean()) == pytest.approx(3.27975107541637e-5, abs=1e-6)
    # Nonzero standing feedback and deviation are the point; the offset-aware
    # law removes both (checked in the acceptance suite).


def test_singularity_abort():
    # Start just inside the curvature-center guard band of a tight circle.
    cfg = ScenarioConfig(path_spec=PathSpec.circular(20.0),
                         vehicle=benchmark_params(),
                         control=benchmark_control("full"),
                         initial=PathState(0.0, 20.0 * (1.0 - 5e-7), 1.3),
                         dt=1e-3, t_end=10.0, frame="path")
    # The step's guard raises the rate guard's text, and the loop names the step.
    message = "curvature-center singularity: 1 - e*kappa = 5e-07 at s=0 (at t=0 s, s=0 m)"
    with pytest.raises(SingularityError, match=f"^{re.escape(message)}$"):
        run_scenario(cfg)


def test_step_across_the_curvature_centre_raises():
    # A guard on |1 - e*kappa| let this run go on to -0.394 and a 15.6 m gap
    # between the frames; the crossing is caught at a stage.
    message = ("curvature-center singularity: 1 - e*kappa = -0.0487 at s=104.205 "
               "(at t=3.67099 s, s=97.964 m)")
    with pytest.raises(SingularityError, match=f"^{re.escape(message)}$"):
        run_scenario(parse_config(CROSSING_YAML))


@pytest.mark.parametrize("e, denom", [(200.0, "0"), (250.0, "-0.25")])
def test_start_on_or_past_the_curvature_centre_raises_at_step_0(e, denom):
    cfg = make_scenario(PathSpec.circular(CIRCLE_RADIUS), t_end=1.0,
                        initial=PathState(0.0, e, 0.0))
    message = f"curvature-center singularity: 1 - e*kappa = {denom} at s=0 (at t=0 s, s=0 m)"
    with pytest.raises(SingularityError, match=f"^{re.escape(message)}$"):
        run_scenario(cfg)


@pytest.mark.parametrize("stage, s_stage", [(2, 0.01), (3, 0.01), (4, 0.02)])
def test_stage_singularity_reports_the_stage_and_the_step(stage, s_stage, monkeypatch):
    # Past the step's 1e-6 guard, a later RK4 stage can still meet 1 - e*kappa
    # = 0. The linear law with k2 = 0 steers straight from e = 0.5, theta = 0,
    # so every stage keeps e = 0.5; a road whose kappa turns to 1/e at that
    # stage's lookup drives its guard, which names the stage's s, and the
    # loop adds the step's t and s.
    kappas = iter([0.0] * (stage - 1))
    monkeypatch.setattr(Path, "curvature", lambda self, s: next(kappas, 2.0))
    cfg = make_scenario(PathSpec.straight(), "linear", k2=0.0, t_end=0.01,
                        initial=PathState(0.0, 0.5, 0.0))
    message = (f"curvature-center singularity: 1 - e*kappa = 0 at s={s_stage:g} "
               f"(at t=0 s, s=0 m)")
    with pytest.raises(SingularityError, match=f"^{re.escape(message)}$"):
        run_scenario(cfg)


@pytest.mark.parametrize("radius, offset", [(1e-307, 0.0), (1e-308, 0.0), (1e-308, 1e-320)])
def test_stage_rate_overflow_reports_divergence_and_the_step(radius, offset, monkeypatch):
    # A circle this tight is refused by the radius's range. On a road whose
    # lookup reads its curvature, kappa * a_s overflows to -inf inside the
    # first step, before the finiteness check at its end, and math.cos refuses
    # the stage's angle. The run and each compared variant report it as divergence.
    with pytest.raises(ConfigError, match=r"^radius must lie in \[1e-06, 1e\+06\] m, got "):
        PathSpec.circular(radius)
    monkeypatch.setattr(Path, "curvature", lambda self, s: 1.0 / radius)
    cfg = replace(make_scenario(PathSpec.circular(CIRCLE_RADIUS), t_end=1.0,
                                initial=PathState(0.0, 0.0, 0.0)),
                  vehicle=benchmark_params(sensor_offset=offset))
    message = "integration diverged: a stage rate overflowed (math domain error) (at t=0 s, s=0 m)"
    with pytest.raises(OffsetSteerError, match=f"^{re.escape(message)}$"):
        run_scenario(cfg)
    report = compare_controllers(cfg, ("naive", "full"))
    assert report.failures == {variant: f"OffsetSteerError: {message}"
                               for variant in ("naive", "full")}


def test_non_finite_state_reports_divergence_and_the_step(monkeypatch):
    # A wheelbase and offset whose d/l overflows to inf are refused by their
    # ranges. A road whose lookup reads NaN makes the stage rates NaN as d/l
    # did, and the state at the step's end is NaN. The error reports the
    # step's start, as every other loop failure does.
    with pytest.raises(ConfigError,
                       match=r"^wheelbase must lie in \[1e-06, 1e\+06\] m, got 1e-150$"):
        benchmark_params(wheelbase=1e-150, sensor_offset=1e300)
    monkeypatch.setattr(Path, "curvature", lambda self, s: math.nan)
    cfg = make_scenario(PathSpec.straight(), dt=0.01, t_end=0.05,
                        initial=PathState(5.0, -1.0, 0.0))
    message = "integration diverged: state (nan, nan, nan) (at t=0 s, s=5 m)"
    with pytest.raises(OffsetSteerError, match=f"^{re.escape(message)}$"):
        run_scenario(cfg)
    report = compare_controllers(cfg, VARIANTS)
    assert report.failures == {variant: f"OffsetSteerError: {message}" for variant in VARIANTS}


# -- metrics -----------------------------------------------------------------------

def test_settling_time_definition(runs):
    traj, metrics = runs("straight_full")
    above = np.flatnonzero(np.abs(traj.e_d) >= 0.01)
    assert metrics.settling_time == pytest.approx(traj.t[above[-1] + 1], abs=1e-12)
    assert 15.0 < metrics.settling_time < 20.0


def test_straight_run_has_no_overshoot(runs):
    _, metrics = runs("straight_full")
    assert metrics.overshoot == 0.0


def test_saturation_fraction_counts_bound_hits(runs):
    traj, metrics = runs("straight_full")
    assert metrics.saturation_fraction == pytest.approx(float(traj.fb_saturated.mean()))
    assert 0.0 < metrics.saturation_fraction < 0.2


def test_sway_window_uses_last_curvature_period(runs):
    traj, metrics = runs("cosine_full")
    lo = (COSINE_PERIODS - 1) * COSINE_PERIOD
    hi = COSINE_PERIODS * COSINE_PERIOD
    window = traj.e_d[(traj.s_d >= lo) & (traj.s_d <= hi)]
    assert metrics.sway_amplitude == pytest.approx(
        0.5 * (window.max() - window.min()), rel=1e-12)


def test_huge_finite_deviation_keeps_its_metrics_finite():
    # A start 1e308 m off a straight road, whose tail's plain sum overflowed,
    # is refused by the range of e. At the range's edge, 1e6 m off, every
    # e_D is finite, and so is the tail's mean.
    with pytest.raises(ConfigError, match=r"^initial e must lie in \[-1e\+06, 1e\+06\] m, "
                                          r"got 1e\+308$"):
        make_scenario(PathSpec.straight(), initial=PathState(0.0, 1e308, 0.0))
    cfg = make_scenario(PathSpec.straight(), dt=0.01, t_end=1.0,
                        initial=PathState(0.0, 1e6, 0.0))
    traj, metrics = run_scenario(cfg)
    tail = traj.e_d[-(traj.e_d.size // 5):]
    assert np.isfinite(traj.e_d).all()
    assert metrics.steady_e == pytest.approx(float(sum(map(Fraction, tail)) / tail.size),
                                             rel=1e-14)
    assert math.isfinite(metrics.sway_amplitude)


# -- controller comparisons -----------------------------------------------------------

def test_compare_straight_variants_identical():
    cfg = make_scenario(PathSpec.straight(), t_end=10.0)
    report = compare_controllers(cfg, ("naive", "full"))
    assert not report.failures
    for signal, delta in report.deltas["full"].items():
        assert delta < 1e-12, signal


def test_compare_cosine_quantifies_sway_gap(runs):
    _, full = runs("cosine_full")
    _, naive = runs("cosine_naive")
    assert full.sway_amplitude < 0.05
    assert naive.sway_amplitude > 5.0 * full.sway_amplitude


def test_compare_records_failures_per_variant():
    # The linear law turns a quarter-kilometer error into a command beyond
    # pi/2, which the plant rejects; the full law survives the same start.
    cfg = make_scenario(PathSpec.straight(), t_end=5.0,
                        initial=PathState(0.0, -math.pi / K2, 0.0))
    report = compare_controllers(cfg, ("full", "linear"))
    assert "full" in report.results
    assert "linear" in report.failures
    assert "DomainError" in report.failures["linear"]


def test_compare_rejects_a_repeated_variant():
    cfg = make_scenario(PathSpec.straight(), t_end=1.0)
    with pytest.raises(ConfigError, match="once"):
        compare_controllers(cfg, ("full", "naive", "full"))


@pytest.mark.parametrize("cfg", [
    # The linear law turns the quarter-kilometer error into a command beyond pi/2.
    make_scenario(PathSpec.straight(), "linear", t_end=5.0,
                  initial=PathState(0.0, -math.pi / K2, 0.0)),
    # The ring road is too tight for the sensor offset.
    make_scenario(PathSpec.circular(1.5), "naive", t_end=1.0),
], ids=["steer-beyond-half-pi", "untrackable"])
def test_step_errors_name_time_and_place(cfg):
    with pytest.raises(DomainError, match=r"\(at t=0 s, s=0 m\)$"):
        run_scenario(cfg)


def test_table_ending_ahead_of_the_run_fails_inside_a_step():
    # 3 s at 20 m/s passes the 50 m table end. The step that starts just
    # short of it fails at a later RK4 stage, and the error names the
    # step's start, which lies inside the table.
    spec = PathSpec.sampled([0.0, 25.0, 50.0], [0.0, 0.002, 0.0])
    cfg = make_scenario(spec, t_end=3.0, initial=PathState(0.0, 0.0, 0.0))
    with pytest.raises(DomainError) as info:
        run_scenario(cfg)
    message = str(info.value)
    assert "outside sampled table range [0, 50]" in message
    found = re.fullmatch(r"s=(\S+) outside .* \(at t=\S+ s, s=(\S+) m\)", message)
    assert found, message
    stage_s, step_s = (float(v) for v in found.groups())
    assert step_s <= 50.0 < stage_s


def test_sampled_profile_reproduces_analytic_run():
    # A 0.5 m tabulation of the cosine profile drives the loop through the
    # sampled-path machinery; the trajectory must match the analytic kind.
    s_tab = np.arange(0.0, 1201.0, 0.5)
    omega = 2.0 * math.pi / COSINE_PERIOD
    k_tab = np.where(s_tab <= COSINE_PERIODS * COSINE_PERIOD,
                     0.5 * COSINE_KAPPA_MAX * (1.0 - np.cos(omega * s_tab)), 0.0)
    sampled = make_scenario(PathSpec.sampled(s_tab, k_tab), t_end=20.0)
    analytic = make_scenario(cosine_spec(), t_end=20.0)
    traj_s, _ = run_scenario(sampled)
    traj_a, _ = run_scenario(analytic)
    assert np.abs(traj_s.e_d - traj_a.e_d).max() < 1e-5
    assert np.abs(traj_s.s_d - traj_a.s_d).max() < 1e-4


# -- artifacts ------------------------------------------------------------------------

def test_trajectory_csv_layout(tmp_path):
    cfg = make_scenario(PathSpec.straight(), t_end=0.1)
    traj, metrics = run_scenario(cfg)
    out = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 1 + traj.t.size
    row = [float(v) for v in lines[1].split(",")]
    assert row[:3] == [0.0, 0.0, -10.0]
    write_trajectory_csv(traj, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()


def _reference_trajectory_csv(traj, path):
    """The writer's former form: every value of every row formatted as it comes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in zip(*traj.signals().values()):
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _assert_matches_reference(traj, tmp_path):
    write_trajectory_csv(traj, tmp_path / "got.csv")
    _reference_trajectory_csv(traj, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    return got


@pytest.mark.parametrize("spec", [PathSpec.straight(), PathSpec.circular(CIRCLE_RADIUS)],
                         ids=["straight", "circular"])
def test_trajectory_csv_matches_the_reference_writer_byte_for_byte(tmp_path, spec):
    traj, _ = run_scenario(make_scenario(spec, t_end=2.0))
    # These roads hold theta_0, gamma_ff and kappa_D fixed.
    for column in (traj.theta_0, traj.gamma_ff, traj.kappa_d):
        assert np.all(column.view(np.int64) == column.view(np.int64)[0])
    _assert_matches_reference(traj, tmp_path)


def _synthetic_trajectory(n=5, **columns):
    rng = np.random.default_rng(11)
    fields = {name.lower(): rng.normal(size=n) for name in TRAJECTORY_COLUMNS}
    fields.update(columns)
    return sim.Trajectory(**fields, g_sat=0.1, fb_saturated=np.zeros(n, dtype=bool))


def test_trajectory_csv_keeps_a_lone_negative_zero(tmp_path):
    kappa = np.zeros(5)
    kappa[2] = -0.0
    got = _assert_matches_reference(_synthetic_trajectory(kappa_d=kappa), tmp_path)
    assert [line.rsplit(b",", 1)[1] for line in got.splitlines()[1:]] == [
        b"0", b"0", b"-0", b"0", b"0"]


@pytest.mark.parametrize("columns", [
    {"e_d": np.full(5, np.nan)},
    {"gamma_ff": np.array([1.5, 1.5, 1.5, 1.5, -2.25])},
], ids=["all-nan", "changes-in-the-last-row"])
def test_trajectory_csv_fixed_and_nearly_fixed_columns(tmp_path, columns):
    _assert_matches_reference(_synthetic_trajectory(**columns), tmp_path)


def test_trajectory_csv_with_every_column_fixed_writes_every_row(tmp_path):
    n = 4
    traj = _synthetic_trajectory(n, **{name.lower(): np.full(n, 0.1 * i - 0.5)
                                       for i, name in enumerate(TRAJECTORY_COLUMNS)})
    got = _assert_matches_reference(traj, tmp_path)
    assert len(got.splitlines()) == 1 + n


def test_trajectory_csv_over_several_chunks_matches_the_reference_writer(tmp_path):
    # More rows than one chunk and not a multiple of it: the last chunk is short.
    n = 2 * (_writer.CHUNK_VALUES // len(TRAJECTORY_COLUMNS)) + 37
    rng = np.random.default_rng(5)
    columns = {name.lower(): rng.normal(size=n) * 10.0 ** rng.integers(-8, 18, size=n)
               for name in TRAJECTORY_COLUMNS}
    columns["kappa_d"][::3] = 0.0
    got = _assert_matches_reference(_synthetic_trajectory(n, **columns), tmp_path)
    assert len(got.splitlines()) == 1 + n


def test_metrics_files(tmp_path):
    cfg = make_scenario(PathSpec.straight(), t_end=0.5)
    _, metrics = run_scenario(cfg)
    write_metrics(metrics, tmp_path / "m.txt", tmp_path / "m.json")
    text = (tmp_path / "m.txt").read_text()
    assert "steady_e_m=" in text and "saturation_fraction=" in text
    import json
    data = json.loads((tmp_path / "m.json").read_text())
    assert set(data) == set(metrics.as_dict())


def test_config_validation_errors():
    with pytest.raises(OffsetSteerError):
        ScenarioConfig(path_spec=PathSpec.straight(), vehicle=benchmark_params(),
                       control=benchmark_control(), initial=PathState(0, 0, 0),
                       dt=-1.0)
    with pytest.raises(OffsetSteerError):
        ScenarioConfig(path_spec=PathSpec.straight(), vehicle=benchmark_params(),
                       control=benchmark_control(), initial=PathState(0, 0, 0),
                       dt=1e-3, control_dt=2.5e-3)
    with pytest.raises(OffsetSteerError):
        ScenarioConfig(path_spec=PathSpec.straight(), vehicle=benchmark_params(),
                       control=benchmark_control(), initial=PathState(0, 0, 0),
                       dt=1e-3, frame="sideways")
    with pytest.raises(OffsetSteerError, match="settle_threshold"):
        ScenarioConfig(path_spec=PathSpec.straight(), vehicle=benchmark_params(),
                       control=benchmark_control(), initial=PathState(0, 0, 0),
                       dt=1e-3, settle_threshold=-1.0)


@pytest.mark.parametrize("initial", [
    PathState(math.nan, 0.0, 0.0), PathState(math.inf, 0.0, 0.0),
    PathState(0.0, math.nan, 0.0), PathState(0.0, -math.inf, 0.0),
    PathState(0.0, 0.0, math.nan), PathState(0.0, 0.0, math.inf),
], ids=["s-nan", "s-inf", "e-nan", "e-minus-inf", "theta-nan", "theta-inf"])
def test_non_finite_initial_state_is_a_config_error(initial):
    with pytest.raises(ConfigError, match="initial"):
        run_scenario(make_scenario(cosine_spec(), t_end=1.0, initial=initial))


@pytest.mark.parametrize("spec, initial, horizon", [
    (PathSpec.straight(), PathState(0.0, 0.0, 0.0), 30.0),
    # Started past the end of its table, a sampled road has no time left.
    (PathSpec.sampled([0.0, 500.0, 1000.0], [0.0, 0.002, 0.0]), PathState(1100.0, 0.0, 0.0),
     -4.5),
], ids=["straight", "sampled-past-its-end"])
def test_dt_must_be_below_the_default_horizon(spec, initial, horizon):
    # The rule dt < t_end holds for the default horizon as for a given one.
    message = (f"t_end must be finite and exceed dt (30.0), got {horizon}"
               " (the road's default horizon)")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make_scenario(spec, dt=30.0, initial=initial)
    if horizon > 0.0:
        # Below h_max = 0.309 s, the longest step the linear loop allows.
        assert make_scenario(spec, dt=0.3, initial=initial).resolved_t_end() == horizon


@pytest.mark.parametrize("t_end", [None, 30.0], ids=["default-horizon", "t_end"])
@pytest.mark.parametrize("s", [-10.0, math.nextafter(0.0, -1.0), math.nextafter(1000.0, 2000.0),
                               1100.0], ids=["before", "just-before", "just-past", "past"])
def test_sampled_road_must_start_inside_its_table(s, t_end):
    spec = PathSpec.sampled([0.0, 500.0, 1000.0], [0.0, 0.002, 0.0])
    for inside in (0.0, 999.0 if t_end is None else 1000.0):
        make_scenario(spec, t_end=t_end, initial=PathState(inside, 0.0, 0.0))
    if t_end is None and s > 1000.0:
        match = "the road's default horizon"  # no time left: that check comes first
    else:
        match = "^" + re.escape(f"initial s={s:.6g} outside sampled table range [0, 1000]") + "$"
    with pytest.raises(ConfigError, match=match):
        make_scenario(spec, t_end=t_end, initial=PathState(s, 0.0, 0.0))


def test_untrackable_path_aborts():
    cfg = ScenarioConfig(path_spec=PathSpec.circular(1.5),
                         vehicle=benchmark_params(),
                         control=benchmark_control("naive"),
                         initial=PathState(0.0, 0.0, 0.0),
                         dt=1e-3, t_end=1.0, frame="path")
    with pytest.raises(OffsetSteerError):
        run_scenario(cfg)


@pytest.mark.parametrize("offset", [-1.0, 0.5, 2.0])
def test_exact_stability_condition_matches_the_simulated_decay(offset):
    # On the straight road, 0.01 m off the path: |e| falls at least 10x over
    # eight slow time constants (at least 1 s) exactly when the exact sign conditions hold.
    # The gains are drawn clear of the stability boundary; an unstable pair
    # may instead stop the run at the model's domain.
    params = benchmark_params(sensor_offset=offset)
    rng = np.random.default_rng(17)
    verdicts = Counter()
    while sum(verdicts.values()) < 6:
        k1, k2 = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0))
        verdict = is_stable(0.0, k1, k2, params)
        rate = min(abs(root.real) for root in verdict.eigenvalues)
        if rate < 0.5 or verdicts[verdict.necessary_sufficient] >= 3:
            continue
        verdicts[verdict.necessary_sufficient] += 1
        cfg = replace(make_scenario(PathSpec.straight(), "full", k1=k1, k2=k2,
                                    t_end=min(max(8.0 / rate, 1.0), 10.0),
                                    initial=PathState(0.0, 0.01, 0.0)),
                      vehicle=params, frame="path")
        try:
            traj, _ = run_scenario(cfg)
        except (DomainError, SingularityError):
            assert not verdict.necessary_sufficient, (k1, k2)
            continue
        last = traj.t >= traj.t[-1] - 1.0 / rate
        decayed = np.abs(traj.e_d[last]).max() <= 0.001
        assert decayed == verdict.necessary_sufficient, (k1, k2, verdict.eigenvalues)
