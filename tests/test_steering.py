"""Steering law: wrapper, feedforward, feedback, and variant behavior."""

import logging
import math
import struct
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from offsetsteer import (VARIANTS, ConfigError, ControlConfig, DomainError,
                         PathState, control, desired_heading, desired_yaw_error,
                         feedforward, feedforward_error,
                         max_allowable_steer, rear_axle_lateral_accel, steering,
                         wrapper)

from conftest import MAX_LAT_ACCEL, benchmark_control, benchmark_params

G_SAT = 0.025694344043585789  # comfort-limited steering bound at 20 m/s [rad]


# -- wrapper -----------------------------------------------------------------

def test_wrapper_at_origin_and_asymptote():
    assert wrapper(0.0, G_SAT) == 0.0
    assert abs(wrapper(1e6, G_SAT)) > 0.999 * G_SAT
    assert abs(wrapper(1e6, G_SAT)) <= G_SAT


def test_wrapper_unit_slope_at_origin():
    h = 1e-7
    slope = (wrapper(h, G_SAT) - wrapper(-h, G_SAT)) / (2.0 * h)
    assert slope == pytest.approx(1.0, abs=1e-6)


@given(st.floats(-1e6, 1e6))
def test_wrapper_odd_and_bounded(x):
    y = wrapper(x, G_SAT)
    assert abs(y) <= G_SAT
    assert y == pytest.approx(-wrapper(-x, G_SAT), rel=1e-12, abs=1e-300)


def test_wrapper_incremental_gain_decays():
    # Moving the same-width interval away from the origin can only lower
    # the average slope.
    xs = np.linspace(0.0, 0.5, 200)
    width = 0.01
    gains = [(wrapper(x + width, G_SAT) - wrapper(x, G_SAT)) / width for x in xs]
    assert all(a >= b - 1e-15 for a, b in zip(gains, gains[1:]))


# -- bounds ------------------------------------------------------------------

def test_max_allowable_steer_values(params):
    assert max_allowable_steer(params, 4.0) == pytest.approx(G_SAT, rel=1e-14)
    slow = benchmark_params(speed=5.0)
    assert max_allowable_steer(slow, 4.0) == pytest.approx(0.39012410748281677, rel=1e-13)
    crawl = benchmark_params(speed=1e-3)
    assert max_allowable_steer(crawl, 4.0) == params.max_steer


# -- feedforward -------------------------------------------------------------

def test_feedforward_zero_curvature(params):
    for variant in ("full", "naive", "unwrapped", "linear"):
        assert feedforward(0.0, params, variant) == 0.0


def test_feedforward_full_value_and_circle_construction(params):
    got = feedforward(0.005, params, "full")
    assert got == pytest.approx(0.012849935237460149, rel=1e-14)
    # Independent geometric route: concentric circles of radius rho around
    # the rotation center give tan(gamma) = l / sqrt(rho^2 - d^2).
    rho = 200.0
    geometric = math.atan(params.wheelbase / math.sqrt(rho ** 2 - params.sensor_offset ** 2))
    assert got == pytest.approx(geometric, rel=1e-14)


def test_feedforward_odd_in_curvature(params):
    for kappa in (0.001, 0.01, 0.1):
        assert feedforward(-kappa, params, "full") == -feedforward(kappa, params, "full")


def test_feedforward_untrackable(params):
    with pytest.raises(DomainError):
        feedforward(0.5, params, "full")
    # The rear-axle form stays defined there; only the offset-aware one fails.
    assert feedforward(0.5, params, "naive") == math.atan(params.wheelbase * 0.5)


def test_feedforward_error_values(params):
    assert feedforward_error(0.0, params) == 0.0
    assert feedforward_error(0.05, params) == pytest.approx(
        0.0006367913435330221, rel=1e-12)
    far = benchmark_params(sensor_offset=4.0)
    assert feedforward_error(0.05, far) == pytest.approx(
        0.0026058417287673003, rel=1e-12)
    assert feedforward_error(0.05, far) > feedforward_error(0.05, params)


# -- desired heading / yaw error ----------------------------------------------

def test_desired_yaw_error_values():
    assert desired_yaw_error(0.0, 2.0) == 0.0
    assert desired_yaw_error(0.123, 0.0) == 0.0
    assert desired_yaw_error(0.005, 2.0) == pytest.approx(
        -0.010000166674167113, rel=1e-13)
    with pytest.raises(DomainError):
        desired_yaw_error(0.5, 2.0)


def test_desired_heading_nonlinear_saturates():
    assert desired_heading(0.0, 0.02) == 0.0
    assert desired_heading(1e12, 0.02) == pytest.approx(-math.pi / 2, abs=1e-6)
    assert desired_heading(-1e12, 0.02) == pytest.approx(math.pi / 2, abs=1e-6)


def test_desired_heading_linear_wraps_past_pi():
    # With e = pi/k2 the linear law asks for a heading parallel to the path
    # (a full half-turn), the failure mode the nonlinear form avoids.
    k2 = 0.02
    assert desired_heading(math.pi / k2, k2, "linear") == pytest.approx(-math.pi)
    assert abs(desired_heading(math.pi / k2, k2, "full")) < math.pi / 2


# -- feedback ----------------------------------------------------------------

def test_feedback_zero_at_equilibrium(params):
    cfg = benchmark_control("full")
    kappa = 0.005
    theta_0 = desired_yaw_error(kappa, params.sensor_offset)
    assert control(PathState(0.0, 0.0, theta_0), kappa, cfg, params).gamma_fb == 0.0


def test_feedback_reference_value(params):
    cfg = benchmark_control("full")
    got = control(PathState(0.0, -10.0, 0.0), 0.0, cfg, params).gamma_fb
    assert got == pytest.approx(0.024005996439577642, rel=1e-12)
    # Large initial deviation drives the command close to its bound.
    assert got > 0.9 * max_allowable_steer(params, cfg.max_lat_accel)


def test_feedback_matches_linearization_for_small_errors(params):
    cfg = benchmark_control("full")
    e, dtheta = 1e-4, 1e-4
    full = control(PathState(0.0, e, dtheta), 0.0, cfg, params).gamma_fb
    linear = cfg.k1 * dtheta + cfg.k1 * cfg.k2 * e
    assert abs(full - linear) < 1e-6


def test_feedback_bounded_for_wrapped_variants(params):
    rng = np.random.default_rng(17)
    for variant in ("full", "naive"):
        cfg = benchmark_control(variant)
        for _ in range(200):
            e = rng.uniform(-1e4, 1e4)
            theta = rng.uniform(-math.pi, math.pi)
            kappa = rng.uniform(-0.2, 0.2)
            fb = control(PathState(0.0, e, theta), kappa, cfg, params).gamma_fb
            assert abs(fb) <= max_allowable_steer(params, cfg.max_lat_accel)


def test_feedback_odd_about_equilibrium(params):
    cfg = benchmark_control("full")
    rng = np.random.default_rng(23)
    for _ in range(100):
        e = rng.uniform(-50, 50)
        dtheta = rng.uniform(-1, 1)
        kappa = rng.uniform(-0.2, 0.2)
        pos = control(PathState(0.0, e, desired_yaw_error(kappa, 2.0) + dtheta), kappa,
                      cfg, params).gamma_fb
        neg = control(PathState(0.0, -e, desired_yaw_error(-kappa, 2.0) - dtheta), -kappa,
                      cfg, params).gamma_fb
        assert neg == pytest.approx(-pos, rel=1e-12, abs=1e-15)


def test_feedback_unwrapped_and_linear_forms(params):
    cfg_u = benchmark_control("unwrapped")
    cfg_l = benchmark_control("linear")
    e, theta = -3.0, 0.2
    assert control(PathState(0.0, e, theta), 0.0, cfg_u, params).gamma_fb == pytest.approx(
        cfg_u.k1 * (theta + math.atan(cfg_u.k2 * e)), rel=1e-15)
    assert control(PathState(0.0, e, theta), 0.0, cfg_l, params).gamma_fb == pytest.approx(
        cfg_l.k1 * theta + cfg_l.k1 * cfg_l.k2 * e, rel=1e-15)


def test_feedback_implies_lateral_accel_bound(params):
    # With the comfort branch of the bound active, any feedback-only command
    # keeps the rear-axle lateral acceleration under the configured limit.
    cfg = benchmark_control("full")
    rng = np.random.default_rng(29)
    g_sat = max_allowable_steer(params, cfg.max_lat_accel)
    cap = params.speed ** 2 * math.tan(g_sat) / params.wheelbase
    assert cap <= cfg.max_lat_accel + 1e-12
    for _ in range(100):
        state = PathState(0.0, rng.uniform(-100, 100), rng.uniform(-3, 3))
        fb = control(state, 0.0, cfg, params).gamma_fb
        assert rear_axle_lateral_accel(params.speed, fb, params.wheelbase) < cap + 1e-15


# -- composed command ---------------------------------------------------------

def test_control_on_circular_equilibrium(params):
    cfg = benchmark_control("full")
    kappa = 0.005
    theta_0 = desired_yaw_error(kappa, params.sensor_offset)
    dec = control(PathState(0.0, 0.0, theta_0), kappa, cfg, params)
    assert dec.gamma_fb == 0.0
    assert dec.gamma_des == dec.gamma_ff


def test_control_full_equals_naive_on_straight(params):
    rng = np.random.default_rng(31)
    cfg_full = benchmark_control("full")
    cfg_naive = benchmark_control("naive")
    for _ in range(100):
        state = PathState(0.0, rng.uniform(-50, 50), rng.uniform(-1.5, 1.5))
        a = control(state, 0.0, cfg_full, params)
        b = control(state, 0.0, cfg_naive, params)
        assert a == b


def test_control_full_equals_naive_without_offset():
    p = benchmark_params(sensor_offset=0.0)
    cfg_full = benchmark_control("full")
    cfg_naive = benchmark_control("naive")
    rng = np.random.default_rng(37)
    for _ in range(100):
        state = PathState(0.0, rng.uniform(-20, 20), rng.uniform(-1, 1))
        kappa = rng.uniform(-0.1, 0.1)
        assert control(state, kappa, cfg_full, p) == control(state, kappa, cfg_naive, p)


def test_control_naive_ignores_heading_offset(params):
    cfg = benchmark_control("naive")
    kappa = 0.005
    dec = control(PathState(0.0, 0.0, 0.0), kappa, cfg, params)
    assert dec.gamma_fb == 0.0  # believes it sits at the set point
    assert desired_yaw_error(kappa, params.sensor_offset) != 0.0


def test_control_sum_decomposition_and_saturation_flag(params):
    cfg = benchmark_control("full")
    dec = control(PathState(0.0, -10.0, 0.0), 0.0, cfg, params)
    assert dec.gamma_des == dec.gamma_ff + dec.gamma_fb
    # The wrapper is actively limiting.
    assert abs(dec.fb_input) > max_allowable_steer(params, cfg.max_lat_accel)


def test_control_agrees_with_its_parts(params):
    # The composed command reports exactly the public parts' values, on a
    # plain config: the feedback bound comes from the vehicle and the limit.
    g_sat = max_allowable_steer(params, MAX_LAT_ACCEL)
    rng = np.random.default_rng(41)
    for variant in VARIANTS:
        cfg = benchmark_control(variant)
        for _ in range(200):
            e = rng.uniform(-50, 50)
            theta = rng.uniform(-math.pi, math.pi)
            kappa = rng.uniform(-0.2, 0.2)
            dec = control(PathState(0.0, e, theta), kappa, cfg, params)
            assert dec.gamma_ff == feedforward(kappa, params, variant)
            if variant in ("full", "naive"):
                assert dec.gamma_fb == wrapper(dec.fb_input, g_sat)
            else:
                assert dec.gamma_fb == dec.fb_input


def test_control_uses_d_kappa_once(params, monkeypatch):
    # One update of the full law takes one asin. It calls check_trackable
    # only when d*kappa fails its range test: NaN passes through, and
    # |d*kappa| >= 1 raises.
    calls = {"check_trackable": 0, "asin": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(steering, "check_trackable",
                        counted("check_trackable", steering.check_trackable))
    fake_math = types.SimpleNamespace(**vars(math))
    fake_math.asin = counted("asin", math.asin)
    monkeypatch.setattr(steering, "math", fake_math)
    cfg = benchmark_control("full")
    control(PathState(0.0, 0.5, 0.1), 0.005, cfg, params)
    assert calls == {"check_trackable": 0, "asin": 1}
    control(PathState(0.0, 0.5, 0.1), math.nan, cfg, params)
    assert calls == {"check_trackable": 1, "asin": 2}
    with pytest.raises(DomainError):
        control(PathState(0.0, 0.5, 0.1), 1.0 / params.sensor_offset, cfg, params)
    assert calls == {"check_trackable": 2, "asin": 2}


def _composed_law(cfg: ControlConfig, params, e: float, theta: float, kappa: float):
    """The law's tuple built from its public homes, one function per term."""
    variant = cfg.variant
    gamma_ff = feedforward(kappa, params, variant)
    theta_0 = desired_yaw_error(kappa, params.sensor_offset) if variant == "full" else None
    if variant == "linear":
        raw = cfg.k1 * theta + cfg.k1 * cfg.k2 * e
    else:
        aim = theta_0 if variant == "full" else 0.0
        raw = cfg.k1 * (theta - aim - desired_heading(e, cfg.k2, variant))
    if variant not in ("full", "naive"):
        return gamma_ff + raw, gamma_ff, raw, raw, theta_0
    gamma_fb = wrapper(raw, max_allowable_steer(params, cfg.max_lat_accel))
    gamma_des = gamma_ff + gamma_fb
    if abs(gamma_des) > params.max_steer:
        gamma_des = math.copysign(params.max_steer, gamma_des)
    return gamma_des, gamma_ff, gamma_fb, raw, theta_0


def _outcome(fn, *args):
    """A tuple's bits, None kept, or the text of the DomainError it raised."""
    try:
        values = fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"
    return tuple(v if v is None else struct.pack("<d", v) for v in values)


@pytest.mark.parametrize("variant", VARIANTS)
def test_bound_law_equals_the_law_composed_from_its_homes(variant):
    # steering._law writes each formula out once more, for speed; this ties
    # every copy to its home bit for bit, over random vehicles and gains,
    # d = 0, NaN and infinite kappa, kappas near the capability that trip
    # the clip, and |d*kappa| >= 1.
    generator = np.random.default_rng(29)

    def uniform(lo, hi, size=None):
        # Python floats, as the loop passes.
        return np.asarray(generator.uniform(lo, hi, size)).tolist()

    clipped = raised = 0
    for trial in range(40):
        params = benchmark_params(
            wheelbase=uniform(1.0, 5.0),
            sensor_offset=0.0 if trial % 4 == 0 else uniform(-3.0, 5.0),
            max_steer=uniform(0.2, 1.2), speed=uniform(1.0, 40.0))
        cfg = ControlConfig(k1=uniform(-3.0, 3.0), k2=uniform(-1.0, 1.0),
                            max_lat_accel=uniform(0.5, 10.0), variant=variant)
        law = steering._law(cfg, params)
        limits = {struct.pack("<d", sign * params.max_steer) for sign in (1.0, -1.0)}
        d, tan_max = params.sensor_offset, math.tan(params.max_steer)
        capability = tan_max / math.hypot(params.wheelbase, tan_max * d)
        kappas = [*uniform(-0.3, 0.3, 30), 0.0, -0.0, math.nan, math.inf, -math.inf,
                  0.999 * capability, -0.999 * capability]
        if d != 0.0:
            kappas += [1.0 / d, -1.0 / d, 1.5 / d, 0.999 / d]
        for kappa in kappas:
            for e, theta in (*zip(uniform(-50.0, 50.0, 3), uniform(-math.pi, math.pi, 3)),
                             (0.0, -math.copysign(1.0, kappa)), (-0.0, -0.0)):
                got = _outcome(law, e, theta, kappa)
                assert got == _outcome(_composed_law, cfg, params, e, theta, kappa), \
                    (trial, kappa, e, theta)
                raised += isinstance(got, str)
                clipped += not isinstance(got, str) and got[0] in limits
    # The special cases were reached: the clip on the wrapped variants, the
    # DomainError on the full law only.
    assert (clipped > 0) == (variant in ("full", "naive"))
    assert (raised > 0) == (variant == "full")


def test_control_clamps_to_physical_limit(params, caplog):
    # Near the curvature capability the feedforward alone is close to the
    # physical limit; adding feedback must not push past it.
    cfg = benchmark_control("full")
    kappa = 0.2049
    with caplog.at_level(logging.WARNING):
        dec = control(PathState(0.0, 0.0, -1.0), kappa, cfg, params)
    assert dec.gamma_fb > 0.9 * max_allowable_steer(params, cfg.max_lat_accel)
    assert abs(dec.gamma_des) == params.max_steer
    assert any("clipped" in rec.message for rec in caplog.records)


def test_config_validation():
    with pytest.raises(ConfigError):
        ControlConfig(k1=-0.8, k2=0.02, max_lat_accel=4.0, variant="bogus")
    with pytest.raises(ConfigError):
        ControlConfig(k1=-0.8, k2=0.02, max_lat_accel=0.0)
    with pytest.raises(ConfigError, match="k1"):
        ControlConfig(k1=math.nan, k2=0.02, max_lat_accel=4.0)
    with pytest.raises(ConfigError, match="k2"):
        ControlConfig(k1=-0.8, k2=math.nan, max_lat_accel=4.0)
