"""Bicycle-model dynamics in the earth, path, and shifted path frames."""

import math

import numpy as np
import pytest

from offsetsteer import (ConfigError, DomainError, EarthState, HatPathState,
                         PathSpec, PathState, SingularityError,
                         build_path, desired_yaw_error, earth_derivatives,
                         hat_path_derivatives, path_derivatives,
                         rear_axle_lateral_accel, step_rk4)

from conftest import benchmark_params


def test_params_validation():
    with pytest.raises(ConfigError):
        benchmark_params(wheelbase=0.0)
    with pytest.raises(ConfigError):
        benchmark_params(speed=-1.0)
    with pytest.raises(ConfigError):
        benchmark_params(max_steer=math.pi / 2)
    for offset in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="sensor_offset"):
            benchmark_params(sensor_offset=offset)


def test_earth_straight_rolling(params):
    assert earth_derivatives(EarthState(0.0, 0.0, 0.0), 0.0, params) == (20.0, 0.0, 0.0)


def test_earth_rear_axle_velocity_aligned_with_heading():
    p = benchmark_params(sensor_offset=0.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        psi = rng.uniform(-math.pi, math.pi)
        steer = rng.uniform(-1.2, 1.2)
        xd, yd, _ = earth_derivatives(EarthState(0.0, 0.0, psi), steer, p)
        assert xd == pytest.approx(p.speed * math.cos(psi), rel=1e-14)
        assert yd == pytest.approx(p.speed * math.sin(psi), rel=1e-14)


def test_earth_derivatives_reference_point(params):
    xd, yd, psid = earth_derivatives(EarthState(3.0, -7.0, 0.0), 0.1, params)
    assert xd == pytest.approx(20.0, rel=1e-15)
    assert yd == pytest.approx(1.5616291375167400, rel=1e-13)
    assert psid == pytest.approx(0.7808145687583700, rel=1e-13)


def test_earth_steering_domain(params):
    with pytest.raises(DomainError):
        earth_derivatives(EarthState(0.0, 0.0, 0.0), math.pi / 2, params)


def test_path_perfect_straight_tracking(params):
    assert path_derivatives(PathState(0.0, 0.0, 0.0), 0.0, params, 0.0) == (20.0, 0.0, 0.0)


def test_path_rear_axle_circular_equilibrium():
    p = benchmark_params(sensor_offset=0.0)
    kappa = 0.01
    steer = math.atan(p.wheelbase * kappa)
    s_dot, e_dot, theta_dot = path_derivatives(PathState(0.0, 0.0, 0.0), steer, p, kappa)
    assert e_dot == pytest.approx(0.0, abs=1e-15)
    assert theta_dot == pytest.approx(0.0, abs=1e-15)
    assert s_dot == pytest.approx(p.speed, rel=1e-15)


def test_path_derivatives_reference_point(params):
    s_dot, e_dot, theta_dot = path_derivatives(
        PathState(0.0, -10.0, 0.0), 0.02, params, 0.0)
    assert s_dot == pytest.approx(20.0, rel=1e-15)
    assert e_dot == pytest.approx(0.31132555787396769, rel=1e-13)
    assert theta_dot == pytest.approx(0.15566277893698384, rel=1e-13)


def test_path_singularity_raises(params):
    with pytest.raises(SingularityError):
        path_derivatives(PathState(0.0, 200.0, 0.0), 0.0, params, 0.005)


def test_path_rates_raise_past_the_curvature_centre(params):
    # 1 - e*kappa = -0.5: the far side of the centre, however far from zero.
    with pytest.raises(SingularityError, match="1 - e\\*kappa = -0.5 at s=0$"):
        path_derivatives(PathState(0.0, 300.0, 0.0), 0.0, params, 0.005)


def test_hat_degenerates_without_offset():
    p = benchmark_params(sensor_offset=0.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        s, e, theta = rng.uniform(0, 100), rng.uniform(-5, 5), rng.uniform(-1, 1)
        steer = rng.uniform(-0.4, 0.4)
        kappa = rng.uniform(-0.05, 0.05)
        plain = path_derivatives(PathState(s, e, theta), steer, p, kappa)
        hat = hat_path_derivatives(HatPathState(s, e, theta), steer, p, kappa, 0.0)
        assert hat == pytest.approx(plain, rel=1e-15, abs=1e-15)


def test_hat_equilibrium_is_stationary(params):
    # Exact feedforward on a constant curvature holds deviation and shifted
    # heading error at zero while advancing at V / sqrt(1 - (d*kappa)^2).
    kappa = 0.005
    dk = params.sensor_offset * kappa
    steer = math.atan(params.wheelbase * kappa / math.sqrt(1.0 - dk * dk))
    s_dot, e_dot, hat_dot = hat_path_derivatives(
        HatPathState(0.0, 0.0, 0.0), steer, params, kappa, 0.0)
    assert e_dot == pytest.approx(0.0, abs=1e-12)
    assert hat_dot == pytest.approx(0.0, abs=1e-12)
    assert s_dot == pytest.approx(params.speed / math.sqrt(1.0 - dk * dk), rel=1e-14)


def test_hat_matches_change_of_variables(params):
    # Oracle: theta = theta_hat + theta_0(kappa) and the chain rule
    # d(theta_hat)/dt = d(theta)/dt + d*kappa_rate/sqrt(1 - d^2 kappa^2).
    rng = np.random.default_rng(5)
    d = params.sensor_offset
    for _ in range(200):
        s, e = rng.uniform(0, 500), rng.uniform(-20, 20)
        theta_hat = rng.uniform(-1.0, 1.0)
        steer = rng.uniform(-0.4, 0.4)
        kappa = rng.uniform(-0.004, 0.004)
        kappa_rate = rng.uniform(-0.01, 0.01)
        theta_0 = desired_yaw_error(kappa, d)
        expected = path_derivatives(PathState(s, e, theta_hat + theta_0),
                                    steer, params, kappa)
        shift = d * kappa_rate / math.sqrt(1.0 - (d * kappa) ** 2)
        got = hat_path_derivatives(HatPathState(s, e, theta_hat), steer, params,
                                   kappa, kappa_rate)
        assert got[0] == pytest.approx(expected[0], rel=1e-12)
        assert got[1] == pytest.approx(expected[1], rel=1e-12, abs=1e-12)
        assert got[2] == pytest.approx(expected[2] + shift, rel=1e-10, abs=1e-12)


def test_hat_untrackable_curvature(params):
    with pytest.raises(DomainError):
        hat_path_derivatives(HatPathState(0.0, 0.0, 0.0), 0.0, params, 0.5, 0.0)


def test_rear_axle_lateral_accel_values(params):
    assert rear_axle_lateral_accel(20.0, 0.0, 2.57) == 0.0
    steer = math.atan(4.0 * 2.57 / 400.0)
    assert rear_axle_lateral_accel(20.0, steer, 2.57) == pytest.approx(4.0, rel=1e-14)


def test_rear_axle_accel_matches_position_differences():
    # Finite-difference oracle: second central differences of the simulated
    # rear-axle position projected onto the lateral direction.
    p = benchmark_params(sensor_offset=0.0)
    steer = 0.1
    dt = 1e-3
    n = 2000
    states = [EarthState(0.0, 0.0, 0.0)]
    for _ in range(n):
        states.append(EarthState(*step_rk4(
            lambda st, g: earth_derivatives(EarthState(*st), g, p), states[-1], steer, dt)))
    x = np.array([st.x for st in states])
    y = np.array([st.y for st in states])
    psi = np.array([st.psi for st in states])
    ax = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / dt ** 2
    ay = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dt ** 2
    lat = -ax * np.sin(psi[1:-1]) + ay * np.cos(psi[1:-1])
    expected = rear_axle_lateral_accel(p.speed, steer, p.wheelbase)
    assert np.abs(lat - expected).max() < 1e-4


def test_earth_and_path_frames_agree_over_50s(params):
    # Same held steering driven through both formulations, compared after
    # mapping the path state back to earth coordinates.
    path = build_path(PathSpec.circular(200.0))
    ps = PathState(0.0, -5.0, 0.1)
    es = path.to_earth(ps)
    dt = 1e-3
    steer = 0.02
    kappa = 0.005

    def path_field(state, g):
        return path_derivatives(state, g, params, kappa)

    def earth_field(state, g):
        return earth_derivatives(state, g, params)

    pstate, estate = tuple(ps), tuple(es)
    worst = 0.0
    for i in range(50000):
        pstate = step_rk4(path_field, pstate, steer, dt)
        estate = step_rk4(earth_field, estate, steer, dt)
        if i % 500 == 0:
            mapped = path.to_earth(PathState(*pstate))
            worst = max(worst, math.hypot(mapped.x - estate[0], mapped.y - estate[1]))
    mapped = path.to_earth(PathState(*pstate))
    worst = max(worst, math.hypot(mapped.x - estate[0], mapped.y - estate[1]))
    assert worst < 1e-6
