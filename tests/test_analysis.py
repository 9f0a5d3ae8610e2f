"""Linearized closed loop: coefficients, stability, frequency response."""

import itertools
import math
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from offsetsteer import (ControlConfig, DomainError, HatPathState, PathState,
                         amplification, cli, control, desired_heading, desired_yaw_error,
                         eigenvalues, feedforward, feedforward_error, frequency_response,
                         hat_path_derivatives, is_stable, kappa_bar, lambdas, linearize,
                         max_allowable_steer, peak_amplification,
                         stability_region_scan, wrapper)
from offsetsteer import _writer
from offsetsteer.analysis import (StabilityMap, prop1_k2_threshold, write_freq_csv,
                                  write_stability_csv)
from offsetsteer.cli import cmd_freq_response, parse_config

from conftest import benchmark_control, benchmark_params

KAPPA_BAR = 0.20491674207981267       # steering-limited curvature, d=2 [1/m]
LAM1_LOWER = 0.9121603561115678       # lam1 at the curvature limit
PROP1_K2_MIN = 0.09206905540952604    # negative-feedback k2 bound [1/m]


# -- coefficient bundle -------------------------------------------------------

def test_lambdas_flat_road(params):
    lam = lambdas(0.0, -0.8, 0.02, params)
    assert lam.lam1 == 1.0
    assert lam.lam2 == 1.0
    assert lam.lam3 == pytest.approx(-0.8 * 0.02, rel=1e-15)


def test_lambdas_at_curvature_limit(params):
    lam = lambdas(kappa_bar(params), -0.8, 0.02, params)
    assert lam.lam1 == pytest.approx(LAM1_LOWER, rel=1e-13)


def test_lambdas_domain(params):
    with pytest.raises(DomainError):
        lambdas(0.6, -0.8, 0.02, params)


def test_kappa_bar_values(params):
    assert kappa_bar(params) == pytest.approx(KAPPA_BAR, rel=1e-13)
    rear = benchmark_params(sensor_offset=0.0)
    assert kappa_bar(rear) == pytest.approx(
        math.tan(rear.max_steer) / rear.wheelbase, rel=1e-14)


def test_kappa_bar_inverts_feedforward(params):
    # At the capability limit the offset-aware feedforward demands exactly
    # the physical steering limit.
    assert feedforward(kappa_bar(params), params, "full") == pytest.approx(
        params.max_steer, rel=1e-12)


# -- linear model -------------------------------------------------------------

def test_linearize_flat_road_matrix(params):
    model = linearize(0.0, -0.8, 0.02, params)
    expected = np.array([[-0.24902723735408560, 7.5486381322957198],
                         [-0.12451361867704280, -6.2256809338521401]])
    np.testing.assert_allclose(model.a, expected, rtol=1e-13)
    assert model.b[0] == 0.0
    assert model.b[1] == pytest.approx(2.0, rel=1e-15)
    np.testing.assert_array_equal(model.c, [1.0, 0.0])


def test_linearize_without_offset_kills_input():
    model = linearize(0.003, -0.8, 0.02, benchmark_params(sensor_offset=0.0))
    np.testing.assert_array_equal(model.b, [0.0, 0.0])


@pytest.mark.parametrize("kappa0", [0.0, 0.005, 0.5 * KAPPA_BAR])
def test_linearize_matches_numeric_jacobian(params, kappa0):
    # Independent oracle: central differences of the nonlinear closed loop
    # (wrapper included) around its ideal solution.
    cfg = benchmark_control("full")
    theta_0 = desired_yaw_error(kappa0, params.sensor_offset)

    def field(e, theta_hat):
        dec = control(PathState(0.0, e, theta_hat + theta_0), kappa0, cfg, params)
        derivs = hat_path_derivatives(HatPathState(0.0, e, theta_hat),
                                      dec.gamma_des, params, kappa0, 0.0)
        return np.array(derivs[1:])

    h = 1e-6
    jac = np.column_stack([
        (field(h, 0.0) - field(-h, 0.0)) / (2.0 * h),
        (field(0.0, h) - field(0.0, -h)) / (2.0 * h),
    ])
    model = linearize(kappa0, cfg.k1, cfg.k2, params)
    np.testing.assert_allclose(jac, model.a, atol=1e-6)


def test_input_column_matches_curvature_rate_channel(params):
    kappa0 = 0.004
    model = linearize(kappa0, -0.8, 0.02, params)
    cfg = benchmark_control("full")
    theta_0 = desired_yaw_error(kappa0, params.sensor_offset)
    dec = control(PathState(0.0, 0.0, theta_0), kappa0, cfg, params)
    h = 1e-6
    up = hat_path_derivatives(HatPathState(0.0, 0.0, 0.0), dec.gamma_des,
                              params, kappa0, h)
    down = hat_path_derivatives(HatPathState(0.0, 0.0, 0.0), dec.gamma_des,
                                params, kappa0, -h)
    column = (np.array(up[1:]) - np.array(down[1:])) / (2.0 * h)
    np.testing.assert_allclose(column, model.b, atol=1e-9)


# -- eigenvalues --------------------------------------------------------------

def test_eigenvalues_reference_values(params):
    model = linearize(0.0, -0.8, 0.02, params)
    eig = sorted(eigenvalues(model), key=lambda z: z.real)
    assert eig[0] == pytest.approx(-6.0640463401703324, rel=1e-12)
    assert eig[1] == pytest.approx(-0.41066183103589327, rel=1e-12)


@pytest.mark.parametrize("kappa0,k1,k2", [
    (0.0, -0.8, 0.02), (0.005, -0.8, 0.02), (0.1, 0.8, -2.0),
    (0.5 * KAPPA_BAR, -1.285, 0.02), (KAPPA_BAR, -0.3, 1.5),
])
def test_eigenvalues_match_matrix_eigensolver(params, kappa0, k1, k2):
    model = linearize(kappa0, k1, k2, params)
    mine = sorted(eigenvalues(model), key=lambda z: (z.real, z.imag))
    numeric = sorted(np.linalg.eigvals(model.a), key=lambda z: (z.real, z.imag))
    for a, b in zip(mine, numeric):
        assert a == pytest.approx(b, abs=1e-9)


def test_characteristic_coefficients_equal_trace_determinant(params):
    for kappa0, k1, k2 in [(0.0, -0.8, 0.02), (0.01, 1.2, -1.7), (0.1, -2.0, 0.4)]:
        model = linearize(kappa0, k1, k2, params)
        eig = eigenvalues(model)
        assert eig[0] + eig[1] == pytest.approx(np.trace(model.a), rel=1e-12)
        assert eig[0] * eig[1] == pytest.approx(np.linalg.det(model.a), rel=1e-10)


def test_no_feedback_gives_double_root_at_origin(params):
    model = linearize(0.0, 0.0, 0.02, params)
    eig = eigenvalues(model)
    assert eig[0] == 0.0 and eig[1] == 0.0


# -- stability verdicts --------------------------------------------------------

def test_benchmark_gains_stable(params):
    verdict = is_stable(0.0, -0.8, 0.02, params)
    assert verdict.necessary_sufficient
    assert not verdict.marginal
    assert max(z.real for z in verdict.eigenvalues) < 0.0
    assert not verdict.sufficient_any_kappa  # k2 below the curvature-proof bound


def test_positive_feedback_sufficient_condition(params):
    verdict = is_stable(0.0, 0.8, -2.0, params)
    assert verdict.necessary_sufficient
    assert verdict.sufficient_any_kappa
    assert verdict.sufficient_condition == 2


def test_prop1_threshold_value(params):
    assert prop1_k2_threshold(params) == pytest.approx(PROP1_K2_MIN, rel=1e-13)
    verdict = is_stable(0.0, -0.8, PROP1_K2_MIN * 1.01, params)
    assert verdict.sufficient_condition == 1


def test_marginal_flag_on_boundary(params):
    # k2 = -lam1/d zeroes the first criterion factor exactly.
    verdict = is_stable(0.0, 0.8, -0.5, params)
    assert verdict.marginal


def test_verdict_agrees_with_eigenvalue_signs(params):
    rng = np.random.default_rng(41)
    for _ in range(500):
        kappa0 = rng.uniform(-KAPPA_BAR, KAPPA_BAR)
        k1 = rng.uniform(-3.0, 3.0)
        k2 = rng.uniform(-3.0, 3.0)
        verdict = is_stable(kappa0, k1, k2, params)
        if verdict.marginal:
            continue
        spectral = max(z.real for z in verdict.eigenvalues)
        if abs(spectral) <= 1e-9:
            continue
        assert verdict.necessary_sufficient == (spectral < 0.0)


def test_sufficient_conditions_imply_exact_condition(params):
    rng = np.random.default_rng(43)
    kappas = np.linspace(-KAPPA_BAR, KAPPA_BAR, 21)
    for _ in range(200):
        if rng.random() < 0.5:
            k1 = rng.uniform(-3.0, -1e-3)
            k2 = prop1_k2_threshold(params) + rng.uniform(1e-6, 3.0)
        else:
            k1 = rng.uniform(1e-3, 3.0)
            k2 = -1.0 / params.sensor_offset - rng.uniform(1e-6, 3.0)
        for kappa0 in kappas:
            assert is_stable(kappa0, k1, k2, params).necessary_sufficient


def test_lambda_bounds_over_trackable_curvatures():
    # lam1 stays within its analytic bracket and lam2 positive; when the
    # sensor sits beyond the front axle, lam2 > l^2/d^2.
    for d in (2.0, 4.0):
        p = benchmark_params(sensor_offset=d)
        kb = kappa_bar(p)
        floor = p.wheelbase / math.hypot(p.wheelbase, d * math.tan(p.max_steer))
        rng = np.random.default_rng(47)
        for kappa0 in rng.uniform(-kb, kb, size=1000):
            lam = lambdas(kappa0, -0.8, 0.02, p)
            assert floor - 1e-12 <= lam.lam1 <= 1.0 + 1e-12
            assert lam.lam2 > 0.0
            if d > p.wheelbase:
                assert lam.lam2 > p.wheelbase ** 2 / d ** 2


def test_large_k2_required_for_small_offset_positive_feedback():
    # Positive feedback with a near-axle sensor demands |k2| >= 2, and such
    # gains throw the feedback straight into saturation for a 10 m error.
    p = benchmark_params(sensor_offset=0.5)
    assert 1.0 / p.sensor_offset == 2.0
    cfg = ControlConfig(k1=0.8, k2=-2.5, max_lat_accel=4.0, variant="full")
    assert is_stable(0.0, cfg.k1, cfg.k2, p).sufficient_condition == 2
    dec = control(PathState(0.0, -10.0, 0.0), 0.0, cfg, p)
    assert abs(dec.fb_input) > max_allowable_steer(p, cfg.max_lat_accel)


# -- frequency response ---------------------------------------------------------

def test_amplification_zero_frequency_and_zero_offset(params):
    assert amplification(0.0, 0.0, -0.8, 0.02, params) == 0.0
    p0 = benchmark_params(sensor_offset=0.0)
    w = np.logspace(-3, 3, 50)
    np.testing.assert_array_equal(amplification(w, 0.0, -0.8, 0.02, p0), 0.0)


def _resolvent_magnitude(model, omega: float) -> float:
    jw = 1j * omega
    transfer = model.c @ np.linalg.solve(jw * np.eye(2) - model.a, model.b) * jw
    return abs(transfer)


@pytest.mark.parametrize("kappa0,k1,k2", [
    (0.0, -0.8, 0.02), (0.5 * KAPPA_BAR, -0.8, 0.02), (0.0, 0.8, -2.0),
])
def test_amplification_matches_resolvent(params, kappa0, k1, k2):
    model = linearize(kappa0, k1, k2, params)
    rng = np.random.default_rng(53)
    omegas = 10.0 ** rng.uniform(-3, 3, size=100)
    for omega in omegas:
        closed = amplification(float(omega), kappa0, k1, k2, params)
        assert abs(closed - _resolvent_magnitude(model, float(omega))) < 1e-10


def test_peak_amplification_reference_values(params):
    m_max, omega_m = peak_amplification(0.0, -0.8, 0.02, params)
    assert m_max == pytest.approx(2.3317307692307692, rel=1e-13)
    assert omega_m == pytest.approx(1.5780596863049433, rel=1e-13)


@pytest.mark.parametrize("kappa0,k1,k2", [
    (0.0, -0.8, 0.02), (0.5 * KAPPA_BAR, -0.8, 0.02), (0.0, 0.8, -2.0),
    (0.002, -2.5, 1.0),
])
def test_peak_matches_numeric_maximization(params, kappa0, k1, k2):
    # Oracle: dense log-grid argmax refined by bounded scalar minimization.
    m_max, omega_m = peak_amplification(kappa0, k1, k2, params)
    grid = np.logspace(-4, 4, 20001)
    values = amplification(grid, kappa0, k1, k2, params)
    seed = grid[int(np.argmax(values))]
    result = minimize_scalar(
        lambda w: -amplification(float(w), kappa0, k1, k2, params),
        bounds=(seed / 10.0, seed * 10.0), method="bounded",
        options={"xatol": 1e-12})
    assert -result.fun == pytest.approx(m_max, rel=1e-6)
    assert result.x == pytest.approx(omega_m, rel=1e-4)


def test_deviation_killing_gain(params):
    # k1 = -l/(d*lam2) cancels the response entirely; exact zero on the flat
    # road where the arithmetic is exact, and to rounding elsewhere.
    l, d = params.wheelbase, params.sensor_offset
    m_max, _ = peak_amplification(0.0, -l / d, 0.02, params)
    assert m_max == 0.0
    for kappa0 in (0.01, 0.05, 0.12):
        lam2 = 1.0 + (l * l - d * d) * kappa0 ** 2
        m_max, _ = peak_amplification(kappa0, -l / (d * lam2), 0.02, params)
        assert m_max < 1e-12


def test_unbounded_response_without_heading_gain(params):
    m_max, _ = peak_amplification(0.0, 0.0, 0.02, params)
    assert math.isinf(m_max)


def test_unbounded_response_on_a_curve_is_inf_at_its_peak_without_a_warning(params, caplog):
    # k1 = 0 at kappa0 != 0: the undamped peak lies inside the default grid,
    # where the denominator of M is 0.
    with caplog.at_level("WARNING", logger="offsetsteer"):
        resp = frequency_response(0.05, 0.0, 0.02, params)
    assert "amplification unbounded" in caplog.text
    at_peak = resp.omega == resp.omega_m
    assert at_peak.sum() == 1
    assert np.isinf(resp.magnitude[at_peak]).all()
    assert np.isfinite(resp.magnitude[~at_peak]).all()
    assert math.isinf(amplification(resp.omega_m, 0.05, 0.0, 0.02, params))


def test_frequency_response_bundle(params):
    resp = frequency_response(0.0, -0.8, 0.02, params)
    assert resp.stable
    assert resp.omega_m in resp.omega
    assert resp.magnitude.max() <= resp.m_max * (1.0 + 1e-12)
    peak_idx = int(np.argmin(np.abs(resp.omega - resp.omega_m)))
    assert resp.magnitude[peak_idx] == pytest.approx(resp.m_max, rel=1e-12)


# -- gain-plane scans -------------------------------------------------------------

def test_scan_benchmark_cell_stable_for_all_curvatures(params):
    kb = kappa_bar(params)
    result = stability_region_scan((-3.0, 3.0), (0.02, 0.02), [0.0, kb / 2, kb],
                                   params, resolution=61)
    idx = int(np.argmin(np.abs(result.k1_values + 0.8)))
    assert result.k1_values[idx] == pytest.approx(-0.8, abs=1e-12)
    assert bool(result.stable[:, idx, 0].all())


def test_scan_verdict_flips_across_first_criterion_boundary(params):
    # With k1 > 0 the verdict changes sign exactly on k2 = -lam1/d.
    result = stability_region_scan((0.8, 0.8), (-0.501, -0.499), [0.0],
                                   params, resolution=3)
    assert bool(result.stable[0, 0, 0])        # k2 = -0.501
    assert bool(result.marginal[0, 0, 1])      # k2 = -0.500 exactly on boundary
    assert not bool(result.stable[0, 0, 2])    # k2 = -0.499


def test_scan_matches_pointwise_verdicts(params):
    result = stability_region_scan((-2.0, 2.0), (-2.0, 2.0), [0.0, 0.1],
                                   params, resolution=11)
    for i, kappa0 in enumerate(result.kappa0_values):
        for j, k1 in enumerate(result.k1_values):
            for k, k2 in enumerate(result.k2_values):
                verdict = is_stable(float(kappa0), float(k1), float(k2), params)
                assert bool(result.stable[i, j, k]) == verdict.necessary_sufficient
                m_max, omega_m = peak_amplification(float(kappa0), float(k1),
                                                    float(k2), params)
                assert result.m_max[i, j, k] == pytest.approx(m_max, rel=1e-12)
                assert result.omega_m[i, j, k] == pytest.approx(omega_m, rel=1e-12)


def test_far_sensor_shrinks_low_amplification_region(params):
    # The same amplification contour encloses fewer gain pairs when the
    # sensor moves past the front axle.
    near = stability_region_scan((-3.0, -0.05), (-3.0, 3.0), [0.0], params, 60)
    far = stability_region_scan((-3.0, -0.05), (-3.0, 3.0), [0.0],
                                benchmark_params(sensor_offset=3.0), 60)
    threshold = 2.0
    count_near = int((near.m_max[0] <= threshold).sum())
    count_far = int((far.m_max[0] <= threshold).sum())
    assert count_far < count_near


def test_scan_records_untrackable_curvature_in_cells(params):
    result = stability_region_scan((-1.0, 1.0), (-1.0, 1.0), [0.0, 0.6],
                                   params, resolution=3)
    assert bool(result.valid[0].all())
    assert not bool(result.valid[1].any())
    assert np.isnan(result.m_max[1]).all()
    assert not bool(result.stable[1].any())


# -- CSV artifacts -----------------------------------------------------------------

def test_stability_csv_round_trip(tmp_path, params):
    result = stability_region_scan((-1.0, 1.0), (-1.0, 1.0), [0.0], params, 5)
    out = tmp_path / "map.csv"
    write_stability_csv(result, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "k1,k2,kappa0,stable,marginal,M_max,omega_m"
    assert len(lines) == 1 + 5 * 5
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -1.0
    assert first[3] in ("0", "1")
    write_stability_csv(result, tmp_path / "map2.csv")
    assert (tmp_path / "map2.csv").read_bytes() == out.read_bytes()


def test_freq_csv_round_trip(tmp_path, params):
    resp = frequency_response(0.0, -0.8, 0.02, params)
    out = tmp_path / "freq.csv"
    write_freq_csv(resp, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "omega_rad_s,M"
    assert len(lines) == 1 + resp.omega.size
    w, m = map(float, lines[1].split(","))
    assert m == pytest.approx(amplification(w, 0.0, -0.8, 0.02, params), rel=1e-12)


def test_freq_csv_follows_each_response_grid(tmp_path, params):
    # Grids A, B, A, with two responses on the second A. B differs from A
    # only in the sign of its zero, which compares equal but is written "-0".
    grid_a = np.array([0.0, 0.01, 1.0 / 3.0, 10.0, 1e3])
    grid_b = grid_a.copy()
    grid_b[0] = -0.0
    cases = [(grid_a, -0.8), (grid_b, -0.8), (grid_a, -0.8), (grid_a, -1.285)]
    for index, (grid, k1) in enumerate(cases):
        resp = frequency_response(0.05, k1, 0.02, params, grid)
        got, want = tmp_path / f"got_{index}.csv", tmp_path / f"want_{index}.csv"
        write_freq_csv(resp, got)
        _reference_csv(want, ("omega_rad_s", "M"), zip(resp.omega, resp.magnitude), "gg")
        assert got.read_bytes() == want.read_bytes()
    assert b"\n-0," in (tmp_path / "got_1.csv").read_bytes()


def _reference_csv(path, header, rows, kinds):
    """The writers' former form: every value of every row formatted as it comes."""
    line = ",".join({"g": "%.17g", "d": "%d"}[k] for k in kinds) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def test_stability_csv_matches_the_reference_writer_byte_for_byte(tmp_path):
    rng = np.random.default_rng(7)
    shape = (2, 3, 4)
    m_max = rng.uniform(0.0, 5.0, shape)
    omega_m = rng.uniform(0.0, 50.0, shape)
    m_max[0, 0, :2] = np.nan, np.inf
    omega_m[1, 2, 1:3] = np.inf, np.nan
    stable = rng.random(shape) < 0.5
    marginal = rng.random(shape) < 0.5
    result = StabilityMap(np.array([-0.0, 1.0 / 3.0, 2.5e10]),
                          np.array([-1e-300, 0.0, -0.0, 0.1]), np.array([0.0, -0.05]),
                          stable, marginal, m_max, omega_m, np.ones(shape, dtype=bool))
    assert stable.any() and not stable.all() and marginal.any() and not marginal.all()
    n1, n2 = shape[1:]
    k1, k2 = np.repeat(result.k1_values, n2), np.tile(result.k2_values, n1)
    rows = itertools.chain.from_iterable(
        zip(k1, k2, itertools.repeat(kappa0), stable[i].ravel(), marginal[i].ravel(),
            m_max[i].ravel(), omega_m[i].ravel())
        for i, kappa0 in enumerate(result.kappa0_values))
    _reference_csv(tmp_path / "want.csv",
                   ("k1", "k2", "kappa0", "stable", "marginal", "M_max", "omega_m"),
                   rows, "gggddgg")
    write_stability_csv(result, tmp_path / "got.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    # Both signed zeros of the k2 axis, under the -0 of the k1 axis, keep their sign.
    assert b"\n-0,0,0," in got and b"\n-0,-0,0," in got
    assert b",nan" in got and b",inf" in got


@pytest.mark.parametrize("kappa0", [[0.0, -0.0, 0.05], [-0.0]],
                         ids=["three-curvatures", "one-curvature"])
def test_stability_csv_across_chunks_matches_the_reference_writer_byte_for_byte(tmp_path,
                                                                                kappa0):
    # 41 x 59 cells per curvature: the writer's chunks end inside a k2 row.
    rng = np.random.default_rng(11)
    k1 = rng.normal(size=41) * 10.0 ** rng.integers(-5, 5, size=41)
    k2 = rng.normal(size=59) * 10.0 ** rng.integers(-5, 5, size=59)
    k1[[3, 7]] = 0.0, -0.0
    k2[[0, 30]] = -0.0, 0.0
    shape = (len(kappa0), 41, 59)
    m_max = rng.uniform(0.0, 5.0, shape)
    m_max[..., 5::17] = np.inf
    m_max[..., 8::23] = np.nan
    omega_m = rng.uniform(0.0, 50.0, shape)
    stable = rng.random(shape) < 0.5
    marginal = rng.random(shape) < 0.5
    result = StabilityMap(k1, k2, np.array(kappa0), stable, marginal, m_max, omega_m,
                          np.ones(shape, dtype=bool))
    assert stable.size > _writer.CHUNK_VALUES // 2
    rows = ((k1[a], k2[b], kappa0[i], stable[i, a, b], marginal[i, a, b], m_max[i, a, b],
             omega_m[i, a, b]) for i, a, b in np.ndindex(shape))
    _reference_csv(tmp_path / "want.csv",
                   ("k1", "k2", "kappa0", "stable", "marginal", "M_max", "omega_m"),
                   rows, "gggddgg")
    write_stability_csv(result, tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("omega", ["omega:\n  min_rad_s: 0.01\n  max_rad_s: 100.0\n"
                                   "  points: 37\n", ""], ids=["shared-grid", "own-grids"])
def test_freq_response_files_match_the_reference_writer_byte_for_byte(tmp_path, omega):
    text = textwrap.dedent("""\
        vehicle:
          wheelbase_m: 2.57
          sensor_offset_m: 2.0
          max_steer_deg: 30.0
          speed_mps: 20.0
        gains:
          - {k1: -0.8, k2_per_m: 0.02}
          - {k1: -1.285, k2_per_m: 0.02}
          - {k1: 0.8, k2_per_m: -2.0}
        kappa0_per_m: [0.0, 0.05, -0.1]
        """) + omega
    config = tmp_path / "analysis.yaml"
    config.write_text(text)
    manifest = cmd_freq_response(config, tmp_path / "out")
    cfg = parse_config(text)
    grid = None
    if cfg.omega is not None:
        lo, hi, pts = cfg.omega
        grid = np.logspace(math.log10(lo), math.log10(hi), pts)
    cases = [(k1, k2, kappa0) for k1, k2 in cfg.gains for kappa0 in cfg.kappa0]
    assert len([name for name in manifest.outputs if name.startswith("freq_")]) == len(cases)
    for index, (k1, k2, kappa0) in enumerate(cases):
        resp = frequency_response(kappa0, k1, k2, cfg.vehicle, grid)
        want = tmp_path / f"want_{index:02d}.csv"
        _reference_csv(want, ("omega_rad_s", "M"), zip(resp.omega, resp.magnitude), "gg")
        got = tmp_path / "out" / f"freq_response_{index:02d}.csv"
        assert got.read_bytes() == want.read_bytes()


def test_points_csv_matches_the_reference_writer_byte_for_byte(tmp_path):
    # k1 = 0 on the straight road leaves M unbounded (inf) at omega_m = 0; the
    # signed zero of the curvature list keeps its sign.
    text = textwrap.dedent("""\
        vehicle:
          wheelbase_m: 2.57
          sensor_offset_m: 2.0
          max_steer_deg: 30.0
          speed_mps: 20.0
        gains:
          - {k1: -0.8, k2_per_m: 0.02}
          - {k1: 0.0, k2_per_m: 0.02}
          - {k1: 0.8, k2_per_m: -2.0}
          - {k1: -1.285, k2_per_m: 0.1}
        kappa0_per_m: [0.0, -0.0]
        """)
    config = tmp_path / "analysis.yaml"
    config.write_text(text)
    cmd_freq_response(config, tmp_path / "out")
    cfg = parse_config(text)
    cases = [(k1, k2, kappa0) for k1, k2 in cfg.gains for kappa0 in cfg.kappa0]
    rows = []
    for index, (k1, k2, kappa0) in enumerate(cases):
        resp = frequency_response(kappa0, k1, k2, cfg.vehicle)
        rows.append((index, k1, k2, kappa0, resp.stable, resp.m_max, resp.omega_m))
    _reference_csv(tmp_path / "want.csv", ("index", "k1", "k2_per_m", "kappa0_per_m",
                                           "stable", "m_max_m2", "omega_m_rad_s"),
                   rows, "dgggdgg")
    got = (tmp_path / "out" / "points.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b",-0,1," in got and b"\n2,0,0.02,0,0,inf,0\n" in got


def test_sweep_csvs_match_the_reference_writer_byte_for_byte(tmp_path):
    vehicle = benchmark_params()
    names = cli._write_sweep_csvs(tmp_path, vehicle)
    offsets = [replace(vehicle, sensor_offset=d) for d in (2.0, 3.0, 4.0)]
    g_sat = max_allowable_steer(vehicle, 4.0)
    tables = {
        "steering_offset_curves.csv": (
            ("d_m", "kappa_per_m", "feedforward_error_rad", "desired_heading_offset_rad"),
            ((p.sensor_offset, kap, feedforward_error(kap, p),
              desired_yaw_error(kap, p.sensor_offset))
             for p in offsets for kap in np.linspace(0.0, 0.2, 401))),
        "desired_heading_curves.csv": (
            ("e_m", "nonlinear_rad", "linear_rad"),
            ((e, desired_heading(e, 0.02, "full"), desired_heading(e, 0.02, "linear"))
             for e in np.linspace(-250.0, 250.0, 1001))),
        "wrapper_curve.csv": (
            ("x_rad", "g_rad"),
            ((x, wrapper(x, g_sat)) for x in np.linspace(-0.5, 0.5, 1001))),
        "max_steer_vs_speed.csv": (
            ("max_lat_accel_mps2", "speed_mps", "gamma_sat_rad"),
            ((a_max, v, max_allowable_steer(replace(vehicle, speed=float(v)), a_max))
             for a_max in (2.0, 4.0, 6.0) for v in np.linspace(1.0, 40.0, 391))),
    }
    assert names == list(tables)
    for name, (header, rows) in tables.items():
        want = tmp_path / f"want_{name}"
        _reference_csv(want, header, rows, "g" * len(header))
        assert (tmp_path / name).read_bytes() == want.read_bytes(), name
