"""Reference-path construction, curvature profiles, and frame transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import PchipInterpolator

from offsetsteer import (ConfigError, DomainError, EarthState, PathSpec,
                         PathState, build_path, load_curvature_table,
                         wrap_angle_error)

from conftest import COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS


# -- curvature profiles ----------------------------------------------------

def test_straight_curvature_is_zero():
    path = build_path(PathSpec.straight())
    for s in (0.0, 1.0, 57.3, 1e4):
        assert path.curvature(s) == 0.0


def test_circular_curvature_is_inverse_radius():
    path = build_path(PathSpec.circular(200.0))
    for s in (0.0, 10.0, 5000.0):
        assert path.curvature(s) == pytest.approx(0.005, abs=0.0)


def test_cosine_curvature_values():
    path = build_path(PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS))
    assert path.curvature(0.0) == 0.0
    assert path.curvature(125.0) == pytest.approx(0.012566370614359173, rel=1e-14)
    assert path.curvature(62.5) == pytest.approx(0.006283185307179586, rel=1e-14)


def test_cosine_extends_straight_past_the_profile():
    path = build_path(PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS))
    s_end = COSINE_PERIODS * COSINE_PERIOD
    assert path.curvature(s_end + 123.0) == 0.0
    xe, ye, pe = path.pose(s_end)
    x2, y2, p2 = path.pose(s_end + 50.0)
    assert p2 == pe
    assert math.hypot(x2 - xe, y2 - ye) == pytest.approx(50.0, abs=1e-9)


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        build_path(PathSpec.circular(-5.0))
    with pytest.raises(ConfigError):
        build_path(PathSpec.circular(0.0))
    with pytest.raises(ConfigError):
        build_path(PathSpec.cosine(0.01, -1.0))
    with pytest.raises(ConfigError):
        build_path(PathSpec.cosine(-0.01, 100.0))
    with pytest.raises(ConfigError):
        build_path(PathSpec.sampled([0.0, 1.0, 1.0], [0.0, 0.01, 0.02]))
    with pytest.raises(ConfigError):
        build_path(PathSpec.sampled([0.0], [0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sampled_table_must_be_finite(bad):
    spec = PathSpec.sampled([0.0, 500.0, 1000.0], [0.0, bad, 0.0])
    with pytest.raises(ConfigError, match="finite"):
        spec.validate()
    with pytest.raises(ConfigError, match="finite"):
        build_path(spec)


def test_sampled_tracks_its_source_profile():
    # Tabulate the cosine profile on a 1 m grid; the interpolant must stay
    # close to the analytic curve between the knots.
    s_tab = np.arange(0.0, 1000.0 + 1.0, 1.0)
    omega = 2.0 * math.pi / COSINE_PERIOD
    k_tab = 0.5 * COSINE_KAPPA_MAX * (1.0 - np.cos(omega * s_tab))
    path = build_path(PathSpec.sampled(s_tab, k_tab))
    # Monotone cubic interpolation is only ~O(h^2) near flat extrema, so the
    # tolerances reflect that rather than full cubic accuracy.
    for s in (0.5, 62.5, 125.0, 333.3, 999.5):
        assert path.curvature(s) == pytest.approx(
            0.5 * COSINE_KAPPA_MAX * (1.0 - math.cos(omega * s)), abs=2e-6)


def test_sampled_outside_range_raises():
    path = build_path(PathSpec.sampled([0.0, 10.0, 20.0], [0.0, 0.01, 0.0]))
    for s in (-1.0, 20.5, 25.0):
        messages = set()
        for lookup in (path.curvature, path.pose):
            with pytest.raises(DomainError) as info:
                lookup(s)
            messages.add(str(info.value))
        # Both lookups apply one range rule and report it the same way.
        assert len(messages) == 1
        assert f"s={s:.6g} outside sampled table range [0, 20]" in messages


def _random_table():
    rng = np.random.default_rng(20)
    table_s = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 40.0, 29))))
    return table_s, rng.normal(0.0, 0.01, table_s.size)


@pytest.mark.parametrize("table_s, table_kappa", [
    _random_table(),
    # At the -0.0 knot every term of the power sum is -0.0; PPoly's sum
    # starts from 0.0 and returns 0.0 there.
    ([0.0, 10.0, 20.0, 30.0, 40.0], [0.0, 0.001, -0.0, -0.002, -0.01]),
], ids=["random", "negative-zero-knot"])
def test_sampled_curvature_equals_pchip_exactly(table_s, table_kappa):
    # The scalar lookup evaluates the interpolant's own coefficients; it must
    # return PchipInterpolator's value bit for bit, sign of zero included, at
    # every knot (the table ends included), beside each interior knot and at
    # seeded points in between.
    path = build_path(PathSpec.sampled(table_s, table_kappa))
    pchip = PchipInterpolator(table_s, table_kappa)
    interior = table_s[1:-1]
    rng = np.random.default_rng(21)
    queries = [*table_s,
               *(math.nextafter(s, -math.inf) for s in interior),
               *(math.nextafter(s, math.inf) for s in interior),
               *rng.uniform(table_s[0], table_s[-1], 10_000)]
    for s in queries:
        got, want = path.curvature(s), float(pchip(s))
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), s


def test_curvature_table_csv_round_trip(tmp_path):
    csv_file = tmp_path / "profile.csv"
    csv_file.write_text("s_meters,kappa_per_meter\n0.0,0.0\n50.0,0.002\n100.0,0.0\n")
    spec = load_curvature_table(csv_file)
    assert spec.kind == "sampled"
    path = build_path(spec)
    assert path.curvature(50.0) == pytest.approx(0.002, rel=1e-12)

    bad = tmp_path / "bad.csv"
    bad.write_text("s,kappa\n0.0,0.0\n1.0,0.1\n")
    with pytest.raises(ConfigError):
        load_curvature_table(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError):
        load_curvature_table(empty)


# -- pose consistency -------------------------------------------------------

@pytest.mark.parametrize("spec", [
    PathSpec.straight(1.0, -2.0, 0.3),
    PathSpec.circular(200.0, 0.0, 0.0, -0.5),
    PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS),
    PathSpec.sampled(np.arange(0.0, 301.0, 1.0),
                     0.003 * np.sin(np.arange(0.0, 301.0, 1.0) / 40.0) ** 2),
], ids=["straight", "circular", "cosine", "sampled"])
def test_heading_equals_integrated_curvature(spec):
    # Independent oracle: dense Simpson quadrature of kappa(s).
    path = build_path(spec)
    s_hi = 300.0
    n = 30000
    grid = np.linspace(0.0, s_hi, 2 * n + 1)
    kappas = np.array([path.curvature(float(s)) for s in grid])
    h = s_hi / n
    integral = h / 6.0 * np.sum(kappas[0:-1:2] + 4.0 * kappas[1::2] + kappas[2::2])
    assert path.pose(s_hi)[2] - spec.psi0 == pytest.approx(integral, abs=1e-8)


def test_pose_positions_match_quadrature_of_heading():
    # Second route to the cosine pose: fine trapezoid sums of cos/sin(psi).
    path = build_path(PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS))
    s_hi = 500.0
    grid = np.linspace(0.0, s_hi, 200001)
    psis = np.array([path.pose(float(s))[2] for s in grid])
    x = np.trapezoid(np.cos(psis), grid)
    y = np.trapezoid(np.sin(psis), grid)
    xe, ye, _ = path.pose(s_hi)
    assert xe == pytest.approx(x, abs=1e-6)
    assert ye == pytest.approx(y, abs=1e-6)


# -- path <-> earth ----------------------------------------------------------

def test_to_earth_identity_on_path():
    path = build_path(PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS))
    for s in (0.0, 100.0, 700.0):
        es = path.to_earth(PathState(s, 0.0, 0.0))
        assert es == pytest.approx(path.pose(s))


def test_to_earth_straight_translation():
    path = build_path(PathSpec.straight())
    es = path.to_earth(PathState(5.0, -10.0, 0.0))
    assert es == pytest.approx((5.0, -10.0, 0.0))


def test_to_earth_circular_anchor():
    path = build_path(PathSpec.circular(200.0))
    es = path.to_earth(PathState(0.0, -10.0, 0.1))
    assert es.x == pytest.approx(0.0, abs=1e-12)
    assert es.y == pytest.approx(-10.0, rel=1e-12)
    assert es.psi == pytest.approx(0.1, rel=1e-12)


def test_projection_of_on_path_point():
    path = build_path(PathSpec.circular(200.0))
    xd, yd, psid = path.pose(80.0)
    ps = path.project(EarthState(xd, yd, psid), s_hint=75.0)
    assert ps.s == pytest.approx(80.0, abs=1e-8)
    assert ps.e == pytest.approx(0.0, abs=1e-9)
    assert ps.theta == pytest.approx(0.0, abs=1e-12)


def test_projection_straight_offset_point():
    path = build_path(PathSpec.straight())
    ps = path.project(EarthState(5.0, -10.0, 0.0), s_hint=0.0)
    assert ps == pytest.approx((5.0, -10.0, 0.0))


def test_projection_ambiguous_outside_tube():
    # Point further left than the curvature center of a tight circle.
    path = build_path(PathSpec.circular(10.0))
    with pytest.raises(DomainError):
        path.project(EarthState(0.0, 11.0, 0.0), s_hint=0.0)


@pytest.mark.parametrize("spec, e_max", [
    (PathSpec.circular(200.0), 80.0),
    (PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS), 30.0),
], ids=["circular", "cosine"])
def test_projection_round_trip(spec, e_max):
    path = build_path(spec)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        s = rng.uniform(5.0, 900.0)
        e = rng.uniform(-e_max, e_max)
        theta = rng.uniform(-math.pi, math.pi)
        ps = PathState(s, e, wrap_angle_error(theta, 0.0))
        es = path.to_earth(ps)
        back = path.project(es, s_hint=s + rng.uniform(-2.0, 2.0))
        assert back.s == pytest.approx(ps.s, abs=1e-9)
        assert back.e == pytest.approx(ps.e, abs=1e-9)
        assert back.theta == pytest.approx(ps.theta, abs=1e-9)


def test_lateral_deviation_matches_cross_product():
    # The projected deviation must equal the signed cross product
    # (t x r) . k of the tangent with the offset vector.
    path = build_path(PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS))
    rng = np.random.default_rng(7)
    for _ in range(200):
        ps = PathState(rng.uniform(10.0, 900.0), rng.uniform(-25.0, 25.0),
                       rng.uniform(-1.0, 1.0))
        es = path.to_earth(ps)
        back = path.project(es, s_hint=ps.s)
        xd, yd, psid = path.pose(back.s)
        tx, ty = math.cos(psid), math.sin(psid)
        cross = tx * (es.y - yd) - ty * (es.x - xd)
        assert back.e == pytest.approx(cross, abs=1e-12)


# -- angle wrapping ----------------------------------------------------------

def test_wrap_angle_error_basics():
    assert wrap_angle_error(0.1, 0.0) == pytest.approx(0.1, rel=1e-15)
    assert wrap_angle_error(2.0 * math.pi + 0.1, 0.0) == pytest.approx(0.1, abs=1e-12)
    assert wrap_angle_error(math.pi, 0.0) == -math.pi
    assert wrap_angle_error(-math.pi, 0.0) == -math.pi


@given(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))
def test_wrap_angle_error_in_range(psi, psi_d):
    wrapped = wrap_angle_error(psi, psi_d)
    assert -math.pi <= wrapped < math.pi


@given(st.floats(-10.0, 10.0), st.integers(-5, 5))
def test_wrap_angle_error_periodic(psi, n):
    base = wrap_angle_error(psi, 0.0)
    shifted = wrap_angle_error(psi + 2.0 * math.pi * n, 0.0)
    assert shifted == pytest.approx(base, abs=1e-12) or (
        # Both representations of the boundary collapse to -pi.
        abs(base) == pytest.approx(math.pi, abs=1e-12)
        and abs(shifted) == pytest.approx(math.pi, abs=1e-12))
