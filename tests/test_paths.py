"""Reference-path construction, curvature profiles, and frame transforms."""

import math
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import trapezoid
from scipy.interpolate import PchipInterpolator

from offsetsteer import (ConfigError, DomainError, PathSpec,
                         PathState, build_path, load_curvature_table,
                         wrap_angle_error)
from offsetsteer.paths import POSE_GRID_CHUNK

from conftest import (COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS,
                      reference_pose, reference_to_earth, run_python)


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
    with pytest.raises(ConfigError, match="whole number of periods"):
        build_path(PathSpec.cosine(0.01, 100.0, 2.5))  # kappa would step at s = 250
    with pytest.raises(ConfigError):
        build_path(PathSpec.sampled([0.0, 1.0, 1.0], [0.0, 0.01, 0.02]))
    with pytest.raises(ConfigError):
        build_path(PathSpec.sampled([0.0], [0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sampled_table_must_be_finite(bad):
    # A spec checks itself when it is made: a bad table never becomes a spec.
    with pytest.raises(ConfigError, match="finite"):
        PathSpec.sampled([0.0, 500.0, 1000.0], [0.0, bad, 0.0])
    with pytest.raises(ConfigError, match="finite"):
        PathSpec.sampled([0.0, bad, 1000.0], [0.0, 0.0, 0.0])


def test_sampled_table_spanning_most_doubles_checks_its_order_without_a_warning(recwarn):
    # The difference of its two arc lengths overflows; comparing them does not.
    # In order, the table is too long for a finite count of pose grid steps.
    with pytest.raises(ConfigError, match=r"^sampled path length 1e\+308 - -1e\+308 = inf m "
                                          r"must be a finite count of 0\.01 m pose grid steps$"):
        PathSpec.sampled([-1e308, 1e308], [0.0, 0.0])
    with pytest.raises(ConfigError, match="strictly increasing"):
        PathSpec.sampled([1e308, -1e308], [0.0, 0.0])
    assert not recwarn.list


def test_sampled_table_whose_pchip_overflows_between_its_knots_is_refused(recwarn):
    # Every coefficient is finite, but the interpolant's sum overflows inside
    # [0, 10] (kappa(5) would read inf): the road is refused when it is built.
    with pytest.raises(DomainError, match=r"^sampled path table over \[0, 20\] m: its PCHIP "
                                          r"interpolant is not finite on \[0, 10\] m$"):
        build_path(PathSpec.sampled([0.0, 10.0, 20.0], [0.0, 1.7e308, 0.0]))
    # A 2,000 km table of curvatures near 1e300 still builds and reads finite.
    s = np.linspace(0.0, 2e6, 201)
    path = build_path(PathSpec.sampled(s, np.where(np.arange(s.size) % 2, 1e300, -1e300)))
    assert all(math.isfinite(path.curvature(q)) for q in (0.0, 5e3, 1e6 + 1.0, 2e6))
    assert not recwarn.list


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
    spec = PathSpec.sampled([0.0, 10.0, 20.0], [0.0, 0.01, 0.0])
    path = build_path(spec)

    def pose_array(s):
        return path.pose(np.array([0.0, 5.0, s, 20.0]))

    def to_earth_array(s):
        return path.to_earth(PathState(np.array([s, 5.0, 20.0, 30.0]), np.zeros(4),
                                       np.zeros(4)))

    def check_array(s):
        spec.check_arc_length(np.array([0.0, 5.0, s, 20.0]))

    lookups = (path.curvature, path.pose, pose_array, to_earth_array,
               spec.check_arc_length, check_array)
    # The table's own ends are inside it.
    assert spec.check_arc_length(20.0) is None
    assert spec.check_arc_length(np.array([0.0, 5.0, 20.0])) is None
    for s in (-1.0, math.nextafter(0.0, -math.inf), math.nextafter(20.0, math.inf),
              20.5, 25.0):
        messages = set()
        for lookup in lookups:
            with pytest.raises(DomainError) as info:
                lookup(s)
            messages.add(str(info.value))
        # All lookups apply one range rule and report it the same way; an
        # array reports its first arc length outside the table.
        assert len(messages) == 1
        assert f"s={s:.6g} outside sampled table range [0, 20]" in messages
    # NaN fails every range comparison without being outside; it is not an
    # arc length, and every lookup says so.
    for lookup in lookups:
        with pytest.raises(DomainError, match="arc length must be finite, got s=nan"):
            lookup(math.nan)


def test_sampled_roads_run_without_scipy(tmp_path):
    # The package computes the PCHIP itself: with every scipy import made to
    # fail, a sampled road answers an array pose query and a simulation on one
    # runs from the command line. A fresh interpreter, since this one has scipy.
    (tmp_path / "table.csv").write_text(
        "s_meters,kappa_per_meter\n0.0,0.0\n10.0,0.01\n20.0,0.0\n")
    (tmp_path / "config.yaml").write_text(textwrap.dedent("""\
        vehicle: {wheelbase_m: 2.57, sensor_offset_m: 2.0, max_steer_deg: 30.0, speed_mps: 2.0}
        control: {k1: -0.8, k2_per_m: 0.02, max_lat_accel_mps2: 4.0, variant: full}
        path: {kind: sampled, csv: table.csv}
        initial: {s_m: 0.0, e_m: -0.5, theta_deg: 0.0}
        sim: {dt_s: 0.01, t_end_s: 3.0}
        """))
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from offsetsteer import PathSpec, build_path, cli\n"
            "path = build_path(PathSpec.sampled([0.0, 10.0, 20.0], [0.0, 0.01, 0.0]))\n"
            "x, y, psi = path.pose(np.linspace(0.0, 20.0, 5))\n"
            "assert psi.shape == (5,) and np.all(np.isfinite(psi))\n"
            "assert cli.main(['simulate', '--config', 'config.yaml', '--out', 'out']) == 0\n")
    proc = run_python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trajectory.csv").is_file()


def _random_table():
    rng = np.random.default_rng(20)
    table_s = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 40.0, 29))))
    return table_s, rng.normal(0.0, 0.01, table_s.size)


# The end rule's table: at its start the one-sided estimate has the sign
# opposite to the first slope, so the end derivative is 0; at its end the last
# two slopes differ in sign and the estimate exceeds three times the last
# slope, so the end derivative is 3 * m0, m0 the last slope.
_END_RULE_TABLE = ([0.0, 10.0, 20.0, 30.0, 40.0], [0.0, 0.001, 0.011, 0.017, 0.016])


@pytest.mark.parametrize("table_s, table_kappa", [
    _random_table(),
    # At the -0.0 knot every term of the power sum is -0.0; PPoly's sum
    # starts from 0.0 and returns 0.0 there.
    ([0.0, 10.0, 20.0, 30.0, 40.0], [0.0, 0.001, -0.0, -0.002, -0.01]),
    # Two rows: one straight line.
    ([-5.0, 25.0], [0.002, -0.004]),
    # Equal neighbours: zero slopes, so zero node derivatives.
    ([0.0, 10.0, 20.0, 30.0, 40.0, 50.0], [0.01, 0.01, 0.01, 0.0, 0.005, 0.005]),
    # Slopes that change sign at every interior knot.
    ([0.0, 10.0, 20.0, 30.0, 40.0], [-0.01, 0.002, -0.003, 0.01, -0.005]),
    _END_RULE_TABLE,
    # Intervals from 0.25 m to 49 m, so the weighted harmonic mean weighs them apart.
    ([0.0, 0.5, 7.0, 7.25, 30.0, 31.0, 80.0], [0.0, 0.003, 0.01, 0.0105, -0.002, -0.004, 0.0]),
], ids=["random", "negative-zero-knot", "two-rows", "flat-segment", "sign-change",
        "end-rule", "uneven-spacing"])
def test_sampled_curvature_equals_pchip_exactly(table_s, table_kappa):
    # The package builds the interpolant itself; its scalar lookup must return
    # PchipInterpolator's value bit for bit, sign of zero included, at every
    # knot (the table ends included), beside each interior knot and at seeded
    # points in between. So must the pose grid's array lookup at its nodes.
    path = build_path(PathSpec.sampled(table_s, table_kappa))
    pchip = PchipInterpolator(table_s, table_kappa)
    if table_kappa is _END_RULE_TABLE[1]:
        s, kappa = np.array(table_s), np.array(table_kappa)
        h, m = np.diff(s), np.diff(kappa) / np.diff(s)
        start, end = (((2.0 * h[i] + h[j]) * m[i] - h[i] * m[j]) / (h[i] + h[j])
                      for i, j in ((0, 1), (-1, -2)))
        slopes = pchip(s[[0, -1]], nu=1)
        # Both shape fixes of the end rule are reached.
        assert np.sign(start) != np.sign(m[0]) and slopes[0] == 0.0 != start
        assert np.sign(m[-1]) != np.sign(m[-2]) and abs(end) > 3.0 * abs(m[-1])
        assert slopes[1] == pytest.approx(3.0 * m[-1], rel=1e-12)
    grid = path._grid
    grid.end_pose()
    nodes = grid.s0 + grid.h * np.arange(grid.n + 1)
    assert np.array_equal(_bits(grid.kappa), _bits(pchip(nodes)))
    # The last node may lie past the table's end by rounding.
    inside = nodes[nodes <= table_s[-1]]
    assert np.array_equal(_bits(grid.kappa[:inside.size]),
                          _bits([path.curvature(s) for s in inside]))
    interior = table_s[1:-1]
    rng = np.random.default_rng(21)
    queries = [*table_s,
               *(math.nextafter(s, -math.inf) for s in interior),
               *(math.nextafter(s, math.inf) for s in interior),
               *rng.uniform(table_s[0], table_s[-1], 10_000)]
    for s in queries:
        got, want = path.curvature(s), float(pchip(s))
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), s


_SHIFTED_TABLE = (_random_table()[0] - 100.0, _random_table()[1])


def _closed_form_kappa(spec):
    """The road's curvature as a function of s, written from its definition
    in scalar math (the sampled road's is its PCHIP interpolant)."""
    if spec.kind == "straight":
        return lambda s: 0.0
    if spec.kind == "circular":
        return lambda s: 1.0 / spec.radius
    if spec.kind == "cosine":
        s_end = spec.periods * spec.period
        return lambda s: (0.5 * spec.kappa_max * (1.0 - math.cos(2.0 * math.pi / spec.period * s))
                          if 0.0 <= s <= s_end else 0.0)
    pchip = PchipInterpolator(spec.table_s, spec.table_kappa)
    return lambda s: float(pchip(s))


_COSINE_EDGES = [v for end in (0.0, -0.0, COSINE_PERIODS * COSINE_PERIOD)
                 for v in (end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf))]


@pytest.mark.parametrize("spec, special, lo, hi", [
    (PathSpec.straight(), [0.0, -0.0], -100.0, 1e4),
    (PathSpec.circular(137.0), [0.0, -0.0], -100.0, 1e4),
    (PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS), _COSINE_EDGES,
     -100.0, COSINE_PERIODS * COSINE_PERIOD + 100.0),
    # A table that starts before s = 0.
    (PathSpec.sampled(*_SHIFTED_TABLE), [-0.0, 0.0, *_SHIFTED_TABLE[0]],
     _SHIFTED_TABLE[0][0], _SHIFTED_TABLE[0][-1]),
], ids=["straight", "circular", "cosine", "sampled"])
def test_curvature_equals_closed_forms_bit_for_bit(spec, special, lo, hi):
    # Before s = 0, at and past the cosine road's end and at seeded arc
    # lengths, the lookup returns the closed form's bits, sign of zero
    # included.
    path, kappa = build_path(spec), _closed_form_kappa(spec)
    rng = np.random.default_rng(23)
    for s in (*special, *rng.uniform(lo, hi, 2000)):
        got, want = path.curvature(s), kappa(s)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), s


@pytest.mark.parametrize("spec", [
    PathSpec.straight(), PathSpec.circular(200.0),
    PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS),
    PathSpec.sampled(*_random_table()),
], ids=["straight", "circular", "cosine", "sampled"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arc_length_raises(spec, bad):
    # A non-finite s is no place on any road: the pose lookups reject it,
    # as a float or anywhere in an array, and so does a curvature lookup
    # that has a range to test (a straight or circular road has one kappa).
    path = build_path(spec)
    array = np.array([1.0, bad, math.nan])
    checks = [lambda: path.pose(bad), lambda: path.to_earth(PathState(bad, 0.0, 0.0)),
              lambda: path.pose(array),
              lambda: path.to_earth(PathState(array, np.zeros(3), np.zeros(3)))]
    if spec.kind in ("cosine", "sampled"):
        checks.append(lambda: path.curvature(bad))
    for check in checks:
        with pytest.raises(DomainError, match=f"^arc length must be finite, got s={bad}$"):
            check()


def _single_pass_nodes(path):
    """The pose grid's nodes (x, y, psi, kappa) from one vectorised pass
    over the whole lattice, the way the grid was built before it filled on
    demand."""
    grid, spec = path._grid, path.spec
    h = grid.h
    s_nodes = grid.s0 + h * np.arange(grid.n + 1)
    k_nodes = grid._kappa_fn(s_nodes)
    k_half = grid._kappa_fn(s_nodes[:-1] + 0.5 * h)
    dpsi = h * (k_nodes[:-1] + 4.0 * k_half + k_nodes[1:]) / 6.0
    psi = np.concatenate(([spec.psi0], np.cumsum(dpsi) + spec.psi0))
    psi_a = psi[:-1]
    psi_b = psi_a + 0.5 * h * k_nodes[:-1]
    psi_c = psi_a + 0.5 * h * k_half
    psi_d = psi_a + h * k_half
    dx = h * (np.cos(psi_a) + 2.0 * np.cos(psi_b) + 2.0 * np.cos(psi_c) + np.cos(psi_d)) / 6.0
    dy = h * (np.sin(psi_a) + 2.0 * np.sin(psi_b) + 2.0 * np.sin(psi_c) + np.sin(psi_d)) / 6.0
    return (np.concatenate(([spec.x0], np.cumsum(dx) + spec.x0)),
            np.concatenate(([spec.y0], np.cumsum(dy) + spec.y0)), psi, k_nodes)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("spec", [
    PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS, 3.0, -0.0, 0.7),
    PathSpec.sampled(*_random_table(), 2.0, 3.0, -0.4),
    # Every increment of psi and y is -0.0, so the sums keep their signed zeros.
    PathSpec.cosine(-0.0, COSINE_PERIOD, COSINE_PERIODS, 0.0, -0.0, -0.0),
], ids=["cosine", "sampled", "signed-zero"])
def test_pose_grid_fills_on_demand_bit_for_bit(spec):
    # Queried out of order, across pass boundaries, at both ends and past
    # the cosine road's end, the on-demand grid answers what a grid filled
    # in one pass answers, bit for bit, and fills only what was asked for.
    nodes = _single_pass_nodes(build_path(spec))
    whole = build_path(spec)
    whole._grid.end_pose()
    for got, want in zip((whole._grid.x, whole._grid.y, whole._grid.psi, whole._grid.kappa),
                         nodes):
        assert np.array_equal(_bits(got), _bits(want))

    path = build_path(spec)
    grid = path._grid
    at = grid.s0 + grid.h * np.array([POSE_GRID_CHUNK + 0.5, 2.5 * POSE_GRID_CHUNK, 0.0,
                                      POSE_GRID_CHUNK - 0.5, POSE_GRID_CHUNK,
                                      2.0 * POSE_GRID_CHUNK - 1e-3, 1.0])
    queries = [*at, at[:4], at[::-1], grid.s0]
    s_end = path._s_end
    if spec.kind == "cosine":
        queries += [np.array([-7.0, 30.0]), np.array([s_end + 5.0, 12.0]), s_end + 0.5, -1.0]
    queries += [s_end, np.array([s_end, grid.s0])]
    for i, s in enumerate(queries):
        if i == len(at):
            # The single queries reached 2.5 passes in, so three passes ran.
            assert grid._last == 3 * POSE_GRID_CHUNK < grid.n
        for got, want in zip(path.pose(s), whole.pose(s)):
            assert np.array_equal(_bits(got), _bits(want)), s
        filled = grid._last + 1
        for got, want in zip((grid.x, grid.y, grid.psi, grid.kappa), nodes):
            assert np.array_equal(_bits(got[:filled]), _bits(want[:filled]))
    assert grid._last == grid.n

    # end_pose alone fills the whole grid and reads its last node.
    assert np.array_equal(_bits(build_path(spec)._grid.end_pose()),
                          _bits([column[-1] for column in nodes[:3]]))


def test_threads_share_one_pose_grid():
    # Threads that query one fresh road at once fill its grid under the
    # grid's lock, and each gets what a road of its own answers; a lost or
    # doubled pass would break the carried sums.
    spec = PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS)
    rows = np.random.default_rng(23).uniform(-10.0, _COSINE_END + 10.0, (8, 2000))
    rows[::2] *= 0.3  # half the threads stay on the road's first part
    path = build_path(spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(path.pose, s) for s in rows]
            answers = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for s, got in zip(rows, answers):
        for column, want in zip(got, build_path(spec).pose(s)):
            assert np.array_equal(_bits(column), _bits(want))


# Uneven knots over 2 m, so a 1 mm walk crosses each interval in a few to a
# few hundred lookups; 0.375 m is no multiple of the walk's step.
_SHORT_TABLE = PathSpec.sampled([-0.5, -0.25, 0.0, 0.375, 0.5, 1.125, 1.5],
                                [0.01, -0.002, 0.0, 0.004, 0.0035, -0.006, 0.001])


def _walk(spec):
    """Arc lengths over the whole table in steps of about 1 mm, with every
    knot and the neighbours of each knot inside the table, in order."""
    knots = np.array(spec.table_s)
    lo, hi = knots[0], knots[-1]
    near = np.concatenate((np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)))
    s = np.concatenate((np.linspace(lo, hi, 2001), knots, near[(near >= lo) & (near <= hi)]))
    return np.unique(s).tolist()


def _fresh_curvature(spec, points):
    """What a fresh road answers at each point on its first lookup, which bisects."""
    return [build_path(spec).curvature(s) for s in points]


def test_sampled_lookup_walk_equals_a_fresh_lookup():
    # The loop's pattern: one road, looked up forward and then back over the
    # whole table, where each lookup starts from the interval used last.
    path, walk = build_path(_SHORT_TABLE), _walk(_SHORT_TABLE)
    assert set(_SHORT_TABLE.table_s) <= set(walk) and max(np.diff(walk)) < 1.001e-3
    want = _fresh_curvature(_SHORT_TABLE, walk)
    for order in (walk, walk[::-1]):
        got = [path.curvature(s) for s in order]
        assert np.array_equal(_bits(got), _bits(want if order is walk else want[::-1]))


def test_sampled_lookup_jumping_between_intervals_equals_a_fresh_lookup():
    path, walk = build_path(_SHORT_TABLE), _walk(_SHORT_TABLE)
    rng = np.random.default_rng(35)
    points = [*rng.choice(walk, 1000), *rng.uniform(-0.5, 1.5, 1000)]
    rng.shuffle(points)
    got = [path.curvature(s) for s in points]
    assert np.array_equal(_bits(got), _bits(_fresh_curvature(_SHORT_TABLE, points)))


@pytest.mark.parametrize("bad", [-0.75, math.nextafter(-0.5, -math.inf),
                                 math.nextafter(1.5, math.inf), 2.0, math.nan, math.inf,
                                 -math.inf])
def test_sampled_lookup_that_raises_leaves_the_next_answer(bad):
    # A lookup outside the table, or at a non-finite s, raises the text a
    # fresh road raises, from whichever interval was used last; the next
    # lookup, in that interval or in another, answers as a fresh road does.
    path = build_path(_SHORT_TABLE)
    with pytest.raises(DomainError) as fresh:
        build_path(_SHORT_TABLE).curvature(bad)
    for before, after in ((0.1, 0.2), (1.5, -0.5), (-0.5, 1.5), (0.4, 0.4)):
        want = _fresh_curvature(_SHORT_TABLE, [after])
        path.curvature(before)
        with pytest.raises(DomainError) as info:
            path.curvature(bad)
        assert str(info.value) == str(fresh.value)
        assert _bits([path.curvature(after)]) == _bits(want)
    assert str(fresh.value) in (f"arc length must be finite, got s={bad}",
                                f"s={bad:.6g} outside sampled table range [-0.5, 1.5]")


def test_threads_share_one_sampled_lookup():
    # The interval used last is one attribute that any thread may replace;
    # each thread walks the road in its own order and gets what a fresh road
    # answers at every point.
    walk = _walk(_SHORT_TABLE)
    want = dict(zip(walk, _fresh_curvature(_SHORT_TABLE, walk)))
    rng = np.random.default_rng(36)
    orders = [walk, walk[::-1], walk[::7] + walk[3::7], walk[::-3] + walk[::3],
              *(rng.permutation(walk).tolist() for _ in range(4))]
    path = build_path(_SHORT_TABLE)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda order: [path.curvature(s) for s in order], order)
                       for order in orders]
            answers = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for order, got in zip(orders, answers):
        assert np.array_equal(_bits(got), _bits([want[s] for s in order]))


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


@pytest.mark.parametrize("body", [
    "s,kappa\n0.0,0.0\n1.0,0.1\n", "s_meters,kappa_per_meter\n0.0,0.0\n1.0,x\n",
    "s_meters,kappa_per_meter\n0.0,0.0\n1.0,nan\n",
    "s_meters,kappa_per_meter\n0.0,0.0\n0.0,0.1\n", "s_meters,kappa_per_meter\n0.0,0.0\n",
], ids=["header", "row", "non-finite", "not-increasing", "one-row"])
def test_curvature_table_errors_name_the_file(tmp_path, body):
    table = tmp_path / "profile.csv"
    table.write_text(body)
    with pytest.raises(ConfigError) as info:
        load_curvature_table(table)
    assert str(info.value).startswith(f"{table}: ")


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
    psis = path.pose(grid)[2]
    x = trapezoid(np.cos(psis), grid)
    y = trapezoid(np.sin(psis), grid)
    xe, ye, _ = path.pose(s_hi)
    assert xe == pytest.approx(x, abs=1e-6)
    assert ye == pytest.approx(y, abs=1e-6)


_COSINE_END = COSINE_PERIODS * COSINE_PERIOD
_TABLE_S, _TABLE_KAPPA = _random_table()


@pytest.mark.parametrize("spec, special, lo, hi", [
    # y0 = -0.0 keeps signed zeros in the y column.
    (PathSpec.straight(1.0, -0.0, 0.0), [0.0, -0.0], -50.0, 1500.0),
    (PathSpec.circular(200.0, 3.0, -1.0, 2.5), [0.0, -0.0], -50.0, 1500.0),
    (PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS),
     [0.0, -0.0, -1e-300, 250.0, _COSINE_END, math.nextafter(_COSINE_END, math.inf)],
     -100.0, _COSINE_END + 100.0),
    (PathSpec.sampled(_TABLE_S, _TABLE_KAPPA), _TABLE_S, _TABLE_S[0], _TABLE_S[-1]),
], ids=["straight", "circular", "cosine", "sampled"])
def test_array_pose_equals_scalar_formulas(spec, special, lo, hi):
    # An array query must give, element for element and sign of zero
    # included, what the scalar formulas give: on the cosine road before its
    # start and past its end too, on the sampled road at its knots.
    path = build_path(spec)
    rng = np.random.default_rng(22)
    s = np.concatenate((special, rng.uniform(lo, hi, 10_000)))
    e = rng.uniform(-20.0, 20.0, s.size)
    theta = rng.uniform(-math.pi, math.pi, s.size)
    rows = list(zip(s.tolist(), e.tolist(), theta.tolist()))
    want_pose = np.array([reference_pose(path, v) for v, _, _ in rows]).T
    want_earth = np.array([reference_to_earth(path, PathState(*row)) for row in rows]).T
    for got, want in ((path.pose(s), want_pose),
                      (path.to_earth(PathState(s, e, theta)), want_earth)):
        for column, expected in zip(got, want):
            assert np.array_equal(column.view(np.int64), expected.view(np.int64))
    # A float query gives floats, the same values.
    for i in range(0, s.size, 50):
        for got, want in ((path.pose(rows[i][0]), want_pose[:, i]),
                          (path.to_earth(PathState(*rows[i])), want_earth[:, i])):
            assert all(type(v) is float for v in got)
            assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize("spec, lo, hi", [
    (PathSpec.straight(1.0, -2.0, 0.3), -50.0, 900.0),
    (PathSpec.circular(200.0, 3.0, -1.0, 2.5), -50.0, 900.0),
    (PathSpec.cosine(COSINE_KAPPA_MAX, COSINE_PERIOD, COSINE_PERIODS), -50.0, _COSINE_END + 50.0),
    (PathSpec.sampled(_TABLE_S, _TABLE_KAPPA), _TABLE_S[0], _TABLE_S[-1]),
], ids=["straight", "circular", "cosine", "sampled"])
def test_to_earth_offsets_along_the_normal(spec, lo, hi):
    # A mapped state lies on the normal through D(s): (A - D(s)) . t(s) = 0,
    # the signed cross product t(s) x (A - D(s)) is e, and the heading is
    # the tangent's plus theta.
    path = build_path(spec)
    rng = np.random.default_rng(7)
    s = rng.uniform(lo, hi, 500)
    e = rng.uniform(-25.0, 25.0, s.size)
    theta = rng.uniform(-math.pi, math.pi, s.size)
    x, y, psi = path.to_earth(PathState(s, e, theta))
    xd, yd, psid = path.pose(s)
    tx, ty = np.cos(psid), np.sin(psid)
    rx, ry = x - xd, y - yd
    np.testing.assert_allclose(rx * tx + ry * ty, 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tx * ry - ty * rx, e, rtol=0, atol=1e-12)
    np.testing.assert_allclose(psi - psid, theta, rtol=0, atol=1e-12)


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


@given(st.floats(-math.pi, math.pi, exclude_max=True))
@example(-math.pi)
@example(-0.0)
@example(math.nextafter(math.pi, 0.0))
def test_wrap_angle_error_keeps_an_angle_in_range_bit_for_bit(theta):
    # The simulation loop calls the wrap only for a theta outside [-pi, pi).
    assert wrap_angle_error(theta, 0.0).hex() == theta.hex()


@given(st.floats(-10.0, 10.0), st.integers(-5, 5))
def test_wrap_angle_error_periodic(psi, n):
    base = wrap_angle_error(psi, 0.0)
    shifted = wrap_angle_error(psi + 2.0 * math.pi * n, 0.0)
    assert shifted == pytest.approx(base, abs=1e-12) or (
        # Both representations of the boundary collapse to -pi.
        abs(base) == pytest.approx(math.pi, abs=1e-12)
        and abs(shifted) == pytest.approx(math.pi, abs=1e-12))
