"""Arc-length-parameterized reference paths and path-frame conversions.

A path is described by its curvature profile kappa(s) plus an anchor pose
(x0, y0, psi0) at s = 0. Heading and position follow from integrating the
curvature, so tangent angle and coordinates are always consistent with the
profile by construction. On the roads whose curvature varies the heading
has a closed form: the cosine road's own, and on a sampled road the
integral of its PCHIP interval by interval, a quartic. Their positions come
from a grid of nodes at most ``POSE_GRID_STEP`` apart, the step a committed
accuracy table picks (tests/golden/pose_accuracy.csv), and the grid fills on
demand, only as far along the road as the queries reach. The cosine road's
grid holds one period, which serves every period once turned and moved to
where that period starts, so a run started far along the road costs at most
one period's nodes. A sampled road's grid fills from the table's start: its
position at a knot is the sum over every interval before it. The ranges of
the period, the table's arc lengths and curvatures (``errors.RANGES``) bound
both grids and keep every PCHIP coefficient and heading finite. Vehicle states
can be expressed either in the earth frame (x, y, psi) or relative to the
path (arc length of the closest point, signed lateral deviation, heading
error).
"""

from __future__ import annotations

import csv
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, check_range

TWO_PI = 2.0 * math.pi

# Longest segment of the pose grid (cosine / sampled kinds), the largest step
# of tests/golden/pose_accuracy.csv that is at least as accurate on every road
# there as the 0.01 m grid it replaced.
POSE_GRID_STEP = 0.2  # [m]
# Most grid nodes integrated per pass when a query needs more of them.
POSE_GRID_CHUNK = 4096
# Fewest nodes a pass integrates, so that a run's first pose, read alone,
# does not cost a pass of its own.
POSE_GRID_MIN_PASS = 256


class PathState(NamedTuple):
    """Vehicle state relative to the path."""

    s: float      # arc length of closest path point [m]
    e: float      # lateral deviation, positive left of the path [m]
    theta: float  # heading error in [-pi, pi) [rad]


class EarthState(NamedTuple):
    """Vehicle state in the earth-fixed frame."""

    x: float    # [m]
    y: float    # [m]
    psi: float  # heading [rad]


def wrap_angle_error(psi: float, psi_d: float) -> float:
    """Heading error psi - psi_d wrapped to [-pi, pi).

    Subtracts the nearest multiple of 2*pi (ties round to even), then maps
    the +pi boundary to -pi so the half-open interval is exact.
    """
    r = math.remainder(psi - psi_d, TWO_PI)
    return -math.pi if r >= math.pi else r


@dataclass(frozen=True)
class PathSpec:
    """Declarative description of a reference path.

    Exactly one geometry kind is populated; use the classmethod
    constructors instead of filling fields by hand. A spec checks itself when made.
    """

    kind: str                      # straight | circular | cosine | sampled
    radius: float | None = None    # circular: radius [m]
    kappa_max: float | None = None  # cosine: peak curvature [1/m]
    period: float | None = None    # cosine: arc-length period [m]
    periods: int = 1               # cosine: number of periods
    table_s: tuple[float, ...] | None = None      # sampled: arc lengths [m]
    table_kappa: tuple[float, ...] | None = None  # sampled: curvatures [1/m]
    x0: float = 0.0                # anchor position [m]
    y0: float = 0.0                # anchor position [m]
    psi0: float = 0.0              # anchor heading [rad]

    @classmethod
    def straight(cls, x0=0.0, y0=0.0, psi0=0.0) -> "PathSpec":
        return cls(kind="straight", x0=x0, y0=y0, psi0=psi0)

    @classmethod
    def circular(cls, radius: float, x0=0.0, y0=0.0, psi0=0.0) -> "PathSpec":
        return cls(kind="circular", radius=radius, x0=x0, y0=y0, psi0=psi0)

    @classmethod
    def cosine(cls, kappa_max: float, period: float, periods: int = 1,
               x0=0.0, y0=0.0, psi0=0.0) -> "PathSpec":
        return cls(kind="cosine", kappa_max=kappa_max, period=period,
                   periods=periods, x0=x0, y0=y0, psi0=psi0)

    @classmethod
    def sampled(cls, s, kappa, x0=0.0, y0=0.0, psi0=0.0) -> "PathSpec":
        return cls(kind="sampled", table_s=tuple(float(v) for v in s),
                   table_kappa=tuple(float(v) for v in kappa),
                   x0=x0, y0=y0, psi0=psi0)

    def __post_init__(self):
        if self.kind == "circular":
            check_range("radius", self.radius)
        elif self.kind == "cosine":
            for name in ("kappa_max", "period", "periods"):
                check_range(name, getattr(self, name))
            if not float(self.periods).is_integer():
                raise ConfigError(
                    f"cosine path needs a whole number of periods >= 1, got {self.periods}")
        elif self.kind == "sampled":
            if not self.table_s or self.table_kappa is None:
                raise ConfigError("sampled path needs a non-empty (s, kappa) table")
            if len(self.table_s) != len(self.table_kappa):
                raise ConfigError("sampled path table columns differ in length")
            if len(self.table_s) < 2:
                raise ConfigError("sampled path table needs at least two rows")
            s = np.array(self.table_s)
            check_range("table s", s)
            check_range("table s step", s[1:] - s[:-1])
            check_range("table kappa", np.array(self.table_kappa))
        elif self.kind != "straight":
            raise ConfigError(f"unknown path kind {self.kind!r}")
        for name in ("x0", "y0", "psi0"):
            check_range(name, getattr(self, name))

    def check_arc_length(self, s) -> None:
        """A road is evaluated at finite arc lengths only, and a sampled road
        only over its table's; an array of arc lengths is reported at its
        first one that breaks the rule."""
        s = np.asarray(s)
        bad = s[~np.isfinite(s)]
        if bad.size:
            raise DomainError(f"arc length must be finite, got s={bad[0]}")
        if self.kind == "sampled":
            lo, hi = self.table_s[0], self.table_s[-1]
            outside = s[(s < lo) | (s > hi)]
            if outside.size:
                raise DomainError(
                    f"s={outside[0]:.6g} outside sampled table range [{lo:.6g}, {hi:.6g}]")


def load_curvature_table(csv_path, x0=0.0, y0=0.0, psi0=0.0) -> PathSpec:
    """Read a sampled curvature profile from a two-column CSV file.

    The path is anchored at (``x0``, ``y0``) with heading ``psi0``. The header
    row must be exactly ``s_meters,kappa_per_meter``. Every
    ``ConfigError`` it raises, the table checks of :class:`PathSpec` included,
    starts with ``csv_path``.
    """
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigError(f"{csv_path}: empty curvature table") from None
            if [h.strip() for h in header] != ["s_meters", "kappa_per_meter"]:
                raise ConfigError(
                    f"{csv_path}: expected header 's_meters,kappa_per_meter', got {header!r}")
            s_vals, k_vals = [], []
            for row in reader:
                if not row:
                    continue
                try:
                    s_vals.append(float(row[0]))
                    k_vals.append(float(row[1]))
                except (ValueError, IndexError):
                    raise ConfigError(f"{csv_path}: bad table row {row!r}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{csv_path}: not UTF-8 text: {exc}") from None
    try:
        return PathSpec.sampled(s_vals, k_vals, x0, y0, psi0)
    except ConfigError as exc:
        raise ConfigError(f"{csv_path}: {exc}") from None


def _line(x0: float, y0: float, psi0: float, ds: np.ndarray):
    """Poses along the straight line through (x0, y0) at heading psi0."""
    return x0 + ds * math.cos(psi0), y0 + ds * math.sin(psi0), np.full_like(ds, psi0)


def _cosine_heading(psi0: float, half_kappa_max: float, omega: float, s: np.ndarray):
    """The cosine road's heading on the road, psi0 + (kappa_max/2) * (s - sin(omega*s)/omega)."""
    return psi0 + half_kappa_max * (s - np.sin(omega * s) / omega)


def _cosine_kappa(half_kappa_max: float, omega: float, s: np.ndarray):
    """The cosine road's curvature on the road, in ``Path.curvature``'s order."""
    return half_kappa_max * (1.0 - np.cos(omega * s))


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The PCHIP interpolant of the table (x, y) as c0 u^3 + c1 u^2 + c2 u + c3
    on each interval, u its offset from the interval's start: shape (4, m - 1).

    The numpy operations of scipy's ``PchipInterpolator`` in its order, so
    each coefficient has its bits: Fritsch-Butland node derivatives (0 where
    the slopes change sign or one is 0, else their weighted harmonic mean),
    Moler's one-sided three-point end derivatives with his two shape fixes,
    a straight line through a two-row table, and the cubic Hermite
    coefficients of ``CubicHermiteSpline``. PPoly's sum starts from 0.0, so
    "+ 0.0" turns a -0.0 coefficient into 0.0 as well.
    """
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    if y.size == 2:
        dk = np.array([mk[0], mk[0]])
    else:
        smk = np.sign(mk)
        condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
        w1 = 2 * hk[1:] + hk[:-1]
        w2 = hk[1:] + 2 * hk[:-1]
        # Where this divides by zero or overflows (a slope of a few ulps),
        # condition holds or the mean is inf, whose reciprocal is 0, as in scipy.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        dk = np.zeros_like(y)
        dk[1:-1][~condition] = 1.0 / whmean[~condition]
        # Both ends at once: interval 0 and its neighbour, the last and its.
        h0, h1, m0, m1 = hk[[0, -1]], hk[[1, -2]], mk[[0, -1]], mk[[1, -2]]
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        mask = np.sign(d) != np.sign(m0)
        mmm = ~mask & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3. * np.abs(m0))
        d[mask] = 0.
        d[mmm] = 3. * m0[mmm]
        dk[[0, -1]] = d
    # CubicHermiteSpline's slope is np.diff(y) / np.diff(x): mk, bit for bit.
    t = (dk[:-1] + dk[1:] - 2 * mk) / hk
    return np.stack((t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1])) + 0.0


def _pchip_array(knots: np.ndarray, coefs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The interpolant of ``_pchip_coefficients`` at an array of arc lengths,
    each element bit-equal to ``Path.curvature``'s scalar lookup (and to
    PPoly's evaluation); the end intervals continue past the knots."""
    j = np.clip(np.searchsorted(knots, s, "right") - 1, 0, knots.size - 2)
    # np.take gathers the columns much faster than coefs[:, j].
    c0, c1, c2, c3 = np.take(coefs, j, axis=1)
    u = s - np.take(knots, j)
    u2 = u * u
    return c3 + c2 * u + c1 * u2 + c0 * (u2 * u)


def _sampled_heading(knots: np.ndarray, antider: np.ndarray, knot_psi: np.ndarray,
                     s: np.ndarray) -> np.ndarray:
    """The sampled road's heading at an array of arc lengths inside the table:
    the heading at the interval's start knot plus the quartic antiderivative
    of its PCHIP cubic, a0 u^4 + a1 u^3 + a2 u^2 + a3 u in Horner's order."""
    j = np.clip(np.searchsorted(knots, s, "right") - 1, 0, knots.size - 2)
    a0, a1, a2, a3 = np.take(antider, j, axis=1)
    u = s - np.take(knots, j)
    return np.take(knot_psi, j) + u * (a3 + u * (a2 + u * (a1 + u * a0)))


def _floats_for_scalar(s, values: tuple) -> tuple:
    """``values`` as floats for a scalar arc length ``s``, unchanged for an array."""
    return tuple(map(float, values)) if np.ndim(s) == 0 else values


def _quintic(p0, p1, d0, d1, e0, e1) -> tuple:
    """Coefficients, lowest power first, of the quintic in t on [0, 1] with
    value p, slope d and second derivative e at t = 0 and t = 1."""
    dp = p1 - p0
    return (p0, d0, 0.5 * e0,
            10.0 * dp - (6.0 * d0 + 4.0 * d1) - (1.5 * e0 - 0.5 * e1),
            -15.0 * dp + (8.0 * d0 + 7.0 * d1) + (1.5 * e0 - e1),
            6.0 * dp - 3.0 * (d0 + d1) - 0.5 * (e0 - e1))


class _PoseGrid:
    """Positions along a road whose heading and curvature are known at every
    arc length.

    The lattice has a node on every break (a sampled road's knots; the
    cosine road's period start and end) and splits each interval between
    breaks into equal segments of at most ``POSE_GRID_STEP``. The position
    steps over a segment of length h integrate x' = cos(psi), y' = sin(psi)
    by the three-point rule with end slopes, exact for quintics:
    h/30 (7 f_a + 16 f_mid + 7 f_b) + h^2/60 (f'_a - f'_b), where
    f' = -kappa sin(psi) for x and kappa cos(psi) for y. Their running sums
    are the node positions, relative to the first node. Each segment keeps
    the quintic in t = (s - s_a) / h that matches the positions and their
    first and second derivatives at both ends (quintic Hermite): column i of
    ``coef`` holds segment i's six coefficients for x, then six for y,
    lowest power first. A query evaluates them by Horner's rule.

    The grid fills on demand: a query fills the segments, up to
    ``POSE_GRID_CHUNK`` per pass, as far as the farthest one it reads, and
    at least ``POSE_GRID_MIN_PASS`` at a time. ``coef`` doubles in size as
    the passes reach its end, up to the ``n`` segments of the whole
    lattice. The running sums carry from one pass to the next, so every
    segment equals the one a single pass over the whole lattice gives, bit
    for bit. ``end`` sums the rest of the lattice the same way without
    keeping it.
    """

    def __init__(self, heading, kappa, breaks: np.ndarray):
        lengths = breaks[1:] - breaks[:-1]
        self.counts = np.maximum(np.ceil(lengths / POSE_GRID_STEP - 1e-9), 1.0).astype(np.int64)
        self.breaks = breaks
        # Each interval's step; the last break starts no interval.
        self.h = np.append(lengths / self.counts, 0.0)
        # The index of each break's node; the last one is n.
        self.first = np.concatenate(([0], np.cumsum(self.counts)))
        self.n = int(self.first[-1])
        self._heading, self._kappa = heading, kappa
        self.coef = np.empty((12, min(self.n, POSE_GRID_MIN_PASS)))
        # Segments 0 to _last - 1 hold their coefficients. The running sums
        # of the (x, y) steps start at -0.0, the exact additive identity.
        self._last = 0
        self._sums = (-0.0, -0.0)
        self._end = None
        self._lock = threading.Lock()

    def nodes(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """The arc lengths of nodes a to b and the steps of the segments a to b - 1."""
        i = np.arange(a, b + 1)
        j = np.searchsorted(self.first, i, "right") - 1
        h = self.h[j]
        return self.breaks[j] + (i - self.first[j]) * h, h[:-1]

    def _passes(self, last: int):
        """Integrate the segments from _last up to ``last`` without storing
        them, at most ``POSE_GRID_CHUNK`` a pass, the sums carried from pass to
        pass. Yields each pass's first node a, its segments' steps h, the
        (slope, second derivative) of x and of y at its nodes, and the
        positions of x and of y at its nodes."""
        a, sums = self._last, self._sums
        while a < last:
            b = min(a + POSE_GRID_CHUNK, last)
            s, h = self.nodes(a, b)
            psi, kappa = self._heading(s), self._kappa(s)
            psi_mid = self._heading(s[:-1] + 0.5 * h)
            cos, sin = np.cos(psi), np.sin(psi)
            derivatives = ((cos, -kappa * sin), (sin, kappa * cos))
            positions = []
            for (f, g), f_mid, carry in zip(derivatives, (np.cos(psi_mid), np.sin(psi_mid)), sums):
                steps = (h * (7.0 * (f[:-1] + f[1:]) + 16.0 * f_mid) / 30.0
                         + h * h * (g[:-1] - g[1:]) / 60.0)
                # cumsum adds in sequence, so resuming from the carried sum
                # gives the sums of one cumsum over the whole lattice.
                steps[0] += carry
                positions.append(np.concatenate(([carry], np.cumsum(steps))))
            sums = positions[0][-1], positions[1][-1]
            yield a, h, derivatives, positions
            a = b

    def fill(self, last: int) -> None:
        """Fill the segments below index ``last``, and at least
        ``POSE_GRID_MIN_PASS`` past the filled ones (clamped to ``n``)."""
        if last <= self._last:
            return
        with self._lock:
            if last <= self._last:
                return
            last = min(max(last, self._last + POSE_GRID_MIN_PASS), self.n)
            for a, h, derivatives, positions in self._passes(last):
                b = a + h.size
                if b > self.coef.shape[1]:
                    # A reader may still hold the old array; its filled
                    # segments stay valid.
                    grown = np.empty((12, min(max(2 * self.coef.shape[1], b), self.n)))
                    grown[:, :a] = self.coef[:, :a]
                    self.coef = grown
                hh = h * h
                for row, (f, g), p in zip((0, 6), derivatives, positions):
                    self.coef[row:row + 6, a:b] = _quintic(p[:-1], p[1:], h * f[:-1], h * f[1:],
                                                           hh * g[:-1], hh * g[1:])
                self._last, self._sums = b, (positions[0][-1], positions[1][-1])

    def end(self) -> tuple[float, float]:
        """The last node's position, summed without keeping the segments past
        the filled ones."""
        if self._end is None:
            with self._lock:
                sums = self._sums
                for *_, positions in self._passes(self.n):
                    sums = positions[0][-1], positions[1][-1]
                self._end = float(sums[0]), float(sums[1])
        return self._end

    def positions(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions at arc lengths ``s`` inside the breaks, relative to the first node."""
        # One interval (the cosine road's period) needs no search.
        j = 0 if self.breaks.size == 2 else np.clip(
            np.searchsorted(self.breaks, s, "right") - 1, 0, self.breaks.size - 2)
        u = (s - self.breaks[j]) / self.h[j]
        # int(u) clamped to the interval's first and last segment.
        k = np.clip(u, 0, self.counts[j] - 1).astype(np.int64)
        i = self.first[j] + k
        self.fill(int(i.max(initial=-1)) + 1)
        t = u - k
        x0, x1, x2, x3, x4, x5, y0, y1, y2, y3, y4, y5 = np.take(self.coef, i, axis=1)
        return (x0 + t * (x1 + t * (x2 + t * (x3 + t * (x4 + t * x5)))),
                y0 + t * (y1 + t * (y2 + t * (y3 + t * (y4 + t * y5)))))


class Path:
    """Evaluable reference path: curvature profile plus pose accessors.

    What it answers never changes after construction, and it is safe to
    share across threads: the pose grid fills under a lock.

    A sampled road's scalar curvature lookup keeps the interval it used last,
    one attribute holding an immutable (start, end, c0, c1, c2, c3) tuple,
    and bisects the knots only when s lies outside that interval's window
    [start, end). The windows partition the table (the last one closes at
    its end, included), so a tuple whose window holds s is the one the
    bisect would pick: the hint changes no answer, and threads that replace
    it in any order need no lock.
    """

    def __init__(self, spec: PathSpec):
        self.spec = spec
        # The curvature lookup reads these fields, not the kind: a constant
        # kappa (straight and circular roads) or, on the cosine road,
        # 0.5 * kappa_max; None where the road has no such value.
        self._kappa = self._half_kappa_max = None
        if spec.kind == "straight":
            self._kappa = 0.0
        elif spec.kind == "circular":
            self._kappa = 1.0 / spec.radius
        elif spec.kind == "cosine":
            self._half_kappa_max = 0.5 * spec.kappa_max
            self._omega = TWO_PI / spec.period
            self._s_end = spec.periods * spec.period
            self._heading = partial(_cosine_heading, spec.psi0, self._half_kappa_max, self._omega)
            # One period's grid serves every period: the heading turns by
            # kappa_max * period / 2 over each.
            self._grid = _PoseGrid(
                self._heading, partial(_cosine_kappa, self._half_kappa_max, self._omega),
                np.array([0.0, spec.period]))
            self._turn = self._half_kappa_max * spec.period
            self._blocks = None
        else:
            knots = np.array(spec.table_s, dtype=float)
            coefs = _pchip_coefficients(knots, np.array(spec.table_kappa, dtype=float))
            h = knots[1:] - knots[:-1]
            # Scalar lookups read the knots and one (start, end, c0, c1, c2, c3)
            # tuple per interval (c0 u^3 + c1 u^2 + c2 u + c3) in plain Python,
            # without the array set-up of an array call; the pose grid makes
            # array calls. The last window ends just past the table, so that
            # it holds the table's end.
            self._knots = knots.tolist()
            self._s_start, self._s_end = self._knots[0], self._knots[-1]
            ends = self._knots[1:-1] + [math.nextafter(self._s_end, math.inf)]
            self._intervals = [(start, end, *c) for start, end, c
                               in zip(self._knots, ends, coefs.T.tolist())]
            # No interval yet: a NaN window holds no s, so the first lookup bisects.
            self._interval = (math.nan,) * 6
            # The heading is each interval's quartic antiderivative of its cubic,
            # a0 u^4 + a1 u^3 + a2 u^2 + a3 u, from the heading at its start knot.
            antider = coefs / np.array([[4.0], [3.0], [2.0], [1.0]])
            a0, a1, a2, a3 = antider
            knot_psi = np.cumsum(np.append(spec.psi0, h * (a3 + h * (a2 + h * (a1 + h * a0)))))
            self._heading = partial(_sampled_heading, knots, antider, knot_psi)
            self._grid = _PoseGrid(self._heading, partial(_pchip_array, knots, coefs), knots)

    # -- curvature -----------------------------------------------------

    def curvature(self, s: float) -> float:
        """Curvature kappa [1/m] at arc length s.

        A straight or circular road has one kappa for every s. The other
        roads run the domain check only once s has failed the range
        comparison that a finite s inside the road passes.
        """
        kappa = self._kappa
        if kappa is not None:
            return kappa
        half_kappa_max = self._half_kappa_max
        if half_kappa_max is not None:
            if 0.0 <= s <= self._s_end:
                return half_kappa_max * (1.0 - math.cos(self._omega * s))
            if not math.isfinite(s):
                self.spec.check_arc_length(s)
            # Constant continuation with the boundary value (zero, as periods
            # is whole), so simulations may run past the profile.
            return 0.0
        # The loop's lookups lie close together, so the interval used last
        # likely holds s; only an s outside its window is range-checked and
        # bisected.
        start, end, c0, c1, c2, c3 = self._interval
        if not start <= s < end:
            if not self._s_start <= s <= self._s_end:
                self.spec.check_arc_length(s)
            knots = self._knots
            self._interval = start, end, c0, c1, c2, c3 = self._intervals[
                bisect_right(knots, s, 0, len(knots) - 1) - 1]
        # The same interval and the same sum as PPoly's evaluation of these
        # coefficients, which the tests hold to scipy's PchipInterpolator bit
        # for bit.
        u = s - start
        u2 = u * u
        return c3 + c2 * u + c1 * u2 + c0 * (u2 * u)

    # -- pose ----------------------------------------------------------

    def pose(self, s: float | np.ndarray) -> tuple:
        """Path point and tangent heading (x_d, y_d, psi_d) at arc length s.

        ``s`` is a float, which gives floats, or an array, which gives arrays;
        a non-finite arc length raises ``DomainError`` on every kind of road.
        An array takes the scalar formulas in the same order, with sin and cos
        as the only elementwise functions, so each element equals their value.
        """
        spec = self.spec
        s = np.asarray(s, dtype=float)
        spec.check_arc_length(s)
        if spec.kind == "straight":
            pose = _line(spec.x0, spec.y0, spec.psi0, s)
        elif spec.kind == "circular":
            rho = spec.radius
            psi = spec.psi0 + s / rho
            pose = (spec.x0 + rho * (np.sin(psi) - math.sin(spec.psi0)),
                    spec.y0 - rho * (np.cos(psi) - math.cos(spec.psi0)),
                    psi)
        elif spec.kind == "cosine":
            # + 0.0 makes a -0.0 from the clip +0.0, whatever numpy's clip returns.
            pose = self._cosine_pose(np.clip(s, 0.0, self._s_end) + 0.0)
            before, past = s < 0.0, s > self._s_end
            if before.any() or past.any():
                # Straight continuations before the start and past the end;
                # the end pose sums the whole period, so it is read only when
                # needed.
                start = _line(spec.x0, spec.y0, spec.psi0, s)
                end = (_line(*map(float, self._cosine_pose(np.asarray(self._s_end))),
                             s - self._s_end) if past.any() else pose)
                pose = tuple(np.where(before, b, np.where(past, a, g))
                             for b, a, g in zip(start, end, pose))
        else:
            x, y = self._grid.positions(s)
            pose = spec.x0 + x, spec.y0 + y, self._heading(s)
        return _floats_for_scalar(s, pose)

    def _cosine_pose(self, s: np.ndarray) -> tuple:
        """Poses (x, y, psi) at arc lengths on the cosine road.

        Period k of the road is period 0 turned by k * kappa_max * period / 2
        and moved to where period k starts. The grid answers for period 0,
        so a far start costs at most one period's nodes.
        """
        period = self.spec.period
        k = np.minimum(np.floor(s / period), self.spec.periods)
        x, y = self._grid.positions(np.clip(s - k * period, 0.0, period))
        lo, hi = (int(k.min()), int(k.max())) if k.size else (0, 0)
        if lo == hi:
            start_x, start_y, cos, sin = self._period_start(lo)
        else:
            ks, index = np.unique(k, return_inverse=True)
            starts = np.array([self._period_start(int(v)) for v in ks]).T
            start_x, start_y, cos, sin = np.take(starts, index.ravel(), axis=1).reshape(
                (4, *k.shape))
        return (self.spec.x0 + (start_x + (cos * x - sin * y)),
                self.spec.y0 + (start_y + (sin * x + cos * y)),
                self._heading(s))

    def _period_start(self, k: int) -> tuple[float, float, float, float]:
        """Where period k of the cosine road starts, from the anchor, and the cos
        and sin of the heading's turn over k periods.

        The start is the sum of the period chord turned by j periods, for j
        below k: a block of 2**m periods that starts at period j is block m
        (``_blocks[m]``) turned by j periods, so the sum takes one block per
        binary digit of k, the highest first.
        """
        turn, blocks = self._turn, self._blocks
        if k and blocks is None:
            # Blocks 0 to the bit length of periods, each twice the one before;
            # threads that build them at once build the same tuple.
            bx, by = self._grid.end()
            blocks = []
            for m in range(int(self.spec.periods).bit_length()):
                blocks.append((bx, by))
                c, s = math.cos((1 << m) * turn), math.sin((1 << m) * turn)
                bx, by = bx + (c * bx - s * by), by + (s * bx + c * by)
            self._blocks = blocks = tuple(blocks)
        x = y = 0.0
        j = 0
        for m in reversed(range(k.bit_length())):
            if k >> m & 1:
                bx, by = blocks[m]
                c, s = math.cos(j * turn), math.sin(j * turn)
                x, y = x + (c * bx - s * by), y + (s * bx + c * by)
                j += 1 << m
        return x, y, math.cos(k * turn), math.sin(k * turn)

    # -- frame conversions ----------------------------------------------

    def to_earth(self, ps: PathState) -> EarthState:
        """Map a path-frame state (floats or arrays, as for ``pose``) to the earth frame."""
        xd, yd, psid = self.pose(ps.s)
        return EarthState(*_floats_for_scalar(ps.s, (xd - ps.e * np.sin(psid),
                                                     yd + ps.e * np.cos(psid),
                                                     psid + ps.theta)))


def build_path(spec: PathSpec) -> Path:
    """Construct an evaluable path from a specification, which checked itself when made."""
    return Path(spec)
