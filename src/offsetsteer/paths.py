"""Arc-length-parameterized reference paths and path-frame conversions.

A path is described by its curvature profile kappa(s) plus an anchor pose
(x0, y0, psi0) at s = 0. Heading and position follow from integrating the
curvature, so tangent angle and coordinates are always consistent with the
profile by construction. Roads whose curvature varies (cosine, sampled)
integrate their poses on a grid that fills on demand, only as far along the
road as the queries reach. Vehicle states can be expressed either in the
earth frame (x, y, psi) or relative to the path (arc length of the closest
point, signed lateral deviation, heading error).
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

from .errors import ConfigError, DomainError

TWO_PI = 2.0 * math.pi

# Grid step for numerically reconstructed poses (cosine / sampled kinds).
POSE_GRID_STEP = 0.01  # [m]
# Most grid nodes integrated per pass when a query needs more of them.
POSE_GRID_CHUNK = 4096


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
        # Written so that NaN fails each check.
        if self.kind == "circular":
            if self.radius is None or not 0.0 < self.radius < math.inf:
                raise ConfigError(f"circular path needs a finite radius > 0, got {self.radius}")
        elif self.kind == "cosine":
            if self.period is None or not 0.0 < self.period < math.inf:
                raise ConfigError(f"cosine path needs a finite period > 0, got {self.period}")
            if self.kappa_max is None or not 0.0 <= self.kappa_max < math.inf:
                raise ConfigError(
                    f"cosine path needs a finite kappa_max >= 0, got {self.kappa_max}")
            if not (self.periods >= 1 and float(self.periods).is_integer()):
                raise ConfigError(
                    f"cosine path needs a whole number of periods >= 1, got {self.periods}")
        elif self.kind == "sampled":
            if not self.table_s or self.table_kappa is None:
                raise ConfigError("sampled path needs a non-empty (s, kappa) table")
            if len(self.table_s) != len(self.table_kappa):
                raise ConfigError("sampled path table columns differ in length")
            if len(self.table_s) < 2:
                raise ConfigError("sampled path table needs at least two rows")
            if not (np.all(np.isfinite(self.table_s)) and np.all(np.isfinite(self.table_kappa))):
                raise ConfigError("sampled path table must hold finite numbers only")
            s = np.asarray(self.table_s)
            if not np.all(s[1:] > s[:-1]):
                raise ConfigError("sampled path table must be strictly increasing in s")
        elif self.kind != "straight":
            raise ConfigError(f"unknown path kind {self.kind!r}")

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


def _cosine_kappa_array(kappa_max: float, omega: float, s_end: float, s: np.ndarray):
    """The cosine road's curvature at an array of arc lengths, zero off the road."""
    inside = (s >= 0.0) & (s <= s_end)
    return np.where(inside, 0.5 * kappa_max * (1.0 - np.cos(omega * s)), 0.0)


def _floats_for_scalar(s, values: tuple) -> tuple:
    """``values`` as floats for a scalar arc length ``s``, unchanged for an array."""
    return tuple(map(float, values)) if np.ndim(s) == 0 else values


class _PoseGrid:
    """Numerically reconstructed pose cache for kinds without closed form.

    Marches (x, y, psi) along the arc with classical fixed-step RK4 on
    x' = cos(psi), y' = sin(psi), psi' = kappa(s), caches the nodes, and
    answers queries by cubic Hermite interpolation (node derivatives are
    known exactly from the headings and curvatures).

    The grid fills on demand. Construction fixes the lattice (``s0``, ``h``,
    ``n``) and allocates the node arrays, and a query fills the nodes, up to
    ``POSE_GRID_CHUNK`` per pass, as far as the highest node it reads: a run
    that drives the first metres of a long road integrates only those. The
    running sums carry from one pass to the next, so every node equals the
    one a single pass over the whole lattice gives, bit for bit.
    """

    def __init__(self, kappa_fn, s_start: float, s_end: float,
                 x0: float, y0: float, psi0: float):
        n = max(1, int(math.ceil((s_end - s_start) / POSE_GRID_STEP - 1e-9)))
        self.s0 = s_start
        self.h = (s_end - s_start) / n
        self.n = n
        self.x, self.y, self.psi, self.kappa = (np.empty(n + 1) for _ in range(4))
        self.x[0], self.y[0], self.psi[0] = x0, y0, psi0
        self._kappa_fn = kappa_fn
        self._anchor = (psi0, x0, y0)
        # Nodes 0 to _last hold their poses (node 0 its curvature only once
        # the first pass has run). The running sums of the (psi, x, y)
        # increments start at -0.0, the exact additive identity.
        self._last = 0
        self._sums = [-0.0, -0.0, -0.0]
        self._lock = threading.Lock()

    def fill(self, last: int) -> None:
        """Fill the nodes up to index ``last`` (clamped to ``n``)."""
        if last <= self._last:
            return
        with self._lock:
            while self._last < min(last, self.n):
                self._fill_pass(self._last, min(self._last + POSE_GRID_CHUNK, self.n))

    def _fill_pass(self, a: int, b: int) -> None:
        """Integrate the segments a to b - 1: nodes a + 1 to b, curvatures a to b."""
        h = self.h
        s_nodes = self.s0 + h * np.arange(a, b + 1)
        k_nodes = self._kappa_fn(s_nodes)
        k_half = self._kappa_fn(s_nodes[:-1] + 0.5 * h)

        # psi' = kappa(s) does not depend on the state, so the RK4 increment
        # reduces to Simpson's rule and the nodes can be accumulated first.
        self._accumulate(0, self.psi, a, h * (k_nodes[:-1] + 4.0 * k_half + k_nodes[1:]) / 6.0)

        # RK4 stage headings for the position equations.
        psi_a = self.psi[a:b]
        psi_b = psi_a + 0.5 * h * k_nodes[:-1]
        psi_c = psi_a + 0.5 * h * k_half
        psi_d = psi_a + h * k_half
        self._accumulate(1, self.x, a, h * (np.cos(psi_a) + 2.0 * np.cos(psi_b)
                                            + 2.0 * np.cos(psi_c) + np.cos(psi_d)) / 6.0)
        self._accumulate(2, self.y, a, h * (np.sin(psi_a) + 2.0 * np.sin(psi_b)
                                            + 2.0 * np.sin(psi_c) + np.sin(psi_d)) / 6.0)
        self.kappa[a:b + 1] = k_nodes
        self._last = b

    def _accumulate(self, i: int, column: np.ndarray, a: int, steps: np.ndarray) -> None:
        """Write anchor ``i`` plus the running sum ``i`` of ``steps`` from node a + 1 on.

        cumsum adds in sequence, so resuming from the carried sum gives the
        sums of one cumsum over the whole lattice.
        """
        steps[0] += self._sums[i]
        sums = np.cumsum(steps)
        self._sums[i] = sums[-1]
        column[a + 1:a + 1 + sums.size] = sums + self._anchor[i]

    def pose(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u = (s - self.s0) / self.h
        # int(u) clamped to the first and last segment.
        j = np.clip(u, 0, self.n - 1).astype(np.intp)
        self.fill(int(j.max(initial=-1)) + 1)
        u = u - j
        # Hermite basis on the segment [s_j, s_j + h].
        u2 = u * u
        u3 = u2 * u
        h00 = 2.0 * u3 - 3.0 * u2 + 1.0
        h10 = u3 - 2.0 * u2 + u
        h01 = -2.0 * u3 + 3.0 * u2
        h11 = u3 - u2
        h = self.h
        pa, pb = self.psi[j], self.psi[j + 1]
        ka, kb = self.kappa[j], self.kappa[j + 1]
        x = (h00 * self.x[j] + h10 * h * np.cos(pa)
             + h01 * self.x[j + 1] + h11 * h * np.cos(pb))
        y = (h00 * self.y[j] + h10 * h * np.sin(pa)
             + h01 * self.y[j + 1] + h11 * h * np.sin(pb))
        psi = h00 * pa + h10 * h * ka + h01 * pb + h11 * h * kb
        return x, y, psi

    def end_pose(self) -> tuple[float, float, float]:
        """The last node's pose; fills the whole grid."""
        self.fill(self.n)
        return float(self.x[-1]), float(self.y[-1]), float(self.psi[-1])


class Path:
    """Evaluable reference path: curvature profile plus pose accessors.

    What it answers never changes after construction, and it is safe to
    share across threads: the pose grid fills under a lock.
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
            self._grid = _PoseGrid(
                partial(_cosine_kappa_array, spec.kappa_max, self._omega, self._s_end),
                0.0, self._s_end, spec.x0, spec.y0, spec.psi0)
        else:
            # scipy is loaded only when a sampled road needs it.
            from scipy.interpolate import PchipInterpolator
            s = np.asarray(spec.table_s)
            pchip = PchipInterpolator(s, np.asarray(spec.table_kappa))
            # Scalar lookups read the interpolant's own breakpoints and
            # coefficients (c0 u^3 + c1 u^2 + c2 u + c3 per interval) in plain
            # Python, without the array set-up of a scalar PchipInterpolator
            # call. PPoly's sum starts from 0.0, so "+ 0.0" turns a -0.0
            # coefficient into 0.0 as well.
            self._knots = pchip.x.tolist()
            self._coefs = (pchip.c.T + 0.0).tolist()
            self._s_start, self._s_end = float(s[0]), float(s[-1])
            self._grid = _PoseGrid(pchip, self._s_start, self._s_end,
                                   spec.x0, spec.y0, spec.psi0)

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
        if not self._s_start <= s <= self._s_end:
            self.spec.check_arc_length(s)
        # The same interval and the same sum as PPoly's evaluation, so the
        # value is bit-equal to the PchipInterpolator's float(pchip(s)).
        knots = self._knots
        j = bisect_right(knots, s, 0, len(knots) - 1) - 1
        c0, c1, c2, c3 = self._coefs[j]
        u = s - knots[j]
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
            inside = self._grid.pose(s)
            # Straight continuations before the start and past the end; the
            # end pose fills the whole grid, so it is read only when needed.
            before = _line(spec.x0, spec.y0, spec.psi0, s)
            past = s > self._s_end
            after = _line(*self._grid.end_pose(), s - self._s_end) if past.any() else inside
            pose = tuple(np.where(s < 0.0, b, np.where(past, a, g))
                         for b, a, g in zip(before, after, inside))
        else:
            pose = self._grid.pose(s)
        return _floats_for_scalar(s, pose)

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
