"""Arc-length-parameterized reference paths and path-frame conversions.

A path is described by its curvature profile kappa(s) plus an anchor pose
(x0, y0, psi0) at s = 0. Heading and position follow from integrating the
curvature, so tangent angle and coordinates are always consistent with the
profile by construction. Vehicle states can be expressed either in the
earth frame (x, y, psi) or relative to the path (arc length of the closest
point, signed lateral deviation, heading error).
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, DomainError, ProjectionError

TWO_PI = 2.0 * math.pi

# Grid step for numerically reconstructed poses (cosine / sampled kinds).
POSE_GRID_STEP = 0.01  # [m]

# Closest-point Newton search limits.
PROJECTION_TOL = 1e-10  # [m]
PROJECTION_MAX_ITER = 50


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
    constructors instead of filling fields by hand.
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

    def validate(self) -> None:
        if self.kind == "straight":
            return
        if self.kind == "circular":
            if self.radius is None or not 0.0 < self.radius < math.inf:
                raise ConfigError(f"circular path needs a finite radius > 0, got {self.radius}")
            return
        if self.kind == "cosine":
            if self.period is None or not 0.0 < self.period < math.inf:
                raise ConfigError(f"cosine path needs a finite period > 0, got {self.period}")
            if self.kappa_max is None or not 0.0 <= self.kappa_max < math.inf:
                raise ConfigError(
                    f"cosine path needs a finite kappa_max >= 0, got {self.kappa_max}")
            if self.periods < 1:
                raise ConfigError(f"cosine path needs periods >= 1, got {self.periods}")
            return
        if self.kind == "sampled":
            if not self.table_s or self.table_kappa is None:
                raise ConfigError("sampled path needs a non-empty (s, kappa) table")
            if len(self.table_s) != len(self.table_kappa):
                raise ConfigError("sampled path table columns differ in length")
            if len(self.table_s) < 2:
                raise ConfigError("sampled path table needs at least two rows")
            s = np.asarray(self.table_s)
            if not np.all(np.isfinite(s)) or not np.all(np.isfinite(self.table_kappa)):
                raise ConfigError("sampled path table must hold finite numbers only")
            if not np.all(np.diff(s) > 0.0):
                raise ConfigError("sampled path table must be strictly increasing in s")
            return
        raise ConfigError(f"unknown path kind {self.kind!r}")


def load_curvature_table(csv_path) -> PathSpec:
    """Read a sampled curvature profile from a two-column CSV file.

    The header row must be exactly ``s_meters,kappa_per_meter``.
    """
    with open(csv_path, newline="") as fh:
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
    spec = PathSpec.sampled(s_vals, k_vals)
    spec.validate()
    return spec


class _PoseGrid:
    """Numerically reconstructed pose cache for kinds without closed form.

    Marches (x, y, psi) along the arc with classical fixed-step RK4 on
    x' = cos(psi), y' = sin(psi), psi' = kappa(s), caches the nodes, and
    answers queries by cubic Hermite interpolation (node derivatives are
    known exactly from the headings and curvatures).
    """

    def __init__(self, kappa_fn, s_start: float, s_end: float,
                 x0: float, y0: float, psi0: float, step: float = POSE_GRID_STEP):
        n = max(1, int(math.ceil((s_end - s_start) / step - 1e-9)))
        self.s0 = s_start
        self.h = (s_end - s_start) / n
        h = self.h
        s_nodes = s_start + h * np.arange(n + 1)
        k_nodes = kappa_fn(s_nodes)
        k_half = kappa_fn(s_nodes[:-1] + 0.5 * h)

        # psi' = kappa(s) does not depend on the state, so the RK4 increment
        # reduces to Simpson's rule and the nodes can be accumulated first.
        dpsi = h * (k_nodes[:-1] + 4.0 * k_half + k_nodes[1:]) / 6.0
        psi = np.empty(n + 1)
        psi[0] = psi0
        np.cumsum(dpsi, out=psi[1:])
        psi[1:] += psi0

        # RK4 stage headings for the position equations.
        psi_a = psi[:-1]
        psi_b = psi_a + 0.5 * h * k_nodes[:-1]
        psi_c = psi_a + 0.5 * h * k_half
        psi_d = psi_a + h * k_half
        dx = h * (np.cos(psi_a) + 2.0 * np.cos(psi_b) + 2.0 * np.cos(psi_c) + np.cos(psi_d)) / 6.0
        dy = h * (np.sin(psi_a) + 2.0 * np.sin(psi_b) + 2.0 * np.sin(psi_c) + np.sin(psi_d)) / 6.0
        x = np.empty(n + 1)
        y = np.empty(n + 1)
        x[0] = x0
        y[0] = y0
        np.cumsum(dx, out=x[1:])
        np.cumsum(dy, out=y[1:])
        x[1:] += x0
        y[1:] += y0

        self.n = n
        self.x = x
        self.y = y
        self.psi = psi
        self.kappa = np.asarray(k_nodes, dtype=float)

    def pose(self, s: float) -> tuple[float, float, float]:
        u = (s - self.s0) / self.h
        j = int(u)
        if j < 0:
            j = 0
        elif j >= self.n:
            j = self.n - 1
        u -= j
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
        x = (h00 * self.x[j] + h10 * h * math.cos(pa)
             + h01 * self.x[j + 1] + h11 * h * math.cos(pb))
        y = (h00 * self.y[j] + h10 * h * math.sin(pa)
             + h01 * self.y[j + 1] + h11 * h * math.sin(pb))
        psi = h00 * pa + h10 * h * ka + h01 * pb + h11 * h * kb
        return x, y, psi

    def end_pose(self) -> tuple[float, float, float]:
        return float(self.x[-1]), float(self.y[-1]), float(self.psi[-1])


class Path:
    """Evaluable reference path: curvature profile plus pose accessors.

    Immutable after construction and safe to share across threads.
    """

    def __init__(self, spec: PathSpec):
        spec.validate()
        self.spec = spec
        self._grid = None
        self._pchip = None
        if spec.kind == "cosine":
            self._omega = TWO_PI / spec.period
            self._s_end = spec.periods * spec.period
            self._grid = _PoseGrid(self._cosine_kappa_array, 0.0, self._s_end,
                                   spec.x0, spec.y0, spec.psi0)
        elif spec.kind == "sampled":
            s = np.asarray(spec.table_s)
            k = np.asarray(spec.table_kappa)
            self._pchip = PchipInterpolator(s, k)
            # Scalar lookups read the interpolant's own breakpoints and
            # coefficients (c0 u^3 + c1 u^2 + c2 u + c3 per interval) in plain
            # Python, without the array set-up of a scalar PchipInterpolator
            # call. PPoly's sum starts from 0.0, so "+ 0.0" turns a -0.0
            # coefficient into 0.0 as well.
            self._knots = self._pchip.x.tolist()
            self._coefs = (self._pchip.c.T + 0.0).tolist()
            self._s_start = float(s[0])
            self._s_end = float(s[-1])
            self._grid = _PoseGrid(self._pchip, self._s_start, self._s_end,
                                   spec.x0, spec.y0, spec.psi0)

    def _check_sampled_range(self, s: float) -> None:
        """A sampled path is defined only over its table's arc lengths."""
        if s < self._s_start or s > self._s_end:
            raise DomainError(
                f"s={s:.6g} outside sampled table range [{self._s_start:.6g}, {self._s_end:.6g}]")

    # -- curvature -----------------------------------------------------

    def _cosine_kappa_array(self, s):
        s = np.asarray(s, dtype=float)
        inside = (s >= 0.0) & (s <= self._s_end)
        return np.where(inside, 0.5 * self.spec.kappa_max * (1.0 - np.cos(self._omega * s)), 0.0)

    def curvature(self, s: float) -> float:
        """Curvature kappa [1/m] at arc length s."""
        kind = self.spec.kind
        if kind == "straight":
            return 0.0
        if kind == "circular":
            return 1.0 / self.spec.radius
        if kind == "cosine":
            if s < 0.0 or s > self._s_end:
                # Constant continuation with the boundary value (zero for
                # whole periods), so simulations may run past the profile.
                return 0.0
            return 0.5 * self.spec.kappa_max * (1.0 - math.cos(self._omega * s))
        self._check_sampled_range(s)
        # The same interval and the same sum as PPoly's evaluation, so the
        # value is bit-equal to float(self._pchip(s)).
        knots = self._knots
        j = min(bisect_right(knots, s) - 1, len(knots) - 2)
        c0, c1, c2, c3 = self._coefs[j]
        u = s - knots[j]
        u2 = u * u
        return c3 + c2 * u + c1 * u2 + c0 * (u2 * u)

    # -- pose ----------------------------------------------------------

    def pose(self, s: float) -> tuple[float, float, float]:
        """Path point and tangent heading (x_d, y_d, psi_d) at arc length s."""
        spec = self.spec
        if spec.kind == "straight":
            return (spec.x0 + s * math.cos(spec.psi0),
                    spec.y0 + s * math.sin(spec.psi0),
                    spec.psi0)
        if spec.kind == "circular":
            rho = spec.radius
            psi = spec.psi0 + s / rho
            return (spec.x0 + rho * (math.sin(psi) - math.sin(spec.psi0)),
                    spec.y0 - rho * (math.cos(psi) - math.cos(spec.psi0)),
                    psi)
        if spec.kind == "cosine":
            if s < 0.0:
                return (spec.x0 + s * math.cos(spec.psi0),
                        spec.y0 + s * math.sin(spec.psi0),
                        spec.psi0)
            if s > self._s_end:
                xe, ye, pe = self._grid.end_pose()
                ds = s - self._s_end
                return (xe + ds * math.cos(pe), ye + ds * math.sin(pe), pe)
            return self._grid.pose(s)
        self._check_sampled_range(s)
        return self._grid.pose(s)

    # -- frame conversions ----------------------------------------------

    def to_earth(self, ps: PathState) -> EarthState:
        """Map a path-frame state to the earth frame."""
        xd, yd, psid = self.pose(ps.s)
        return EarthState(xd - ps.e * math.sin(psid),
                          yd + ps.e * math.cos(psid),
                          psid + ps.theta)

    def project(self, es: EarthState, s_hint: float) -> PathState:
        """Recover the path-frame state of an earth-frame pose.

        Newton iteration on the orthogonality condition
        f(s) = (A - D(s)) . t(s) = 0, seeded at ``s_hint``. Valid inside the
        tube where the closest point is unique (|e * kappa| < 1).

        Raises:
            ProjectionError: search did not converge.
            DomainError: projection ambiguous (|e * kappa| >= 1).
        """
        s = s_hint
        for _ in range(PROJECTION_MAX_ITER):
            xd, yd, psid = self.pose(s)
            tx, ty = math.cos(psid), math.sin(psid)
            rx, ry = es.x - xd, es.y - yd
            f = rx * tx + ry * ty
            e = -rx * ty + ry * tx
            kappa = self.curvature(s)
            denom = 1.0 - e * kappa
            if denom == 0.0:
                raise ProjectionError(f"projection stalled at s={s:.6g}: 1 - e*kappa = 0")
            step = f / denom  # f'(s) = -(1 - e*kappa)
            s += step
            if abs(step) < PROJECTION_TOL:
                xd, yd, psid = self.pose(s)
                e = -(es.x - xd) * math.sin(psid) + (es.y - yd) * math.cos(psid)
                kappa = self.curvature(s)
                if abs(e * kappa) >= 1.0:
                    raise DomainError(
                        f"ambiguous projection at s={s:.6g}: |e*kappa| = {abs(e * kappa):.3g} >= 1")
                return PathState(s, e, wrap_angle_error(es.psi, psid))
        raise ProjectionError(
            f"closest-point search did not converge within {PROJECTION_MAX_ITER} iterations "
            f"(seed s_hint={s_hint:.6g})")


def build_path(spec: PathSpec) -> Path:
    """Construct an evaluable path, validating the specification."""
    return Path(spec)
