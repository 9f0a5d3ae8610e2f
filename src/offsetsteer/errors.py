"""Exception types shared across the package, and each config value's range."""

from typing import NamedTuple

import numpy as np


class OffsetSteerError(Exception):
    """Base class for all package errors."""


class ConfigError(OffsetSteerError):
    """Invalid configuration, path specification, or input file."""


class DomainError(OffsetSteerError):
    """Inputs outside the mathematical domain of an operation.

    Raised e.g. for |sensor_offset * curvature| >= 1 (path untrackable
    for the mounted sensor), steering at or beyond +/- pi/2, or arc
    length outside a sampled table.
    """


class SingularityError(OffsetSteerError):
    """State reached or crossed the curvature-center circle (1 - e*kappa <= 0)."""


class Range(NamedTuple):
    """A config value's closed range [lo, hi] in SI units."""

    lo: float
    hi: float
    unit: str = ""

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]{' ' if self.unit else ''}{self.unit}"


_LENGTH = Range(1e-6, 1e6, "m")
_SIGNED = Range(-1e6, 1e6)
# Arc lengths are bounded by the pose grid a far start fills (README, "Config ranges").
_ARC = Range(-1e5, 1e5, "m")

# Every numeric config value's range, by the name its refusal gives.
RANGES = {
    "wheelbase": _LENGTH,
    "sensor_offset": _SIGNED._replace(unit="m"),
    "max_steer": Range(1e-6, 1.57, "rad"),
    "speed": Range(1e-6, 1e6, "m/s"),
    "k1": _SIGNED,
    "k2": _SIGNED._replace(unit="1/m"),
    "max_lat_accel": Range(1e-6, 1e6, "m/s^2"),
    "radius": _LENGTH,
    "kappa_max": Range(0.0, 1e6, "1/m"),
    "period": _LENGTH._replace(hi=1e5),
    "periods": Range(1, 1e6),
    "table s": _ARC,
    # Knots at least 1e-6 m apart keep every PCHIP slope finite.
    "table s step": Range(1e-6, 2e5, "m"),
    "table kappa": _SIGNED._replace(unit="1/m"),
    "x0": _SIGNED._replace(unit="m"),
    "y0": _SIGNED._replace(unit="m"),
    "psi0": _SIGNED._replace(unit="rad"),
    "initial s": _ARC,
    "initial e": _SIGNED._replace(unit="m"),
    "initial theta": _SIGNED._replace(unit="rad"),
    "dt": Range(1e-6, 1e6, "s"),
    "t_end": Range(1e-6, 1e6, "s"),
    "control_dt": Range(1e-6, 1e6, "s"),
    "settle_threshold": _LENGTH,
    # A run's record holds steps + 1 rows of at most 16 float64 values.
    "t_end / dt": Range(1, 1e7),
    "kappa0": _SIGNED._replace(unit="1/m"),
    "omega": Range(1e-6, 1e6, "rad/s"),
    # A map holds resolution^2 cells per kappa0; a response, points values.
    "resolution": Range(1, 1000),
    "points": Range(1, 1e5),
}


def check_range(key: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` lies in ``RANGES[key]``; NaN never
    does. Every element of an array must: the first that does not is reported."""
    r = RANGES[key]
    if isinstance(value, np.ndarray):
        value = np.ravel(value)
        outside = value[~((r.lo <= value) & (value <= r.hi))]
        if outside.size:
            check_range(key, outside[0])
        return
    try:
        inside = r.lo <= value <= r.hi
    except TypeError:  # not a number
        inside = False
    if not inside:
        shown = value.item() if isinstance(value, np.generic) else value
        raise ConfigError(f"{key} must lie in {r}, got {shown!r}")
