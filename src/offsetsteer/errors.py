"""Exception types shared across the package."""


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
