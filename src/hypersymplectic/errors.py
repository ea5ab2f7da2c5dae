"""Shared exception and warning types."""


class GeometryError(Exception):
    """A geometric precondition failed (rank loss, degenerate data, ...)."""


class ChartMismatchError(ValueError):
    """Objects living on different charts were combined in one operation."""


class DegenerateFormError(GeometryError):
    """A 2-form that must be invertible has a numerically singular matrix."""


class DegenerateMetricError(GeometryError):
    """A metric eigenvalue falls inside the zero guard band."""


class DegenerateOrbitError(GeometryError):
    """An orbit computation was requested at non-positive energy."""


class NotAlmostComplexError(GeometryError):
    """An endomorphism required to square to minus the identity does not."""


class ConfigError(ValueError):
    """A scenario configuration document is malformed."""

