"""Exception types shared across the tracking pipeline."""


class UavtrackError(ValueError):
    """Base class for all pipeline errors."""


class DimensionMismatch(UavtrackError):
    """A raster is not 2-D, is empty, or is not the size expected."""


class OutOfBounds(UavtrackError):
    """A region of interest falls outside the source raster."""


class NonDiscriminativeTemplate(UavtrackError):
    """Template has zero zero-mean energy; correlation is undefined for it."""


class UndefinedScore(UavtrackError):
    """Correlation requested where the window or template is constant."""


class WindowTooSmall(UavtrackError):
    """Search window cannot hold the template."""


class InvalidTimestep(UavtrackError):
    """Non-positive, non-finite or non-monotone timestamp passed to the filter."""


class InvalidScenario(UavtrackError):
    """Scenario description is inconsistent or unrenderable."""
