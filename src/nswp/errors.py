"""Exception types shared across the package."""

import numpy as np


class NswpError(Exception):
    """Base class for all package errors."""


class DegenerateFieldError(NswpError):
    """A wave field is too close to zero to normalize or analyze."""


class RangeError(NswpError):
    """An argument lies outside the supported evaluation range."""


def first_outside(values, ok):
    """The first element of ``values``, a number or an array, at which the
    mask ``ok`` is False: the one value a RangeError names."""
    return np.asarray(values).flat[np.argmin(ok)]


class AccuracyError(NswpError):
    """A numerical routine failed to reach the requested tolerance.

    Carries the best available estimate in ``best_estimate``.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class ConfigurationError(NswpError):
    """Invalid run configuration (bad step size, malformed config file, ...)."""


class ConvergenceError(NswpError):
    """An iterative solver did not converge."""


class BoundaryError(NswpError):
    """The propagated field hit the domain boundary.

    ``partial_report`` holds whatever metrics were collected before the hit.
    """

    def __init__(self, message, partial_report=None):
        super().__init__(message)
        self.partial_report = partial_report
