"""Exception types shared across the package, and the numeric domain checks.

``finite``, ``positive``, ``nonnegative`` and ``integer`` are the one rule
for a finite number, a finite positive number, a finite nonnegative number
and an integer with a lower bound; every module checks its numeric
parameters with them, so a value outside its domain raises ParameterError
with the same wording everywhere.
"""

from __future__ import annotations

import math


class ParameterError(ValueError):
    """A parameter lies outside its admissible domain."""


class UnsupportedFlowError(ValueError):
    """The requested operation does not apply to this flow."""


class CommensurabilityError(ValueError):
    """A sampling interval is not an integer multiple of the stored step."""


class InsufficientDataError(ValueError):
    """Too few observations to form the requested estimate."""


class IntegrationBlowupError(FloatingPointError):
    """Non-finite state encountered during time integration."""

    def __init__(self, step: int, message: str | None = None):
        self.step = int(step)
        super().__init__(message or f"non-finite state encountered at step {self.step}")


class ConvergenceError(RuntimeError):
    """A linear solve or adaptive refinement failed to reach its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)


class ConfigError(ValueError):
    """A configuration file or command line argument set is invalid."""


def _number(value) -> float:
    """float(value), or nan when value is not a number; None and strings are not."""
    if isinstance(value, str):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def finite(name: str, value) -> float:
    """value as a float if it is a finite number, else ParameterError naming it."""
    number = _number(value)
    if not math.isfinite(number):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return number


def positive(name: str, value) -> float:
    """value as a float if it is a finite number > 0, else ParameterError naming it."""
    number = _number(value)
    if not 0.0 < number < math.inf:
        raise ParameterError(f"{name} must be finite and positive, got {value!r}")
    return number


def nonnegative(name: str, value) -> float:
    """value as a float if it is a finite number >= 0, else ParameterError naming it."""
    number = _number(value)
    if not 0.0 <= number < math.inf:
        raise ParameterError(f"{name} must be finite and nonnegative, got {value!r}")
    return number


def integer(name: str, value, minimum: int) -> int:
    """value as an int if it is an integer >= minimum, else ParameterError naming it.

    A float is taken only when it is integral, so nan, inf and 4.5 are refused.
    """
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):  # None, a string, nan, inf
        integral = False
    if not integral or value < minimum:
        bound = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ParameterError(f"{name} must be {bound}, got {value!r}")
    return int(value)
