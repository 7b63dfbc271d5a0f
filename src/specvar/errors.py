"""Exception types shared across the package, and the integer- and
float-argument checks."""

import math


class SpecvarError(Exception):
    """Base class for all package errors."""


class DomainError(SpecvarError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ValidationError(SpecvarError, ValueError):
    """Structured input (measure JSON, CSV) failed validation.

    ``path`` points at the offending key, e.g. ``atoms[3].mass``.
    """

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class SerializationError(SpecvarError, ValueError):
    """The object cannot be serialized (e.g. opaque density evaluators)."""


class NumericError(SpecvarError, RuntimeError):
    """A numerical routine could not meet its tolerance.

    ``achieved`` carries the error estimate that was actually reached.
    """

    def __init__(self, message, achieved=None):
        self.achieved = achieved
        if achieved is not None:
            message = f"{message} (achieved tolerance {achieved:.3e})"
        super().__init__(message)


def check_int(value, what: str, minimum) -> int:
    """``value`` as an int with minimum <= value < 2**63, else DomainError
    naming ``what`` (also for NaN, +-inf and non-integral or non-numeric
    values).  The bound keeps every count, n and lag an int64.  A minimum
    of None admits every integer: a seed, which is taken mod 2**64."""
    try:
        ok = value == int(value) and (
            minimum is None or minimum <= int(value) < 2 ** 63)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bounds = "" if minimum is None else f" >= {minimum} and < 2**63"
        raise DomainError(f"{what} must be an integer{bounds}, got {value!r}")
    return int(value)


def check_float(value, what: str, minimum=None, maximum=None, *,
                above=None, below=None) -> float:
    """``value`` as a finite float, at least ``minimum``, at most
    ``maximum``, strictly above ``above`` and strictly below ``below``
    where they are given, else DomainError naming ``what`` and every end
    (also for NaN, +-inf and non-numeric values)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and (minimum is None or x >= minimum)
            and (above is None or x > above)
            and (maximum is None or x <= maximum)
            and (below is None or x < below)):
        ends = ((">=", minimum), (">", above), ("<=", maximum), ("<", below))
        bounds = " and".join(f" {op} {b}" for op, b in ends if b is not None)
        raise DomainError(f"{what} must be a finite number{bounds}, "
                          f"got {value!r}")
    return x
