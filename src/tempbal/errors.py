"""Exception hierarchy shared across the package, and the integer rule of every size it checks."""

import numbers


class TempbalError(Exception):
    """Base class for all package errors; exit_code is the CLI's exit status for it."""

    exit_code = 1


class ConfigError(TempbalError, ValueError):
    """Bad usage: unknown flags, malformed config keys, invalid values.

    Also a ValueError, so library callers can catch out-of-range arguments
    the usual way.
    """


class DataError(TempbalError):
    """Malformed input data: snapshot files, CSV datasets."""

    exit_code = 2


class NumericalError(TempbalError):
    """Numerical failure: degenerate spectra, divergence, non-convergence."""

    exit_code = 3


def integral(value, what: str) -> int:
    """value as an int when it is a whole number (8, or 8.0 from a parsed grid); else ConfigError naming what."""
    if isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")
