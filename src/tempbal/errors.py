"""Exception hierarchy shared across the package."""


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
