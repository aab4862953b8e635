"""Exception hierarchy shared across the package.

The three branches map onto the CLI exit codes: ConfigError -> 1,
DataError -> 2, NumericalError -> 3.
"""


class TempbalError(Exception):
    """Base class for all package errors."""


class ConfigError(TempbalError, ValueError):
    """Bad usage: unknown flags, malformed config keys, invalid values.

    Also a ValueError, so library callers can catch out-of-range arguments
    the usual way.
    """


class DataError(TempbalError):
    """Malformed input data: snapshot files, CSV datasets."""


class NumericalError(TempbalError):
    """Numerical failure: degenerate spectra, divergence, non-convergence."""
