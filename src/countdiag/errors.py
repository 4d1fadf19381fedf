"""Exception types shared across the package."""


class CountDiagError(Exception):
    """Base class for all errors raised by countdiag."""


class ParameterError(CountDiagError, ValueError):
    """A parameter lies outside its admissible domain."""


class DegenerateSeriesError(CountDiagError, ValueError):
    """The observed part of a series is too degenerate for the requested estimate."""


class NumericalDegeneracyError(CountDiagError, ArithmeticError):
    """A recursion or closed form hit a numerically singular configuration."""


class ConvergenceError(CountDiagError, RuntimeError):
    """An infinite-series evaluation did not converge within its lag cap."""


class CsvFormatError(CountDiagError, ValueError):
    """An input file could not be parsed as a count series."""


class FileAccessError(CountDiagError, OSError):
    """A file could not be opened for reading or writing."""
