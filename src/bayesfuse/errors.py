"""Exception types shared across the package."""


class BayesfuseError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteError(BayesfuseError):
    """An input mass, density, or parameter is NaN or infinite."""


class AllZeroMassError(BayesfuseError):
    """Every mass in the input is zero, so no distribution exists."""


class InsufficientCoverageError(BayesfuseError, ValueError):
    """The requested grid misses too much of the distribution's probability mass."""


class BadResolutionError(BayesfuseError):
    """The output cell width does not evenly divide the smoothing window."""


class RepresentationMismatchError(BayesfuseError):
    """Operands mix discrete and gridded distributions, or use different grids."""


class IncompatibleError(BayesfuseError):
    """The prior and likelihood have zero (or infinite) overlap mass."""


class DegenerateProductError(BayesfuseError):
    """The weighted product of prior and likelihood has zero or infinite mass."""


class InvalidEventError(BayesfuseError):
    """An event is empty or refers to atoms/cells outside the distribution."""


class TooLargeError(BayesfuseError):
    """The requested enumeration exceeds the configured budget."""


class UnsupportedMassError(BayesfuseError):
    """A candidate posterior puts mass where the prior-likelihood product is zero."""


class FileFormatError(BayesfuseError):
    """A distribution file cannot be read or does not follow the documented format."""


class InvalidArgumentError(BayesfuseError, ValueError):
    """A function argument or a command-line flag is out of its range."""


class CrossCheckError(BayesfuseError):
    """A brute-force search disagrees with the exhaustive event oracle."""


class MissingDependencyError(BayesfuseError, ImportError):
    """An optional dependency, such as numpy for the brute-force oracles, is not installed."""
