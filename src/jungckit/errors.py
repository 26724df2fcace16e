"""Exception types shared across the toolkit."""


class JungckitError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(JungckitError, ValueError):
    """An argument is outside the values a constructor or function accepts."""


class DimensionMismatchError(JungckitError):
    """Operands live in different dimensions."""


class SingularOperatorError(JungckitError):
    """The solved-against map has minimum modulus at or below tolerance."""


class IndexOutOfRangeError(JungckitError, IndexError):
    """Query past the end of an explicit list or a recorded trace."""


class SequenceTooShortError(JungckitError):
    """Not enough terms for the requested window or estimate."""


class SolveError(JungckitError):
    """The per-step solve against s produced non-finite values."""


class NonFiniteError(JungckitError):
    """A computed quantity overflowed or is NaN."""


class TraceMismatchError(JungckitError):
    """Trace does not belong to the configuration under scrutiny."""


class ScheduleViolationError(JungckitError):
    """An evaluated schedule value breaks the recursion's admissibility rules."""


class HypothesisViolatedError(JungckitError):
    """A verifier was invoked on a configuration outside its preconditions."""


class NotConvergingError(JungckitError):
    """Sequence shows monotonically growing differences; no limit estimate."""


class LengthMismatchError(JungckitError):
    """Paired sequences have incompatible lengths."""


class ConfigError(JungckitError):
    """Problem with an experiment configuration document."""


class ConfigParseError(ConfigError):
    """Config text is not well-formed."""


class ConfigValidationError(ConfigError):
    """Config parsed but violates an invariant (bad value, unknown key)."""
