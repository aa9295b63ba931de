"""Error taxonomy shared across the package.

Library callers can catch the base classes (ValueError / RuntimeError /
ArithmeticError) without importing this module.
"""


class ParameterError(ValueError):
    """An argument violates an operation's precondition."""


class SingularScheduleError(ParameterError):
    """A noise schedule value makes the requested operation singular."""


class DomainError(ParameterError):
    """A query lies outside the domain an object is defined on."""


class DegenerateTrackError(RuntimeError):
    """A mask was required but no usable track is available."""


class NumericError(ArithmeticError):
    """Non-finite values appeared where finite tensors are required."""


class FormatError(ValueError):
    """A tensor or embedding file does not match its declared format."""


class ConfigError(ValueError):
    """A run configuration failed validation."""
