"""Error taxonomy shared across the package.

Library callers can catch the base classes (ValueError / RuntimeError /
ArithmeticError) without importing this module.
"""


class ParameterError(ValueError):
    """An argument violates an operation's precondition: a level that is not
    an integer in range, a weight that is not a finite number in range, an
    argument of the wrong class."""


class DegenerateTrackError(RuntimeError):
    """A mask was required but no usable track is available.  Nothing raises
    it until the edit runs as one library call."""


class NumericError(ArithmeticError):
    """Non-finite values appeared where finite tensors are required."""


class FormatError(ValueError):
    """A tensor or embedding file does not match its declared format."""


class ConfigError(ValueError):
    """A run configuration is malformed, or holds a value that the library
    call consuming it would reject."""
