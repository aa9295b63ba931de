"""Error taxonomy shared across the package.

Library callers can catch the base classes (ValueError / ArithmeticError)
without importing this module.
"""


class ParameterError(ValueError):
    """An argument violates an operation's precondition: a level that is not
    an integer in range, a weight that is not a finite number in range, an
    argument of the wrong class."""


class NumericError(ArithmeticError):
    """Non-finite values appeared where finite tensors are required."""


class FormatError(ValueError):
    """An LTS file does not match its declared format."""


class ConfigError(ValueError):
    """A run configuration is malformed, or holds a value that the library
    call consuming it would reject."""
