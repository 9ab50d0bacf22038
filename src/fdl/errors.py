"""Exception types, and the kind rule for values read from JSON, shared
across the package."""

from numbers import Integral, Real


class FdlError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(FdlError, ValueError):
    """Tensor dimensions are inconsistent with the requested operation."""


class ConfigError(FdlError, ValueError):
    """A parameter value or declarative description is invalid."""


class NumericError(FdlError, ArithmeticError):
    """A computation produced non-finite values."""


# Builtin types of each numeric kind, tested before the much slower ABC test.
_BUILTIN_KINDS = {Integral: int, Real: (int, float)}


def is_kind(value, kind) -> bool:
    """Whether ``value`` is of ``kind`` (such as ``numbers.Integral``,
    ``numbers.Real``, ``bool`` or ``str``); a ``bool`` is a flag only, never
    a number."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, _BUILTIN_KINDS.get(kind, kind)) or isinstance(value, kind)
