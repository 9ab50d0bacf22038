"""Exception types, the kind rule for values read from JSON, and the cap
on a bad value an error message quotes, shared across the package."""

from numbers import Integral, Real


class FdlError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(FdlError, ValueError):
    """Tensor dimensions are inconsistent with the requested operation."""


class ConfigError(FdlError, ValueError):
    """A parameter value or declarative description is invalid."""


class NumericError(FdlError, ArithmeticError):
    """A computation produced non-finite values."""


_REPR_LIMIT = 60


def capped_repr(value) -> str:
    """``repr(value)``, cut to ``_REPR_LIMIT`` characters ending in ``...``
    when longer: a message quoting a bad value from a file stays one short
    line, however large the value."""
    text = repr(value)
    return text if len(text) <= _REPR_LIMIT else text[: _REPR_LIMIT - 3] + "..."


# Builtin types of each numeric kind, tested before the much slower ABC test.
_BUILTIN_KINDS = {Integral: int, Real: (int, float)}


def is_kind(value, kind) -> bool:
    """Whether ``value`` is of ``kind`` (such as ``numbers.Integral``,
    ``numbers.Real``, ``bool`` or ``str``); a ``bool`` is a flag only, never
    a number."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, _BUILTIN_KINDS.get(kind, kind)) or isinstance(value, kind)
