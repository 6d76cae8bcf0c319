"""Exception types for the :mod:`repro` package."""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class of all errors raised by :mod:`repro`."""


class InvalidPartitionError(ReproError):
    """A set of rectangles does not form a valid partition of the matrix."""


class ParameterError(ReproError, ValueError):
    """An argument is out of its documented domain."""


def check_count(value, what: str, least: int = 1) -> int:
    """``value`` as an int of at least ``least``, or a ``ParameterError``.

    Any :class:`numbers.Integral` passes (``np.int64`` included) except
    ``bool``: ``True`` processors is a caller's bug.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_choice(value, what: str, choices: tuple[str, ...]) -> str:
    """``value`` lower-cased if it is a string naming one of ``choices``, else a
    ``ParameterError`` (a non-string ``variant`` or ``orientation`` included)."""
    if isinstance(value, str) and value.lower() in choices:
        return value.lower()
    raise ParameterError(f"{what} must be one of {'/'.join(choices)}, got {value!r}")
