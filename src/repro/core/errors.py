"""Exception types for the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by :mod:`repro`."""


class InvalidPartitionError(ReproError):
    """A set of rectangles does not form a valid partition of the matrix."""


class ParameterError(ReproError, ValueError):
    """An argument is out of its documented domain."""
