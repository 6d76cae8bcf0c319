"""Backend selection for the optimized kernel layer.

Every hot inner loop of the partitioners is a named kernel in the registry
(:mod:`repro.perf.kernels`), and every kernel has two implementations:
``numpy`` (the default — the vectorized paths every solver runs) and
``reference`` (the scalar ground truth the equality suites pin ``numpy``
against bit for bit).  ``REPRO_PERF_BACKEND`` selects which one the
registry resolves; :func:`use_perf_backend` scopes the choice in tests and
benchmarks.  ``REPRO_PERF_BACKEND=reference`` is also the switch to reach
for when bisecting a suspected kernel bug.

A malformed value is rejected with a ``ValueError`` naming the variable:
a typo must never quietly select a different backend.  The projection
memo's size constants live with the memo, in :mod:`repro.core.prefix`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..config import env_str

__all__ = [
    "perf_backend",
    "set_perf_backend",
    "use_perf_backend",
]

#: backends the kernel registry can resolve (see repro.perf.kernels)
_VALID_BACKENDS = ("reference", "numpy")


def _parse_backend() -> str:
    """``REPRO_PERF_BACKEND`` (case-insensitive; unset or empty means numpy)."""
    val = env_str("REPRO_PERF_BACKEND").strip().lower() or "numpy"
    if val not in _VALID_BACKENDS:
        raise ValueError(
            f"REPRO_PERF_BACKEND={val!r} is not a kernel backend; "
            f"expected one of {_VALID_BACKENDS}"
        )
    return val


_BACKEND: str = _parse_backend()


def perf_backend() -> str:
    """The kernel backend the registry resolves (``REPRO_PERF_BACKEND``)."""
    return _BACKEND


def set_perf_backend(name: str) -> str:
    """Set the kernel backend; returns the previous one.

    Raises ``ValueError`` on unknown names.
    """
    global _BACKEND
    if name not in _VALID_BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; expected one of {_VALID_BACKENDS}")
    prev = _BACKEND
    _BACKEND = name
    return prev


@contextmanager
def use_perf_backend(name: str) -> Iterator[None]:
    """Context manager scoping the kernel backend (tests and the bench harness)."""
    prev = set_perf_backend(name)
    try:
        yield
    finally:
        set_perf_backend(prev)
