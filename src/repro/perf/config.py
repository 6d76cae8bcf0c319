"""Backend selection and sizing knobs for the optimized kernel layer.

Every hot inner loop of the partitioners is a named kernel in the registry
(:mod:`repro.perf.kernels`), and every kernel has two implementations:
``numpy`` (the default — the vectorized paths every solver runs) and
``reference`` (the scalar ground truth the equality suites pin ``numpy``
against bit for bit).  ``REPRO_PERF_BACKEND`` selects which one the
registry resolves; :func:`use_perf_backend` scopes the choice in tests and
benchmarks.  ``REPRO_PERF_BACKEND=reference`` is also the switch to reach
for when bisecting a suspected kernel bug.

Whether the projection memo is used is a separate, per-substrate decision:
the ``reuse=`` argument of the projection queries, defaulting to
:func:`cache_min_cells`.

Malformed values are rejected with a ``ValueError`` naming the variable:
a typo must never quietly select a different backend or budget.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..config import ENV_VARS, env_str

__all__ = [
    "perf_backend",
    "set_perf_backend",
    "use_perf_backend",
    "cache_budget_bytes",
    "cache_min_cells",
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


def _env_int(name: str) -> int:
    """Integer value of declared env var ``name`` (unset or empty: its default)."""
    raw = env_str(name).strip() or ENV_VARS[name].default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None


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


def cache_budget_bytes() -> int:
    """Per-prefix projection-cache budget in bytes (``REPRO_PERF_CACHE_MB``).

    The 64 MiB default keeps every (stripe start, stripe end) band of the
    JAG-M-OPT feasibility DP on the small-profile instances resident across
    all bisection iterations.
    """
    return max(1, _env_int("REPRO_PERF_CACHE_MB")) * 1024 * 1024


def cache_min_cells() -> int:
    """Memoization size threshold in cells (``REPRO_PERF_CACHE_MIN_CELLS``).

    Below the 65536-cell default the straight-line subtraction is cheaper
    than the cache key/lookup bookkeeping (measured — see
    docs/performance.md), and the exact solvers that *do* win from reuse at
    any size request it explicitly per call.  Callers that pass an explicit
    ``reuse=`` to the projection queries are unaffected; this only sets the
    default for call sites that leave the decision to the instance size.
    ``0`` restores the pre-threshold behavior (memoize always).
    """
    return max(0, _env_int("REPRO_PERF_CACHE_MIN_CELLS"))
