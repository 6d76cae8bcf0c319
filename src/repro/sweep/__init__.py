"""Warm starts for repeated JAG-M-OPT solves (``repro.sweep``).

Public surface:

* :func:`~repro.sweep.engine.use_sweep` — the scoped context that
  :class:`repro.dynamic.WarmStarted` runs a simulation inside; takes an
  optional disk-backed store;
* :class:`~repro.sweep.store.SweepStore` — content-addressed persistence
  of JAG-M-OPT optima and stripe facts across processes;
* :class:`~repro.sweep.state.SweepState` / ``SweepInvariantError`` — the
  validated per-scope table of optima, indexed by ``m``.

The engine imports the store, which imports the substrates, and the
substrates and algorithm modules import :mod:`repro.sweep.state`; the
engine and store symbols are therefore exported lazily (PEP 562) so
importing an algorithm module never cycles through them.
"""

from __future__ import annotations

from .state import SweepInvariantError, SweepState, current, sweep_active

__all__ = [
    "SweepInvariantError",
    "SweepState",
    "SweepStore",
    "current",
    "instance_digest",
    "sweep_active",
    "use_sweep",
]

_STORE_EXPORTS = {"SweepStore", "instance_digest"}


def __getattr__(name: str):  # PEP 562: lazy engine import (cycle avoidance)
    if name == "use_sweep":
        from .engine import use_sweep

        return use_sweep
    if name in _STORE_EXPORTS:
        from . import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
