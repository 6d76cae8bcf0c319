"""The warm-start scope: :func:`use_sweep`.

Inside a ``use_sweep()`` block, JAG-M-OPT solves share the proven optima
and stripe facts of :mod:`repro.sweep.state`; with a
:class:`~repro.sweep.store.SweepStore` attached those facts also survive
the process.  :class:`repro.dynamic.WarmStarted` wraps a whole simulated
run in one scope — the one workload where the reuse is measured to pay
(``docs/performance.md``, "Warm starts").

The contract is the repo's established one: **bit-identity**.  Every
partition returned inside a scope equals the partition a cold call (fresh
prefix, no scope) returns — enforced by ``tests/test_sweep.py`` and, for
every registry algorithm on both substrates and kernel backends, by the
differential matrix (``tests/test_backend_equality.py``).
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Iterator

from .state import _STACK, SweepState
from .store import SweepStore

__all__ = ["use_sweep"]


@contextmanager
def use_sweep(
    store: SweepStore | str | os.PathLike | None = None,
) -> Iterator[SweepState]:
    """Open a warm-start scope: JAG-M-OPT calls inside share proven bounds.

    Results stay bit-identical to cold calls; only the work to reach them
    shrinks.  Contexts nest — the innermost state wins — and the state
    (with every strong reference it holds) is dropped when the block exits.

    ``store`` optionally attaches a disk-backed fact store
    (:class:`~repro.sweep.store.SweepStore`, or a path): persisted facts
    for instances touched inside the scope are loaded on first touch and
    the facts the scope proved beyond them are flushed back on exit (a
    scope that proved nothing new leaves the file untouched).  ``None``
    keeps the scope in memory.  A flush failure (e.g. an unwritable path) is
    reported as a :class:`RuntimeWarning`, never an exception — the
    in-memory results are already correct without the store.
    """
    if store is not None:
        if not isinstance(store, SweepStore):
            store = SweepStore(store)
        store.load()
    state = SweepState(store=store)
    _STACK.append(state)
    try:
        yield state
    finally:
        _STACK.remove(state)
        try:
            state.flush_to_store()
        except (OSError, ValueError) as exc:
            warnings.warn(f"sweep store flush failed: {exc}", RuntimeWarning)
