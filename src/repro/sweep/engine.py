"""The sweep engine: run many ``(algorithm, m)`` cells over one matrix.

``sweep(A, algorithms, m_values)`` is the public entry point the experiment
suite routes its per-figure m-loops through.  It opens a
:class:`~repro.sweep.state.SweepState` context, builds the prefix once, and
evaluates every cell with warm starts flowing between calls:

* exact solvers consume and produce monotone bottleneck bounds
  (:mod:`repro.sweep.state`), and share the JAG-M-OPT stripe memo;
* heuristics deposit their achieved max loads as feasible witnesses;
* the single shared :class:`~repro.core.prefix.PrefixSum2D` keeps its
  projection cache and cached transpose hot across every cell.

The contract is the repo's established one: **bit-identity**.  For every
algorithm and every sweep order, the partition returned for a cell equals
the partition a cold call (fresh prefix, no sweep context) returns —
enforced by ``tests/test_sweep.py`` and, for every registry algorithm on
both substrates and kernel backends, by the differential matrix
(``tests/test_backend_equality.py``).  Internally the engine may
therefore execute cells in any order it likes; it visits ``m`` values in
descending order, which maximizes lower-bound transfer (an optimum at a
large ``m`` proves infeasibility just below it for every smaller ``m``)
without affecting any result.

Composition with ``repro-experiments --jobs``: the sweep context lives in
the parent process only.  The figure-cell workers of
:mod:`repro.experiments.pool` receive the default store path through their
pool initializer but never see the parent's open scopes, and every cell is
bit-identical with or without warm facts, so ``use_sweep`` composes with
``--jobs`` unchanged.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..core.partition import Partition
from ..core.prefix import MatrixLike, PrefixSum2D, prefix_2d
from .state import _STACK, SweepState
from .store import SweepStore

__all__ = ["SweepResult", "set_default_store", "sweep", "use_sweep"]

#: module-level default store path (set by ``--sweep-store``); the
#: ``REPRO_SWEEP_STORE`` env var is the fallback, read at scope entry
_DEFAULT_STORE: str | None = None


def set_default_store(path: str | None) -> str | None:
    """Set the process-wide default store path (None restores the env var).

    Returns the previous default so callers can restore it.
    """
    global _DEFAULT_STORE
    prev, _DEFAULT_STORE = _DEFAULT_STORE, path
    return prev


def _resolve_store(store: SweepStore | str | os.PathLike | None) -> SweepStore | None:
    if store is None:
        path = _DEFAULT_STORE or os.environ.get("REPRO_SWEEP_STORE") or None
        return SweepStore(path) if path else None
    if isinstance(store, SweepStore):
        return store
    return SweepStore(store)


@contextmanager
def use_sweep(
    store: SweepStore | str | os.PathLike | None = None,
) -> Iterator[SweepState]:
    """Open a warm-start scope: calls inside share proven bounds.

    Results stay bit-identical to cold calls; only the work to reach them
    shrinks.  Contexts nest — the innermost state wins — and the state
    (with every strong reference it holds) is dropped when the block exits.

    ``store`` optionally attaches a disk-backed fact store
    (:class:`~repro.sweep.store.SweepStore`, or a path): persisted facts
    for instances touched inside the scope are loaded on first touch and
    the scope's proven facts are flushed back on exit.  With no explicit
    argument, :func:`set_default_store` and then the ``REPRO_SWEEP_STORE``
    env var are consulted.  A flush failure (e.g. an unwritable path) is
    reported as a :class:`RuntimeWarning`, never an exception — the
    in-memory results are already correct without the store.
    """
    resolved = _resolve_store(store)
    if resolved is not None:
        resolved.load()
    state = SweepState(store=resolved)
    _STACK.append(state)
    try:
        yield state
    finally:
        _STACK.remove(state)
        try:
            state.flush_to_store()
        except (OSError, ValueError) as exc:
            warnings.warn(f"sweep store flush failed: {exc}", RuntimeWarning)


@dataclass
class SweepResult:
    """Results of one :func:`sweep` call.

    ``parts[(name, m)]`` is the partition of algorithm ``name`` at ``m``;
    ``pref`` is the shared prefix every cell ran against.
    """

    pref: PrefixSum2D
    algorithms: tuple[str, ...]
    m_values: tuple[int, ...]
    parts: dict[tuple[str, int], Partition] = field(default_factory=dict)

    def __getitem__(self, key: tuple[str, int]) -> Partition:
        name, m = key
        return self.parts[(name.upper(), int(m))]

    def bottlenecks(self) -> dict[tuple[str, int], int]:
        """Max load of every cell, against the shared prefix."""
        return {k: p.max_load(self.pref) for k, p in self.parts.items()}

    def __iter__(self) -> Iterator[tuple[tuple[str, int], Partition]]:
        return iter(self.parts.items())

    def __len__(self) -> int:
        return len(self.parts)


def sweep(
    A: MatrixLike,
    algorithms: Sequence[str] | str,
    m_values: Sequence[int],
    *,
    store: SweepStore | str | os.PathLike | None = None,
    **kw: object,
) -> SweepResult:
    """Partition ``A`` with every algorithm at every ``m``, warm-started.

    Parameters
    ----------
    A:
        Load matrix or prebuilt :class:`~repro.core.prefix.PrefixSum2D`.
    algorithms:
        Registry names (see :data:`repro.core.registry.ALGORITHMS`), in the
        order warm facts should flow — heuristics before exact solvers lets
        the solvers start from the heuristic witnesses, mirroring Figure 7.
    m_values:
        Processor counts to sweep.
    store:
        Optional disk-backed fact store (or a path) — see
        :func:`use_sweep`.
    **kw:
        Forwarded to every algorithm call (e.g. ``num_stripes``).  Facts
        recorded by kwargs-sensitive producers are scoped by those kwargs
        (:func:`repro.sweep.state.canonical_scope`), so cells run with
        different kwargs never share a ``(class, m)`` bound unsoundly.

    Returns
    -------
    SweepResult
        Every cell's partition, bit-identical to per-``m`` cold calls.
    """
    from ..core.registry import partition_2d

    if isinstance(algorithms, str):
        algorithms = (algorithms,)
    names = tuple(a.upper() for a in algorithms)
    ms = tuple(int(m) for m in m_values)
    pref = prefix_2d(A)
    result = SweepResult(pref=pref, algorithms=names, m_values=ms)
    with use_sweep(store=store):
        for name in names:
            # descending m: large-m optima prove lower bounds for every
            # smaller m (see module docstring); results are order-invariant
            for m in sorted(set(ms), reverse=True):
                result.parts[(name, m)] = partition_2d(pref, m, name, **kw)
    return result
