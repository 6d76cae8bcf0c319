"""Figure-cell fan-out behind ``repro-experiments --jobs N``.

The figure sweeps are grids of independent, seeded cells; :func:`pmap` and
:func:`pmap_batched` map a top-level cell function over them.  Outside a
:func:`cell_pool` block both are a plain list comprehension.  Inside one
they ship contiguous chunks of cells to a spawn-context process pool and
reassemble the results in item order, so every reduction over them — and
every CSV built from them — is byte-identical for any ``--jobs`` value.

Only cell specs travel to the workers, never substrates: each cell builds
its own instance and prefix.  Worker exceptions propagate to the caller,
and leaving the ``with`` block shuts the workers down on every path.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from multiprocessing import get_context
from typing import Any, Callable, Iterator, Sequence, TypeVar

from ..perf.config import perf_backend, set_perf_backend
from ..perf.counters import OpCounters, counting, merge_snapshot, op_counters

__all__ = ["cell_pool", "pmap", "pmap_batched"]

T = TypeVar("T")

#: the open pool and its width, set only inside :func:`cell_pool`
_ACTIVE: tuple[ProcessPoolExecutor, int] | None = None


@contextmanager
def cell_pool(jobs: int) -> Iterator[None]:
    """Fan :func:`pmap` / :func:`pmap_batched` out over ``jobs`` workers.

    ``jobs < 2`` keeps both maps serial.  Each worker mirrors the parent's
    kernel backend, set through the pool initializer.
    """
    global _ACTIVE
    if jobs < 2:
        yield
        return
    with ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=get_context("spawn"),
        initializer=set_perf_backend,
        initargs=(perf_backend(),),
    ) as pool:
        prev, _ACTIVE = _ACTIVE, (pool, jobs)
        try:
            yield
        finally:
            _ACTIVE = prev
            pool.shutdown(cancel_futures=True)  # drop queued cells on error


def _chunk_task(
    payload: tuple[Callable[[Any], Any], list[Any], bool],
) -> tuple[list[Any], OpCounters | None]:
    """Worker side: run ``fn`` over one chunk, under op counters if asked."""
    fn, chunk, count_ops = payload
    with (op_counters() if count_ops else nullcontext(None)) as ops:
        results = [fn(it) for it in chunk]
    return results, ops


def _map(fn: Callable[[Any], T], items: Sequence[Any], *, batched: bool) -> list[T]:
    """Ordered map over the open pool, one task per contiguous chunk.

    When the parent has op-counter contexts open, each chunk's snapshot is
    merged exactly once, so the parent sees the counts of a serial run.
    """
    items = list(items)
    if _ACTIVE is None or len(items) < 2:
        return [fn(it) for it in items]
    pool, jobs = _ACTIVE
    parts = min(2 * jobs, len(items)) if batched else len(items)
    bounds = [len(items) * k // parts for k in range(parts + 1)]
    count_ops = counting()
    payloads = [(fn, items[a:b], count_ops) for a, b in zip(bounds, bounds[1:])]
    out: list[T] = []
    for results, ops in pool.map(_chunk_task, payloads):
        out.extend(results)
        if ops:
            merge_snapshot(ops)
    return out


def pmap(fn: Callable[[Any], T], items: Sequence[Any]) -> list[T]:
    """Ordered map with one item per pool task (a few heavy cells)."""
    return _map(fn, items, batched=False)


def pmap_batched(fn: Callable[[Any], T], items: Sequence[Any]) -> list[T]:
    """Ordered map in ``2 × jobs`` chunks (many sub-millisecond cells).

    Per-item round trips swamp small cells; whole chunks amortize them, and
    two chunks per worker keep the tail balanced.
    """
    return _map(fn, items, batched=True)
