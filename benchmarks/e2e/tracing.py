"""Outside-in span tracer for the end-to-end benchmark.

The traced run measures each layer from outside the program: :func:`install`
swaps wrappers into a fixed set of entry points (the algorithm and kernel
registries, the two substrate constructors, the raw-store and sweep-store
I/O methods, the simulator's metric helpers and the figure module's pool
maps) and :func:`install` hands back the function that puts every original
back.  Nothing inside ``src/`` knows it is being traced.

A span records its name, start, end and parent.  Self time is the span's
duration minus the time its direct children cover; inclusive time is only
added for the outermost span of a name, so recursive calls are not counted
twice.  Spans opened outside any benchmark op (the sweep-store load and flush
at a simulator run's scope entry and exit) are kept with parent ``-1``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

#: root span of one benchmark op; its self time is the op's unattributed time
ROOT = "op"

#: spans kept verbatim for the trace file (aggregates are always exact)
SPAN_CAP = 200_000


class Tracer:
    """Span stack plus per-pass aggregates (calls, self and inclusive time)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._record = False
        self._ops_cm: Any = None
        self._ops: Any = None
        self.start_pass(record=False)

    # -- per-pass aggregates -------------------------------------------------
    def start_pass(self, *, record: bool) -> None:
        """Reset the aggregates; ``record`` keeps spans and op counters."""
        self._record = record
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_walls: dict[str, float] = defaultdict(float)

    def end_pass(self) -> dict[str, Any]:
        """This pass's aggregates as plain dicts."""
        return {
            "recorded": self._record,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "op_walls": dict(self.op_walls),
        }

    def count(self, name: str, n: int) -> None:
        if self._record:
            self.counts[name] += int(n)

    # -- spans -----------------------------------------------------------------
    def begin(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def end(self) -> float:
        name, t0, child, sid, parent = self._stack.pop()
        t1 = perf_counter()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if all(entry[0] != name for entry in self._stack):
            self.incl_s[name] += dur
        if self._record:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, name, t0, t1, parent))
            else:
                self.dropped += 1
        return dur

    def begin_op(self) -> None:
        """Open the root span of one op (and its op-counter context)."""
        if self._record:
            from repro.perf.counters import op_counters

            self._ops_cm = op_counters()
            self._ops = self._ops_cm.__enter__()
        self.begin(ROOT)

    def end_op(self, label: str) -> None:
        self.op_walls[label] += self.end()
        if self._ops_cm is not None:
            self._ops_cm.__exit__(None, None, None)
            for key, val in self._ops.items():
                self.counts[key] += val
            self._ops_cm = self._ops = None

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` inside a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kw: Any) -> Any:
            self.begin(name)
            try:
                return fn(*args, **kw)
            finally:
                self.end()

        return traced

    def to_json(self) -> dict[str, Any]:
        """Kept spans as ``[id, name, start, end, parent]`` rows."""
        return {
            "columns": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [list(s) for s in sorted(self.spans)],
            "dropped": self.dropped,
        }


def family(fn: Callable[..., Any]) -> str:
    """Layer of a registry entry: its implementation's top-level package."""
    return inspect.unwrap(fn).__module__.split(".")[1]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; returns the function that restores them."""
    from repro.core.prefix import PrefixSum2D
    from repro.core.registry import ALGORITHMS
    from repro.core.sparse import SparsePrefix2D
    from repro.experiments import figures
    from repro.experiments.rawstore import RawStore
    from repro.perf.kernels import KERNELS
    from repro.runtime import simulator
    from repro.sweep.store import SweepStore

    undo: list[Callable[[], None]] = []

    def patch_attr(owner: Any, attr: str, new: Any) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        undo.append(lambda: setattr(owner, attr, old))

    def patch_item(table: dict, key: str, new: Any) -> None:
        old = table[key]
        table[key] = new
        undo.append(lambda: table.__setitem__(key, old))

    for key, fn in list(ALGORITHMS.items()):
        patch_item(ALGORITHMS, key, tracer.wrap(family(fn), fn))
    for key, k in list(KERNELS.items()):
        name = f"perf.kernels.{key}"
        patch_item(
            KERNELS,
            key,
            dataclasses.replace(
                k, reference=tracer.wrap(name, k.reference), numpy=tracer.wrap(name, k.numpy)
            ),
        )

    def substrate_init(name: str, init: Callable[..., None]) -> Callable[..., None]:
        @functools.wraps(init)
        def traced(obj: Any, *args: Any, **kw: Any) -> None:
            tracer.begin(name)
            try:
                init(obj, *args, **kw)
            finally:
                tracer.end()
            tracer.count(f"{name}.bytes", obj.nbytes)

        return traced

    patch_attr(PrefixSum2D, "__init__", substrate_init("core.prefix", PrefixSum2D.__init__))
    patch_attr(SparsePrefix2D, "__init__", substrate_init("core.sparse", SparsePrefix2D.__init__))
    patch_attr(RawStore, "load", tracer.wrap("experiments.rawstore.load", RawStore.load))
    patch_attr(RawStore, "store", tracer.wrap("experiments.rawstore.store", RawStore.store))
    patch_attr(SweepStore, "load", tracer.wrap("sweep.store.load", SweepStore.load))

    flush = SweepStore.flush

    @functools.wraps(flush)
    def traced_flush(store: SweepStore) -> None:
        before = _stat(store.path)
        tracer.begin("sweep.store.flush")
        try:
            flush(store)
        finally:
            tracer.end()
        after = _stat(store.path)
        if after is not None and after != before:
            tracer.count("sweep.store.bytes", after[1])

    patch_attr(SweepStore, "flush", traced_flush)
    for attr in ("migration_volume", "max_boundary"):
        patch_attr(simulator, attr, tracer.wrap("core.metrics", getattr(simulator, attr)))
    for attr in ("pmap", "pmap_batched"):
        patch_attr(figures, attr, tracer.wrap("parallel.pool", getattr(figures, attr)))

    def restore() -> None:
        while undo:
            undo.pop()()

    return restore


def _stat(path: str) -> tuple[int, int] | None:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_mtime_ns, st.st_size


def wrap_policy(tracer: Tracer, policy: Any) -> None:
    """Trace one of the benchmark's own repartitioning-policy objects."""
    policy.should_repartition = tracer.wrap("dynamic.decide", policy.should_repartition)
    policy.solve = tracer.wrap("dynamic.solve", policy.solve)
