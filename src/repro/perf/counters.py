"""Near-zero-overhead operation counters for the partitioning hot paths.

The paper states per-algorithm complexity bounds (Probe ``O(m log n)``,
JAG-M-HEUR ``O(n + m log n)``, HIER-RB ``O(m log max(n1, n2))``, §2–3);
``tests/test_complexity.py`` checks them by counting the operations that
dominate them.  This module is that substrate.

Design: a module-level stack of active :class:`OpCounters`.  When the stack
is empty — the common case — instrumented call sites pay exactly one
truthiness test on a list (they import the stack object directly); the
greedy/bisection walks return their step counts and their callers bump
once per walk behind that test, so the hot loops carry no per-iteration
bookkeeping.

Usage::

    with op_counters() as ops:
        partition_2d(A, m, "JAG-M-HEUR")
    assert ops["probe_steps"] <= 8 * (n + m * ceil(log2(n + 1)))

Counter names used across the repo:

``probe_calls`` / ``probe_steps``
    Probe-family walks and their greedy binary-search steps (one step per
    interval placed).
``cut_calls``
    Hierarchical cut-selection evaluations (weighted or relaxed).
``load_queries``
    O(1) rectangle-load queries against ``Γ``.
``proj_queries`` / ``proj_hits``
    Stripe-projection / boundary-list requests and how many were served
    from the :class:`~repro.perf.cache.LRUCache`.
``substrate_bytes``
    Resident bytes of the largest load substrate (dense ``Γ`` or CSR
    arrays) a call touched — a *gauge* (max), not an event count.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["OpCounters", "op_counters", "counting", "bump", "gauge"]


class OpCounters(Dict[str, int]):
    """A ``dict`` of counter name → count; missing names read as 0."""

    def __missing__(self, key: str) -> int:
        return 0

    def total(self, prefix: str) -> int:
        """Sum of all counters whose name starts with ``prefix``."""
        return sum(v for k, v in self.items() if k.startswith(prefix))


#: Active counter contexts, innermost last.  Hot paths import this object
#: directly and test its truthiness before doing any counting work.
_STACK: list[OpCounters] = []


def counting() -> bool:
    """True when at least one counter context is open."""
    return bool(_STACK)


def bump(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` in every open context."""
    for c in _STACK:
        c[name] = c.get(name, 0) + n


def gauge(name: str, value: int) -> None:
    """Record a high-water mark: keep the max of ``value`` per open context.

    Counters are additive; gauges are not — re-touching the same substrate
    twice must not double its reported memory.  Each open context keeps the
    largest value it has seen under ``name``.
    """
    for c in _STACK:
        if value > c.get(name, 0):
            c[name] = value


@contextmanager
def op_counters() -> Iterator[OpCounters]:
    """Open a counter context; nested contexts each see all events."""
    c = OpCounters()
    _STACK.append(c)
    try:
        yield c
    finally:
        # remove by identity, not ==: nested contexts opened at the same
        # time hold equal dicts, and list.remove would pop the outer one,
        # leaving this (closed) dict counting and breaking the later unwind
        for i in reversed(range(len(_STACK))):
            if _STACK[i] is c:
                del _STACK[i]
                break
