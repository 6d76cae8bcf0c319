"""Byte-budgeted LRU cache behind the prefix-sum projection queries.

The 2D algorithms repeatedly project bands of ``Γ`` onto one axis
(:meth:`~repro.core.prefix.PrefixSum2D.axis_prefix`) and convert the result
to the plain-list form the probe hot path wants
(:meth:`~repro.core.prefix.PrefixSum2D.boundary_list`).  JAG-PQ-OPT's
probes walk the same P stripes on every bisection step, and CSR bands are
differences of memoized Γ rows; the JAG-M-OPT DP, which walks most of its
stripes once, builds its lists without the memo.  One bounded memo
per prefix instance amortizes the projection subtraction and the list
conversion across iterations, variants and algorithms.  A band the exact
solvers walk is kept as its list alone; a projection another caller asks
for is a separate entry.

The cache is bounded by approximate payload *bytes* rather than entry count
because entries range from a 17-element stripe prefix to a full-width
boundary list; a count bound would either thrash on small entries or blow
up on large ones.  Eviction is plain LRU.  The cache keeps no statistics
of its own: the projection queries count their lookups and hits as the
``proj_queries`` / ``proj_hits`` op counters (:mod:`repro.perf.counters`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Tuple

__all__ = ["LRUCache", "sizeof_entry"]

Key = Tuple[Hashable, ...]

#: rough per-element cost of a Python list of ints (pointer + int object)
_LIST_ELEM_BYTES = 40


def sizeof_entry(value: object) -> int:
    """Approximate payload size in bytes of a cached value."""
    nbytes = getattr(value, "nbytes", None)  # ndarray
    if nbytes is not None:
        return int(nbytes) + 112  # array header
    if isinstance(value, list):
        return 56 + _LIST_ELEM_BYTES * len(value)
    return 64


class LRUCache:
    """A byte-budgeted least-recently-used mapping.

    ``get`` returns ``None`` on a miss (cached values are never ``None``).
    ``put`` evicts least-recently-used entries until the new entry fits;
    an entry larger than the whole budget is simply not stored.
    """

    __slots__ = ("_data", "_sizes", "max_bytes", "nbytes")

    def __init__(self, max_bytes: int):
        self._data: OrderedDict[Key, object] = OrderedDict()
        self._sizes: Dict[Key, int] = {}
        self.max_bytes = int(max_bytes)
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Key) -> bool:
        return key in self._data

    def get(self, key: Key) -> object | None:
        """Value for ``key`` (refreshing its recency), or ``None``."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Key, value: object) -> None:
        """Insert ``key`` → ``value``, evicting LRU entries to fit."""
        if key in self._data:
            self._data.move_to_end(key)
            return
        size = sizeof_entry(value)
        if size > self.max_bytes:
            return
        while self._data and self.nbytes + size > self.max_bytes:
            old_key, _ = self._data.popitem(last=False)
            self.nbytes -= self._sizes.pop(old_key)
        self._data[key] = value
        self._sizes[key] = size
        self.nbytes += size
