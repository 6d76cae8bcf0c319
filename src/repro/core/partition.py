"""Partition container: m rectangles forming a partition of a load matrix.

Implements the validity test of Section 2.1 of the paper (pairwise
disjointness + full coverage), load/imbalance metrics, and cell→processor
lookup.  Structured algorithm families attach a fast *indexer* (rectilinear:
two binary searches; jagged: stripe then in-stripe search; hierarchical: tree
descent) matching the paper's remark that compact representations "allow to
easily find which processor a given cell is allocated to".
"""

from __future__ import annotations

from copy import copy
from itertools import starmap
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InvalidPartitionError, ParameterError
from .metrics import exact_imbalance
from .prefix import MatrixLike, _as_int64, prefix_2d
from .rectangle import Rect

__all__ = ["Partition"]

# A cell indexer maps (i, j) -> processor index.
Indexer = Callable[[int, int], int]

#: :meth:`Partition.validate` paints an owner map on grids up to this many
#: cells and runs the paper's pairwise overlap test above it
_PAINT_MAX_CELLS = 1 << 20


def _as_coords(rects: Union[np.ndarray, Sequence[Rect]]) -> np.ndarray:
    """A fresh read-only ``(m, 4)`` int64 copy of ``rects``, converted exactly."""
    what = "partition coordinates"
    if not isinstance(rects, np.ndarray):
        rects = [(r.r0, r.r1, r.c0, r.c1) if isinstance(r, Rect) else r for r in rects]
    try:
        arr = np.array(rects).reshape(-1, 4) if len(rects) == 0 else np.array(rects)
    except ValueError as exc:  # ragged rows
        raise ParameterError(f"{what} must be rows of 4 integers") from exc
    if arr.ndim != 2 or arr.shape[1] != 4 or arr.dtype == object:  # object: 2^70, None
        raise ParameterError(f"{what} must be rows of 4 int64 integers")
    arr = _as_int64(arr, what, signed=True)  # negative bounds are validate()'s
    bad = (arr[:, 1] < arr[:, 0]) | (arr[:, 3] < arr[:, 2])
    if bad.any():
        Rect(*arr[bad][0].tolist())  # raises "malformed rectangle ..."
    arr.flags.writeable = False
    return arr


class Partition:
    """A set of ``m`` rectangles partitioning an ``n1 × n2`` matrix.

    Parameters
    ----------
    rects:
        One rectangle per processor, as an ``(m, 4)`` integer array or a
        sequence of :class:`Rect`, stored as one read-only int64 array
        (:meth:`coords`); empty rectangles (zero area) are allowed and
        represent idle processors.  A fractional, non-numeric, wrong-width
        or beyond-int64 row is a :class:`ParameterError`.
    shape:
        Shape ``(n1, n2)`` of the partitioned matrix (same exact rules).
    method:
        Optional name of the generating algorithm (for reporting).
    indexer:
        Optional O(log)-time cell→processor lookup; a linear scan is used
        otherwise.
    meta:
        Free-form metadata recorded by the generating algorithm (stripe cuts,
        tree, iteration counts, ...).
    """

    __slots__ = ("_coords", "_rects", "shape", "method", "meta", "_indexer")

    def __init__(
        self,
        rects: Union[np.ndarray, Sequence[Rect]],
        shape: tuple[int, int],
        *,
        method: str = "",
        indexer: Optional[Indexer] = None,
        meta: Optional[dict] = None,
    ):
        self._coords = _as_coords(rects)
        self._rects: Optional[tuple[Rect, ...]] = None
        self.shape = tuple(_as_int64(np.asarray(shape), "partition shape", signed=True).tolist())
        if len(self.shape) != 2 or not isinstance(self.shape[0], int):
            raise ParameterError(f"partition shape must be (n1, n2), got {shape!r}")
        self.method = method
        self.meta = dict(meta or {})
        self._indexer = indexer

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    @property
    def rects(self) -> tuple[Rect, ...]:
        """The rectangles as a tuple of :class:`Rect` (built once, on demand)."""
        if self._rects is None:
            self._rects = tuple(starmap(Rect, self._coords.tolist()))
        return self._rects

    @property
    def m(self) -> int:
        """Number of processors (rectangles), including idle ones."""
        return len(self._coords)

    def __len__(self) -> int:
        return len(self._coords)

    def __iter__(self):
        return iter(self.rects)

    def __getitem__(self, i: int) -> Rect:
        return self.rects[i]

    def __repr__(self) -> str:
        name = self.method or "Partition"
        return f"<{name} m={self.m} shape={self.shape}>"

    # ------------------------------------------------------------------
    # geometry / validity
    # ------------------------------------------------------------------
    def coords(self) -> np.ndarray:
        """The read-only ``(m, 4)`` int64 array of ``(r0, r1, c0, c1)`` rows (no copy)."""
        return self._coords

    def validate(self) -> None:
        """Check the two validity properties of Section 2.1.

        1. the rectangles are pairwise disjoint (no collision), and
        2. they cover the whole matrix (all inside ``A`` and the areas sum to
           the area of ``A``).

        Disjointness is checked by owner-map painting (O(n1·n2), exact and
        simple) on grids of up to ``_PAINT_MAX_CELLS`` cells, and by the
        paper's O(m²) pairwise test, vectorized, above.

        Raises
        ------
        InvalidPartitionError
            If either property fails.
        """
        n1, n2 = self.shape
        coords = self.coords()
        if coords.size == 0:
            raise InvalidPartitionError("partition has no rectangles")
        nonempty = coords[(coords[:, 1] > coords[:, 0]) & (coords[:, 3] > coords[:, 2])]
        if (
            (nonempty[:, 0] < 0).any()
            or (nonempty[:, 2] < 0).any()
            or (nonempty[:, 1] > n1).any()
            or (nonempty[:, 3] > n2).any()
        ):
            raise InvalidPartitionError("rectangle outside the matrix")
        areas = (nonempty[:, 1] - nonempty[:, 0]) * (nonempty[:, 3] - nonempty[:, 2])
        if int(areas.sum()) != n1 * n2:
            raise InvalidPartitionError(
                f"areas sum to {int(areas.sum())}, expected {n1 * n2}"
            )
        if n1 * n2 > _PAINT_MAX_CELLS:
            self._validate_pairwise(nonempty)
        elif (self.owner_map() < 0).any():  # the areas sum to n1·n2: cover ⇒ disjoint
            raise InvalidPartitionError("uncovered cell detected")

    def _validate_pairwise(self, coords: np.ndarray, chunk: int = 512) -> None:
        """Vectorized O(m²) pairwise overlap test (chunked for memory)."""
        r0, r1, c0, c1 = coords.T
        k = len(coords)
        for lo in range(0, k, chunk):
            hi = min(lo + chunk, k)
            # overlap(a, b) for a in [lo,hi) against all b > a
            ov = (
                (r0[lo:hi, None] < r1[None, :])
                & (r0[None, :] < r1[lo:hi, None])
                & (c0[lo:hi, None] < c1[None, :])
                & (c0[None, :] < c1[lo:hi, None])
            )
            ov &= np.arange(lo, hi)[:, None] < np.arange(k)[None, :]  # pairs a < b only
            if ov.any():
                a, b = np.argwhere(ov)[0]
                raise InvalidPartitionError(
                    f"rectangles overlap: {coords[lo + a]} and {coords[b]}"
                )

    def is_valid(self) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate()
        except InvalidPartitionError:
            return False
        return True

    # ------------------------------------------------------------------
    # loads and metrics
    # ------------------------------------------------------------------
    def loads(self, A: MatrixLike) -> np.ndarray:
        """Per-processor loads ``L(r_i)`` as an int64 array of length ``m``."""
        return prefix_2d(A).rect_loads(self._coords)

    def max_load(self, A: MatrixLike) -> int:
        """Load of the most loaded processor (the paper's ``Lmax``)."""
        return int(self.loads(A).max())

    def imbalance(self, A: MatrixLike) -> float:
        """Load imbalance ``Lmax / Lavg - 1`` (Section 2.1), rounded once
        (:func:`~repro.core.metrics.exact_imbalance`)."""
        pref = prefix_2d(A)
        return exact_imbalance(self.max_load(pref), pref.total, self.m)

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------
    def owner_of(self, i: int, j: int) -> int:
        """Processor index owning cell ``(i, j)``.

        Uses the structure-specific indexer when available, otherwise a
        linear scan over the rectangles.
        """
        n1, n2 = self.shape
        if not (0 <= i < n1 and 0 <= j < n2):
            raise ParameterError(f"cell ({i}, {j}) outside matrix {self.shape}")
        if self._indexer is not None:
            return self._indexer(i, j)
        r0, r1, c0, c1 = self._coords.T
        hit = np.flatnonzero((r0 <= i) & (i < r1) & (c0 <= j) & (j < c1))
        if hit.size:
            return int(hit[0])
        raise InvalidPartitionError(f"cell ({i}, {j}) is not covered")

    def owner_map(self) -> np.ndarray:
        """Paint an ``n1 × n2`` int array of owner indices (-1 = uncovered).

        O(total rectangle area); intended for metrics and small/medium grids.
        """
        n1, n2 = self.shape
        owner = np.full((n1, n2), -1, dtype=np.int32)
        for k, (r0, r1, c0, c1) in enumerate(self._coords.tolist()):
            owner[r0:r1, c0:c1] = k
        return owner

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def transpose(self) -> "Partition":
        """Partition of the transposed matrix (swap axes of every rectangle).

        Grid ``row_cuts`` and ``col_cuts`` swap with the axes; jagged
        ``stripe_cuts`` keep their ``orientation`` convention.
        """
        idx = self._indexer
        t_indexer = (lambda i, j: idx(j, i)) if idx is not None else None
        meta = dict(self.meta)
        if "row_cuts" in meta:
            meta["row_cuts"], meta["col_cuts"] = meta["col_cuts"], meta["row_cuts"]
        p = copy(self)
        p._coords, p._rects, p.shape = self._coords[:, [2, 3, 0, 1]], None, self.shape[::-1]
        p._coords.flags.writeable = False
        p._indexer, p.meta = t_indexer, meta
        return p

    def with_method(self, name: str) -> "Partition":
        """Copy tagged with a different method name (sharing coords and rects)."""
        p = copy(self)
        p.method, p.meta = name, dict(self.meta)
        return p
