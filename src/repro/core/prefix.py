"""Prefix-sum substrates for O(1) interval and rectangle load queries.

The paper (Section 2.1) assumes the load matrix ``A`` is given as a 2D prefix
sum array ``Γ`` with ``Γ[x][y] = sum_{x'<=x, y'<=y} A[x'][y']`` so that the
load of a rectangle is computed in O(1).  This module provides that substrate
for both one and two dimensions, using NumPy and half-open index conventions
(``[lo, hi)``), which map directly onto array slices.

All loads are kept as ``int64``: the evaluation instances are integer load
matrices, and exact integer arithmetic lets the optimal algorithms use exact
bisection on the bottleneck value.  A matrix whose exact total does not fit
in ``int64`` is rejected at construction, never wrapped.
"""

from __future__ import annotations

from typing import Protocol, Union, runtime_checkable

import numpy as np

from ..perf.cache import LRUCache
from ..perf.config import cache_budget_bytes, cache_min_cells, perf_enabled
from ..perf.counters import _STACK as _OPS
from ..perf.counters import bump, gauge
from ..sweep.state import sweep_active
from .errors import ParameterError

__all__ = [
    "LoadView",
    "PrefixSum1D",
    "PrefixSum2D",
    "prefix_1d",
    "prefix_2d",
    "as_load_matrix",
]


_INT64_MAX = int(np.iinfo(np.int64).max)

#: a matrix at least this wide accumulates Γ down its rows one row at a time
#: (two contiguous row reads per row written); a narrower one takes one
#: in-place ``cumsum(axis=0)``, which walks Γ column-wise but wins while the
#: per-row call overhead (~1 µs) dominates.  Row loop over cumsum time on a
#: 2-vCPU Xeon VM, for 256 / 1024 / 4096 rows: width 768 → 1.09 / 1.07 /
#: 0.43, width 1024 → 1.00 / 0.97 / 0.48, width 2048 → 0.90 / 0.84 / 0.45
_ROW_SCAN_MIN_WIDTH = 1024

#: side of the square tiles a large ``Γᵀ`` is copied in
_TILE = 256
#: Γ with at least this many cells is transposed tile by tile: a plain
#: ``ascontiguousarray(G.T)`` reads a full column of ``G``, one row stride
#: apart per element, for each output row.  Tiled over plain time on the
#: same VM: 769² → 1.14, 1025² → 0.88, 2049² → 0.88, 4097² → 0.58
_TILED_TRANSPOSE_MIN_CELLS = 1 << 20


def _as_int64(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` as a C-contiguous int64 array, exactly, or a ``ParameterError``.

    Floats must be finite and exactly integral; every entry must be
    non-negative and at most ``2^63 - 1``.  ``what`` names the input in the
    error messages.
    """
    if np.issubdtype(values.dtype, np.floating):
        if not np.isfinite(values).all():
            raise ParameterError(f"{what} must be finite (contains NaN or inf)")
        # exact equality: np.allclose's rtol would accept 100000.5 and round it
        if not (values == np.rint(values)).all():
            raise ParameterError(f"{what} must contain integers")
        too_big = values.size > 0 and values.max() >= 2.0**63
    elif np.issubdtype(values.dtype, np.unsignedinteger):
        # the int64 cast would wrap 2^63 and above to negative values
        too_big = values.size > 0 and values.max() > _INT64_MAX
    elif np.issubdtype(values.dtype, np.integer):
        too_big = False
    else:
        raise ParameterError(f"unsupported dtype {values.dtype} for {what}")
    if too_big:
        raise ParameterError(f"{what} has an entry that exceeds int64 (2^63 - 1)")
    out = np.ascontiguousarray(values, dtype=np.int64)
    if out.size and out.min() < 0:
        raise ParameterError(f"{what} entries must be non-negative")
    return out


def _checked_max(vals: np.ndarray) -> int:
    """Largest of the non-negative int64 ``vals``, once their exact total is
    known to fit in int64 (a prefix sum past it would silently wrap).

    ``max · count`` bounds the total; only where that bound fails is the
    total summed exactly, as 32-bit halves whose sums cannot overflow.
    """
    if vals.size == 0:
        return 0
    vmax = int(vals.max())
    if vmax * vals.size > _INT64_MAX:
        hi = int((vals >> 32).view(np.uint64).sum())
        lo = int((vals & 0xFFFFFFFF).view(np.uint64).sum())
        total = (hi << 32) + lo
        if total > _INT64_MAX:
            raise ParameterError(f"total load {total} exceeds int64 (2^63 - 1)")
    return vmax


def as_load_matrix(A: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a load matrix to a 2D C-contiguous int64 array.

    Negative entries are rejected; zero entries are allowed (sparse instances
    such as the SLAC mesh contain zeros, cf. paper Section 4.1).  Float
    entries must be exactly integral, and no entry may exceed ``2^63 - 1``.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ParameterError(f"load matrix must be 2D, got shape {A.shape}")
    if A.size == 0:
        raise ParameterError("load matrix must be non-empty")
    return _as_int64(A, "load matrix")


def _prefix_grid(A: np.ndarray) -> np.ndarray:
    """Γ of a canonical load matrix, streamed through memory in row order.

    The cumsum along each (contiguous) row comes first; the accumulation
    down the rows follows, row by row on wide matrices (see
    :data:`_ROW_SCAN_MIN_WIDTH`).  int64 addition is associative modulo
    2^64, so Γ is bit-identical whatever the summation order.
    """
    n1, n2 = A.shape
    G = np.zeros((n1 + 1, n2 + 1), dtype=np.int64)
    np.cumsum(A, axis=1, out=G[1:, 1:])
    if n2 >= _ROW_SCAN_MIN_WIDTH:
        for i in range(2, n1 + 1):
            np.add(G[i], G[i - 1], out=G[i])
    else:
        np.cumsum(G[1:], axis=0, out=G[1:])
    return G


def _transposed(G: np.ndarray) -> np.ndarray:
    """C-contiguous ``Γᵀ``; large Γ is copied in square tiles that fit the cache."""
    if G.size < _TILED_TRANSPOSE_MIN_CELLS:
        return np.ascontiguousarray(G.T)
    n1, n2 = G.shape
    T = np.empty((n2, n1), dtype=G.dtype)
    for i in range(0, n1, _TILE):
        for j in range(0, n2, _TILE):
            T[j : j + _TILE, i : i + _TILE] = G[i : i + _TILE, j : j + _TILE].T
    return T


def prefix_1d(values: np.ndarray) -> np.ndarray:
    """Return the length ``n+1`` prefix-sum array of a 1D load array.

    ``P[i]`` is the sum of the first ``i`` elements, so the load of the
    half-open interval ``[i, j)`` is ``P[j] - P[i]``.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ParameterError("expected a 1D array")
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:], dtype=np.int64)
    return out


class PrefixSum1D:
    """One-dimensional prefix-sum array with O(1) interval loads.

    Parameters
    ----------
    values:
        Either the raw 1D load array, or (with ``is_prefix=True``) an already
        computed prefix array of length ``n+1`` starting at 0.
    """

    __slots__ = ("P", "n", "_max_el")

    def __init__(self, values: np.ndarray, *, is_prefix: bool = False):
        if is_prefix:
            P = np.ascontiguousarray(values, dtype=np.int64)
            if P.ndim != 1 or len(P) < 1 or P[0] != 0:
                raise ParameterError("prefix array must be 1D and start at 0")
        else:
            P = prefix_1d(values)
        self.P = P
        self.n = len(P) - 1
        self._max_el: int | None = None

    @property
    def total(self) -> int:
        """Total load of the array."""
        return int(self.P[-1])

    def load(self, lo: int, hi: int) -> int:
        """Load of the half-open interval ``[lo, hi)``."""
        return int(self.P[hi] - self.P[lo])

    def max_element(self) -> int:
        """Largest single-element load (the second lower bound of §2.1).

        A pure property of the array, computed once and cached: the ``diff``
        temporary is not worth re-allocating on every bound evaluation.
        """
        if self._max_el is None:
            self._max_el = int(np.max(np.diff(self.P))) if self.n else 0
        return self._max_el

    def __len__(self) -> int:
        return self.n


@runtime_checkable
class LoadView(Protocol):
    """Query surface every load substrate provides.

    Both :class:`PrefixSum2D` (dense ``Γ``) and
    :class:`repro.core.sparse.SparsePrefix2D` (CSR prefixes) satisfy this
    protocol; algorithms written against it run bit-identically on either
    substrate.  ``n1``/``n2`` are the load-matrix dimensions.
    """

    n1: int
    n2: int

    @property
    def shape(self) -> tuple[int, int]: ...

    @property
    def total(self) -> int: ...

    @property
    def nbytes(self) -> int: ...

    def load(self, r0: int, r1: int, c0: int, c1: int) -> int: ...

    def rect_loads(self, coords: np.ndarray) -> np.ndarray: ...

    def axis_prefix(
        self, axis: int, lo: int = 0, hi: int | None = None, *, reuse: bool | None = None
    ) -> np.ndarray: ...

    def band_prefix(
        self, axis: int, lo: int, hi: int, j0: int, j1: int, *, reuse: bool | None = None
    ) -> np.ndarray: ...

    def boundary_list(
        self, axis: int, lo: int = 0, hi: int | None = None, *, reuse: bool | None = None
    ) -> list[int]: ...

    def max_element(self) -> int: ...

    def min_element(self) -> int: ...

    def cells_dense(self) -> np.ndarray: ...

    def transpose(self) -> "LoadView": ...


class _ProjectionMemo:
    """Adaptive per-instance memo for stripe projections and boundary lists.

    Shared by both substrates: the memo logic only needs ``n1``/``n2``, the
    ``_cache``/``_cache_default`` slots and the substrate's
    ``_axis_prefix_ref`` reference query — the dispatch, keying, freezing
    and op-counting are substrate-independent.
    """

    __slots__ = ()

    # provided by the concrete substrate
    n1: int
    n2: int

    def _axis_prefix_ref(self, axis: int, lo: int, hi: int | None) -> np.ndarray:
        raise NotImplementedError

    def projection_cache(self) -> LRUCache:
        """The per-instance projection/boundary-list memo (created lazily)."""
        if self._cache is None:
            self._cache = LRUCache(cache_budget_bytes())
        return self._cache

    def _reuse_default(self) -> bool:
        """Whether size-defaulted projection queries memoize on this instance.

        Small matrices lose to the cache bookkeeping (the straight-line
        subtraction is a handful of microseconds), so memoization defaults
        on only above :func:`~repro.perf.config.cache_min_cells` cells.
        Resolved once per instance — the threshold is a process-level knob.
        """
        if self._cache_default is None:
            self._cache_default = self.n1 * self.n2 >= cache_min_cells()
        return self._cache_default

    def axis_prefix(
        self,
        axis: int,
        lo: int = 0,
        hi: int | None = None,
        *,
        reuse: bool | None = None,
    ) -> np.ndarray:
        """Prefix array along ``axis`` restricted to band ``[lo, hi)`` of the other axis.

        For ``axis == 0`` this returns the length ``n1+1`` prefix of the row
        sums of columns ``[lo, hi)`` — i.e. the projection of the band onto
        the first dimension (paper §3.2: "there is actually no projection to
        make", the prefix differences suffice).  With the perf layer enabled
        the result is memoized per ``(axis, lo, hi)`` in a bounded LRU and
        returned *read-only*; otherwise it is a fresh array (one vectorized
        subtraction of two views of ``Γ``, or a sparse stripe scatter).

        ``reuse`` controls memoization: ``True`` forces it (callers that
        revisit the same band many times, e.g. the exact-solver DPs),
        ``False`` forces the straight-line path, and ``None`` (default)
        memoizes only when the instance has at least
        :func:`~repro.perf.config.cache_min_cells` cells — on small
        matrices the cache bookkeeping costs more than the subtraction.
        """
        if not perf_enabled():
            return self._axis_prefix_ref(axis, lo, hi)
        if reuse is None:
            # inlined slot read: this dispatch runs on every projection
            # query, and the resolved default is the overwhelmingly common
            # case — the helper call only happens once per instance
            reuse = self._cache_default
            if reuse is None:
                reuse = self._reuse_default()
        if not reuse:
            return self._axis_prefix_ref(axis, lo, hi)
        if hi is None:
            hi = self.n2 if axis == 0 else self.n1
        key = ("ap", axis, lo, hi)
        cache = self.projection_cache()
        if _OPS:
            bump("proj_queries")
        hit = cache.get(key)
        if hit is not None:
            if _OPS:
                bump("proj_hits")
            return hit  # type: ignore[return-value]
        p = self._axis_prefix_ref(axis, lo, hi)
        p.flags.writeable = False  # shared across callers: freeze it
        cache.put(key, p)
        return p

    def band_prefix(
        self,
        axis: int,
        lo: int,
        hi: int,
        j0: int,
        j1: int,
        *,
        reuse: bool | None = None,
    ) -> np.ndarray:
        """Prefix along ``axis`` of the sub-rectangle band.

        Like :meth:`axis_prefix` but additionally windowed to ``[j0, j1)``
        along ``axis`` itself and re-based so the first entry is 0.  Used by
        hierarchical algorithms working on sub-rectangles.  The full-width
        window equals :meth:`axis_prefix` exactly (the first row/column of
        ``Γ`` is zero), so that case is delegated to the memoized projection.
        ``reuse`` is forwarded to :meth:`axis_prefix`.
        """
        if j0 == 0 and perf_enabled():
            if j1 == (self.n1 if axis == 0 else self.n2):
                return self.axis_prefix(axis, lo, hi, reuse=reuse)
            # axis prefixes start at 0, so no rebase is needed: hand out a
            # (read-only) view of the memoized projection
            return self.axis_prefix(axis, lo, hi, reuse=reuse)[: j1 + 1]  # repro-lint: disable=RPL002
        # the prefix window of half-open [j0, j1) has j1-j0+1 entries
        p = self.axis_prefix(axis, lo, hi, reuse=reuse)[j0 : j1 + 1]  # repro-lint: disable=RPL002
        return p - p[0]

    def boundary_list(
        self,
        axis: int,
        lo: int = 0,
        hi: int | None = None,
        *,
        reuse: bool | None = None,
    ) -> list[int]:
        """List form of :meth:`axis_prefix` — what the probe hot path wants.

        The probe family binary-searches plain Python lists (C-speed
        ``bisect_right``, see :mod:`repro.oned.probe`); converting an
        ``ndarray`` costs O(n) per call.  This query converts once per
        ``(axis, lo, hi)`` and memoizes the list alongside the projection.
        Callers must treat the returned list as immutable.  ``reuse`` as in
        :meth:`axis_prefix` (``None`` defers to the instance-size default).
        """
        if not perf_enabled():
            return self._axis_prefix_ref(axis, lo, hi).tolist()
        if reuse is None:
            reuse = self._cache_default  # inlined, as in axis_prefix
            if reuse is None:
                reuse = self._reuse_default()
        if not reuse:
            return self._axis_prefix_ref(axis, lo, hi).tolist()
        p = self.axis_prefix(axis, lo, hi, reuse=True)
        if hi is None:
            hi = self.n2 if axis == 0 else self.n1
        key = ("bl", axis, lo, hi)
        cache = self.projection_cache()
        if _OPS:
            bump("proj_queries")
        hit = cache.get(key)
        if hit is not None:
            if _OPS:
                bump("proj_hits")
            return hit  # type: ignore[return-value]
        pl = p.tolist()
        cache.put(key, pl)
        return pl


class PrefixSum2D(_ProjectionMemo):
    """Two-dimensional prefix-sum array ``Γ`` with O(1) rectangle loads.

    ``Γ`` has shape ``(n1+1, n2+1)``; the load of the half-open rectangle
    ``[r0, r1) × [c0, c1)`` is::

        Γ[r1, c1] - Γ[r0, c1] - Γ[r1, c0] + Γ[r0, c0]

    which is the half-open form of the formula in Section 2.1 of the paper.
    """

    # __weakref__ lets repro.parallel.shm key exported shared-memory segments
    # to the prefix's lifetime (weakref.finalize unlinks on collection)
    __slots__ = (
        "G",
        "n1",
        "n2",
        "_cache",
        "_cache_default",
        "_max_el",
        "_min_el",
        "_T",
        "__weakref__",
    )

    def __init__(self, A: np.ndarray, *, is_prefix: bool = False):
        self._max_el: int | None = None
        if is_prefix:
            G = np.ascontiguousarray(A, dtype=np.int64)
            if G.ndim != 2 or G[0, 0] != 0 or (G[0, :] != 0).any() or (G[:, 0] != 0).any():
                raise ParameterError("2D prefix array must have a zero first row/column")
        else:
            A = as_load_matrix(A)
            self._max_el = _checked_max(A)  # the overflow check's max is the cell max
            G = _prefix_grid(A)
        self.G = G
        self.n1 = G.shape[0] - 1
        self.n2 = G.shape[1] - 1
        self._cache: LRUCache | None = None
        self._cache_default: bool | None = None
        self._min_el: int | None = None
        self._T: "PrefixSum2D | None" = None

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``(n1, n2)`` of the underlying load matrix."""
        return (self.n1, self.n2)

    @property
    def total(self) -> int:
        """Total load of the matrix."""
        return int(self.G[-1, -1])

    @property
    def nbytes(self) -> int:
        """Resident bytes of the substrate (the dense ``Γ`` array)."""
        return int(self.G.nbytes)

    def load(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Load of the half-open rectangle ``[r0, r1) × [c0, c1)``."""
        if _OPS:
            bump("load_queries")
        G = self.G
        return int(G[r1, c1] - G[r0, c1] - G[r1, c0] + G[r0, c0])

    def rect_loads(self, coords: np.ndarray) -> np.ndarray:
        """Loads of many rectangles at once — one vectorized 4-corner gather.

        ``coords`` is an ``(k, 4)`` int array of ``r0, r1, c0, c1`` rows
        (the layout of :meth:`repro.core.partition.Partition.coords`).
        """
        r0, r1, c0, c1 = coords.T
        G = self.G
        return G[r1, c1] - G[r0, c1] - G[r1, c0] + G[r0, c0]

    def _axis_prefix_ref(self, axis: int, lo: int, hi: int | None) -> np.ndarray:
        if axis == 0:
            hi = self.n2 if hi is None else hi
            return self.G[:, hi] - self.G[:, lo]
        elif axis == 1:
            hi = self.n1 if hi is None else hi
            return self.G[hi, :] - self.G[lo, :]
        raise ParameterError(f"axis must be 0 or 1, got {axis}")

    def cells_dense(self) -> np.ndarray:
        """The load matrix ``A`` reconstructed from ``Γ`` (O(n1·n2) memory)."""
        return np.diff(np.diff(self.G, axis=0), axis=1)

    def max_element(self) -> int:
        """Largest single cell load (lower bound ``max A[x][y]`` of §2.1).

        A pure property of ``Γ``, computed once per instance: the double
        ``np.diff`` allocates two full-matrix temporaries, which the exact
        algorithms would otherwise re-pay on every lower-bound evaluation.
        A ``Γ`` built from a load matrix has it already: the overflow check
        takes the same maximum.
        """
        if self._max_el is None:
            # Reconstruct cell loads from Γ by double differencing; vectorized.
            d = np.diff(np.diff(self.G, axis=0), axis=1)
            self._max_el = int(d.max()) if d.size else 0
        return self._max_el

    def min_element(self) -> int:
        """Smallest single cell load (the ``min A[x][y]`` of the Δ bound).

        Cached like :meth:`max_element` — same double-diff temporary, same
        repeated-bound-evaluation callers.
        """
        if self._min_el is None:
            d = np.diff(np.diff(self.G, axis=0), axis=1)
            self._min_el = int(d.min()) if d.size else 0
        return self._min_el

    def transpose(self) -> "PrefixSum2D":
        """Prefix of the transposed matrix (for -VER algorithm variants).

        With the perf layer enabled the transposed prefix is built once and
        reused (the -BEST orientation wrappers and repeated figure sweeps
        otherwise re-copy ``Γᵀ`` on every call); both directions share the
        link, so ``pref.transpose().transpose() is pref``.

        Caching is adaptive, like the projection memo: pinning ``Γᵀ`` to
        the instance extends its lifetime and ties the pair into a reference
        cycle (freed by the cycle collector, not refcounting), which on
        small matrices costs more than the copy it saves.  The cache engages
        above :func:`~repro.perf.config.cache_min_cells` cells — or whenever
        a sweep is active, because the sweep stores key warm-start facts by
        object identity and the -VER variants only accumulate facts if every
        call sees the *same* transposed prefix.  Below the threshold the
        perf layer still copies (the per-stripe band queries of the jagged
        heuristics want contiguous rows) but skips the constructor's border
        re-validation — ``Γᵀ``'s zero border *is* ``Γ``'s zero border.
        """
        if perf_enabled():
            if self._T is None and (self._reuse_default() or sweep_active()):
                T = self._transpose_unvalidated()
                T._T = self
                self._T = T
            if self._T is not None:
                return self._T
            return self._transpose_unvalidated()
        return PrefixSum2D(np.ascontiguousarray(self.G.T), is_prefix=True)

    def _transpose_unvalidated(self) -> "PrefixSum2D":
        """Contiguous transposed prefix without re-running border validation.

        The constructor's zero-border check is a proof obligation for
        *external* prefix arrays; ``Γᵀ`` of an already-validated ``Γ``
        satisfies it by construction, so the perf path skips the two
        full-border scans and seeds the size- and max-element slots (both
        are transpose-invariant) instead of re-resolving them.
        """
        T = PrefixSum2D.__new__(PrefixSum2D)
        T.G = _transposed(self.G)
        T.n1 = self.n2
        T.n2 = self.n1
        T._cache = None
        T._cache_default = self._cache_default  # same n1·n2 cell count
        T._max_el = self._max_el  # same multiset of cell loads
        T._min_el = self._min_el
        T._T = None
        return T


MatrixLike = Union[np.ndarray, PrefixSum2D, "LoadView"]


def prefix_2d(A: MatrixLike) -> "LoadView":
    """Coerce a raw matrix or an existing substrate to a load substrate.

    Existing substrates (dense :class:`PrefixSum2D` or any other
    :class:`LoadView`, e.g. ``SparsePrefix2D``) pass through unchanged, so
    callers that pre-build a sparse substrate keep it across the whole
    solver stack.  Raw arrays densify into :class:`PrefixSum2D`; automatic
    density dispatch lives in :func:`repro.core.sparse.auto_substrate` and
    is opt-in at the instance-construction layer, not here — solver-internal
    coercions must never silently change substrate.
    """
    if isinstance(A, PrefixSum2D):
        pref: "LoadView" = A
    elif isinstance(A, np.ndarray):
        pref = PrefixSum2D(A)
    elif isinstance(A, LoadView):
        pref = A
    else:
        pref = PrefixSum2D(A)
    if _OPS:
        gauge("substrate_bytes", pref.nbytes)
    return pref
