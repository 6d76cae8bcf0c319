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

from typing import Protocol, Sequence, Union, runtime_checkable

import numpy as np

from ..perf.cache import LRUCache
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

#: the per-band coordinates of a batch of prefix windows (lists, tuples or arrays)
_Ints = Sequence[int]

#: a matrix at least this wide accumulates Γ down its rows one row at a time
#: (two contiguous row reads per row written); a narrower one takes one
#: in-place ``cumsum(axis=0)``, which walks Γ column-wise but wins while the
#: per-row call overhead (~1 µs) dominates.  Row loop over cumsum time on a
#: 2-vCPU Xeon VM, for 256 / 1024 / 4096 rows: width 768 → 1.09 / 1.07 /
#: 0.43, width 1024 → 1.00 / 0.97 / 0.48, width 2048 → 0.90 / 0.84 / 0.45
_ROW_SCAN_MIN_WIDTH = 1024

#: a batch of prefix windows is read from Γ with one index gather when it
#: holds at least ``_GATHER_MIN_WINDOWS`` windows of fewer than
#: ``_GATHER_MAX_MEAN`` values on average, and sliced window by window
#: otherwise: a slice costs ~2.5 µs whatever its length, the gather ~40 µs
#: fixed plus ~18 ns a value.  On the same VM (4096² Γ), for 16 / 128 / 1024
#: windows, slices over gather time: length 4 → 0.98 / 3.3 / 5.4, length
#: 64 → 0.83 / 1.9 / 1.06, length 256 → 0.57 / 0.87 / 0.33
_GATHER_MIN_WINDOWS = 16
_GATHER_MAX_MEAN = 64

#: byte budget of one substrate's projection memo.  Sized for the JAG-M-OPT
#: DP's stripe lists, which filled it at m = 144 on the small-profile 256²
#: instances; that DP now builds its lists fresh, and the memo holds
#: JAG-PQ-OPT stripe lists, CSR Γ rows and projections
_CACHE_BUDGET_BYTES = 64 << 20
#: size-defaulted projection queries memoize, and Γᵀ is pinned, from this
#: many cells up.  Six one-shot heuristic solves on a fresh ``peak``
#: substrate, memo on over off, at m = 16 / 64: 64² 1.12 / 1.06, 128²
#: 1.01 / 0.97, 256² 0.94 / 1.02, 512² 0.94 / 1.01
_CACHE_MIN_CELLS = 1 << 16


def _as_int64(values: np.ndarray, what: str, *, signed: bool = False) -> np.ndarray:
    """``values`` as a C-contiguous int64 array, exactly, or a ``ParameterError``.

    Floats must be finite and exactly integral; every entry must be at most
    ``2^63 - 1``, and non-negative unless ``signed`` (then at least
    ``-2^63``).  ``what`` names the input in the error messages.
    """
    if np.issubdtype(values.dtype, np.floating):
        if not np.isfinite(values).all():
            raise ParameterError(f"{what} must be finite (contains NaN or inf)")
        # exact equality: np.allclose's rtol would accept 100000.5 and round it
        if not (values == np.rint(values)).all():
            raise ParameterError(f"{what} must contain integers")
        too_big = values.size > 0 and (
            values.max() >= 2.0**63 or (signed and values.min() < -(2.0**63))
        )
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
    if not signed and out.size and out.min() < 0:
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


def _window_offsets(j0: _Ints, j1: _Ints) -> np.ndarray:
    """Offsets of the flattened prefix windows ``[j0[k], j1[k]]`` (``j1 - j0 + 1`` values each)."""
    offs = np.zeros(len(j0) + 1, dtype=np.int64)
    np.cumsum(np.subtract(j1, j0), out=offs[1:])
    offs += np.arange(len(j0) + 1)
    return offs


def _prefix_1d(values: np.ndarray) -> tuple[np.ndarray, int]:
    """The prefix array of a 1D load array, and its largest element."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ParameterError("expected a 1D array")
    values = _as_int64(values, "load array")
    vmax = _checked_max(values)
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out, vmax


def prefix_1d(values: np.ndarray) -> np.ndarray:
    """Return the length ``n+1`` prefix-sum array of a 1D load array.

    ``P[i]`` is the sum of the first ``i`` elements, so the load of the
    half-open interval ``[i, j)`` is ``P[j] - P[i]``.  The loads must be
    exact non-negative integers whose total fits in int64 (as for
    :func:`as_load_matrix`); anything else is a ``ParameterError``.
    """
    return _prefix_1d(values)[0]


class PrefixSum1D:
    """One-dimensional prefix-sum array with O(1) interval loads.

    Parameters
    ----------
    values:
        Either the raw 1D load array (checked as by :func:`prefix_1d`), or
        (with ``is_prefix=True``) an already computed integer prefix array
        of length ``n+1`` starting at 0 and non-decreasing (a decreasing
        step would be a negative load).
    """

    __slots__ = ("P", "n", "_max_el")

    def __init__(self, values: np.ndarray, *, is_prefix: bool = False):
        self._max_el: int | None = None
        if is_prefix:
            P = _as_int64(np.asarray(values), "prefix array")
            if P.ndim != 1 or len(P) < 1 or P[0] != 0:
                raise ParameterError("prefix array must be 1D and start at 0")
            if (P[1:] < P[:-1]).any():
                raise ParameterError("prefix array must be non-decreasing")
        else:
            P, self._max_el = _prefix_1d(values)
        self.P = P
        self.n = len(P) - 1

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

    def band_windows(
        self, axes: _Ints, lo: _Ints, hi: _Ints, j0: _Ints, j1: _Ints
    ) -> tuple[np.ndarray, np.ndarray]: ...

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

    #: whether projections are memoized, or only boundary lists
    _MEMO_BANDS = True

    # provided by the concrete substrate
    n1: int
    n2: int

    def _axis_prefix_ref(self, axis: int, lo: int, hi: int | None) -> np.ndarray:
        raise NotImplementedError

    def projection_cache(self) -> LRUCache:
        """The per-instance projection/boundary-list memo (created lazily)."""
        if self._cache is None:
            self._cache = LRUCache(_CACHE_BUDGET_BYTES)
        return self._cache

    def _reuse_default(self) -> bool:
        """Whether size-defaulted projection queries memoize on this instance.

        Small matrices lose to the cache bookkeeping (the straight-line
        subtraction is a handful of microseconds), so memoization defaults
        on only from ``_CACHE_MIN_CELLS`` cells.  Resolved once per instance.
        """
        if self._cache_default is None:
            self._cache_default = self.n1 * self.n2 >= _CACHE_MIN_CELLS
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
        make", the prefix differences suffice).  A memoized result is kept
        per ``(axis, lo, hi)`` in a bounded LRU and returned *read-only*; an
        unmemoized one is a fresh array (one vectorized subtraction of two
        views of ``Γ``, or a sparse stripe scatter).

        ``reuse`` controls memoization: ``True`` forces it (callers that
        revisit the same band many times, e.g. the exact-solver DPs),
        ``False`` forces the straight-line path, and ``None`` (default)
        memoizes only when the instance has at least ``_CACHE_MIN_CELLS``
        cells — on small matrices the cache bookkeeping costs more than the
        subtraction (and never without ``_MEMO_BANDS``).
        """
        if reuse is None:
            # inlined slot read: this dispatch runs on every projection
            # query, and the resolved default is the overwhelmingly common
            # case — the helper call only happens once per instance
            reuse = self._cache_default
            if reuse is None:
                reuse = self._reuse_default()
        if not (reuse and self._MEMO_BANDS):
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
        if j0 == 0:
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
        ``(axis, lo, hi)`` and memoizes the list as the band's only entry,
        on both substrates: no projection is kept beside it, so a call is
        one memo lookup.  Callers must treat the returned list as
        immutable.  ``reuse`` as in :meth:`axis_prefix` (``None`` defers
        to the instance-size default; the JAG-M-OPT DP passes ``False``).
        """
        if reuse is None:
            reuse = self._cache_default  # inlined, as in axis_prefix
            if reuse is None:
                reuse = self._reuse_default()
        if not reuse:
            return self._axis_prefix_ref(axis, lo, hi).tolist()
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
        pl = self._axis_prefix_ref(axis, lo, hi).tolist()
        cache.put(key, pl)
        return pl


class PrefixSum2D(_ProjectionMemo):
    """Two-dimensional prefix-sum array ``Γ`` with O(1) rectangle loads.

    ``Γ`` has shape ``(n1+1, n2+1)``; the load of the half-open rectangle
    ``[r0, r1) × [c0, c1)`` is::

        Γ[r1, c1] - Γ[r0, c1] - Γ[r1, c0] + Γ[r0, c0]

    which is the half-open form of the formula in Section 2.1 of the paper.
    """

    __slots__ = (
        "G",
        "n1",
        "n2",
        "_cache",
        "_cache_default",
        "_max_el",
        "_min_el",
        "_T",
    )

    def __init__(self, A: np.ndarray, *, is_prefix: bool = False):
        self._max_el: int | None = None
        self._min_el: int | None = None
        if is_prefix:
            G = _as_int64(np.asarray(A), "prefix array")
            if G.ndim != 2 or G[0, 0] != 0 or (G[0, :] != 0).any() or (G[:, 0] != 0).any():
                raise ParameterError("2D prefix array must have a zero first row/column")
            # one pass over the cells Γ implies: none may be negative, and
            # both element bounds are seeded
            d = np.diff(np.diff(G, axis=0), axis=1)
            if d.size:
                self._min_el, self._max_el = int(d.min()), int(d.max())
                if self._min_el < 0:
                    raise ParameterError(f"prefix implies a negative cell load ({self._min_el})")
        else:
            A = as_load_matrix(A)
            self._max_el = _checked_max(A)  # the overflow check's max is the cell max
            G = _prefix_grid(A)
        self.G = G
        self.n1 = G.shape[0] - 1
        self.n2 = G.shape[1] - 1
        self._cache: LRUCache | None = None
        self._cache_default: bool | None = None
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

    def band_windows(
        self, axes: _Ints, lo: _Ints, hi: _Ints, j0: _Ints, j1: _Ints
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(vals, offs)``: window ``k``, ``vals[offs[k]:offs[k+1]]``, is
        ``axis_prefix(axes[k], lo[k], hi[k])[j0[k] : j1[k] + 1]`` (un-rebased;
        a frontier batch of :func:`repro.perf.kernels.weighted_cuts`).

        Window ``k`` is ``E[hi[k], j0[k] : j1[k] + 1] - E[lo[k], ...]`` for
        the edge matrix ``E`` of its axis: Γ for axis 1 (row ``r`` holds the
        prefixes of row edge ``r``), Γᵀ for axis 0.  Both are read in place,
        whatever Γ's layout: the windows along Γ's memory order are
        contiguous, the others strided, and on a 4096² Γ a strided window
        misses the cache on every value.  Few or long windows are subtracted
        into the output slice by slice, many short ones gathered with one
        flat index per value.  Memoizes nothing.
        """
        K = len(lo)
        N = sum(j1) - sum(j0) + K
        out = np.empty(N, dtype=np.int64)
        G = self.G
        if K < _GATHER_MIN_WINDOWS or N >= _GATHER_MAX_MEAN * K:
            edges = (G.T, G)
            ends = [0]
            for ax, a, b, x, y in zip(axes, lo, hi, j0, j1):
                E = edges[ax]
                ends.append(ends[-1] + y - x + 1)
                np.subtract(E[b, x : y + 1], E[a, x : y + 1], out=out[ends[-2] : ends[-1]])
            return out, np.array(ends, dtype=np.int64)
        offs = _window_offsets(j0, j1)
        lens = np.diff(offs)
        j = np.arange(N) + np.repeat(np.subtract(j0, offs[:-1]), lens)
        a = np.repeat(lo, lens)
        b = np.repeat(hi, lens)
        rows = np.repeat(np.equal(axes, 1), lens)
        # entry (edge, j) of an axis's edge matrix is flat[edge * se + j * sj]
        # for Γ's element strides; Γ is contiguous in C or (a view) F order
        flat = G.ravel(order="K")
        s0, s1 = (s // G.itemsize for s in G.strides)
        for (se, sj), sel in zip(((s1, s0), (s0, s1)), (~rows, rows)):
            if sel.any():
                jj = j[sel] * sj
                out[sel] = flat[b[sel] * se + jj] - flat[a[sel] * se + jj]
        return out, offs

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

        Its ``G`` is a read-only strided view of this ``Γ``, never a copy:
        every query reads ``Γ``'s own memory, and ``nbytes`` reports the
        shared array, not extra memory.

        Pinning is adaptive, like the projection memo: from
        ``_CACHE_MIN_CELLS`` cells, or whenever a sweep is active, the
        transposed prefix is built once and linked both ways, so
        ``pref.transpose().transpose() is pref``.  The pinned side keeps its
        projection memo across the -BEST wrappers' calls, and the sweep
        stores key warm-start facts by object identity, so the -VER variants
        only accumulate facts if every call sees the *same* transposed
        prefix.  The link ties the pair into a reference cycle (freed by the
        cycle collector, not refcounting), which small matrices skip.
        """
        if self._T is not None:
            return self._T
        T = self._transpose_unvalidated()
        if self._reuse_default() or sweep_active():
            T._T, self._T = self, T
        return T

    def _transpose_unvalidated(self) -> "PrefixSum2D":
        """Transposed prefix over a view of ``Γ``, without re-validation.

        The constructor's checks are a proof obligation for *external*
        prefix arrays; ``Γᵀ`` of an already-validated ``Γ`` satisfies them
        by construction, so this skips them and seeds the size- and
        element-bound slots (all transpose-invariant) instead of
        re-resolving them.
        """
        T = PrefixSum2D.__new__(PrefixSum2D)
        T.G = self.G.T
        T.G.flags.writeable = False  # shares Γ's memory
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
    solver stack.  Raw arrays densify into :class:`PrefixSum2D`: a
    solver-internal coercion never silently changes substrate.
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
