"""CSR-backed sparse load substrate with exact prefix queries.

The paper's dense prefix array ``Γ`` (Section 2.1) answers rectangle loads
in O(1) but costs O(n1·n2) memory — the wall that caps instance size.  The
instances that matter at scale (SLAC mesh projections, R-MAT spmv traces)
are sparse, and the rectilinear-partitioning literature runs on them via
sparse count structures instead of densified arrays (Yaşar et al.,
*On Symmetric Rectilinear Matrix Partitioning*; Balın et al., *SGORP*).

:class:`SparsePrefix2D` is that substrate: CSR row pointers with per-row
sorted column indices, a global value-prefix ``csum`` over the nonzeros,
and dense row/column *marginal* prefixes.  It satisfies the same
:class:`~repro.core.prefix.LoadView` surface as
:class:`~repro.core.prefix.PrefixSum2D` with

* rectangle loads in O(log nnz) per touched row (two ``searchsorted``
  probes against the monotone row-major key array per row, one prefix
  subtraction), O(1) for full-width/full-height rectangles via the
  marginals; :meth:`~SparsePrefix2D.rect_loads` batches the probes of
  many rectangles into one vectorized pass;
* row-band projections and frontier windows as differences of two Γ
  rows, O(n2); a row is built on demand (:meth:`_row`) from the nearest
  built row by scattering only the nonzeros between the two.  Column
  bands the same way on the transpose's rows when the
  transpose is pinned (a large instance pins it on its first column band
  or -VER solve, any instance in a sweep), and otherwise by two searches
  over all of ``keys`` per row, O(n1 log nnz);
* all arithmetic exact ``int64`` — the bit-identity contract with the
  dense substrate holds on every solver family, which the differential
  matrix (``tests/test_backend_equality.py``) enforces.

It has one constructor, ``SparsePrefix2D(A)`` over a dense load matrix,
and digests through :meth:`~SparsePrefix2D.cells_dense` like the dense
substrate.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..perf.cache import LRUCache
from ..perf.counters import _STACK as _OPS
from ..perf.counters import bump
from ..sweep.state import sweep_active
from .errors import ParameterError
from .prefix import (
    _checked_max,
    _Ints,
    _ProjectionMemo,
    _window_offsets,
    as_load_matrix,
)

__all__ = ["SparsePrefix2D"]


#: cells per block of the dense-to-CSR nonzero scan, and (rectangle, row)
#: pairs per block of :meth:`SparsePrefix2D.rect_loads`.  The scan's boolean
#: mask (256 KiB) stays in cache, and a full n1·n2 mask would be an extra
#: temporary.  Scan time over 4096² SLAC / R-MAT / mesh on a 2-vCPU Xeon VM:
#: 2^16 → 29 / 22 / 19 ms, 2^18 → 29 / 23 / 19 ms, 2^20 → 30 / 27 / 18 ms,
#: one full mask → 35 / 23 / 17 ms; 2D ``np.nonzero`` took 96 / 70 / 67 ms
_NONZERO_BLOCK = 1 << 18


class SparsePrefix2D(_ProjectionMemo):
    """CSR substrate with exact int64 prefix queries over a sparse matrix.

    Storage (``nnz`` nonzeros over an ``n1 × n2`` matrix):

    ``indptr``
        length ``n1+1`` row pointers into ``cols``/``vals``.
    ``cols`` / ``vals``
        column index and (positive) load of each nonzero, row-major and
        column-sorted within each row.
    ``keys``
        ``row * n2 + col`` of each nonzero — globally strictly increasing,
        so a rectangle row-segment is one ``searchsorted`` window.
    ``csum``
        length ``nnz+1`` value prefix over ``vals``; the load of any key
        range ``[a, b)`` is ``csum[b] - csum[a]``.
    ``row_pref`` / ``col_pref``
        dense marginal prefixes (lengths ``n1+1`` / ``n2+1``): O(1)
        full-width and full-height loads, and free full-band projections.

    Total memory is O(nnz + n1 + n2) against the dense substrate's
    O(n1·n2), plus the Γ rows built on demand (in the projection memo).
    """

    __slots__ = (
        "indptr",
        "cols",
        "vals",
        "keys",
        "csum",
        "row_pref",
        "col_pref",
        "n1",
        "n2",
        "_cache",
        "_cache_default",
        "_max_el",
        "_min_el",
        "_T",
        "_built",
    )

    #: a band (two rows apart) costs 3.9 µs, a memo hit 0.9 µs: on 4096² SLAC
    #: a band memo would save a heuristic session ~0.2 ms for ~2 MiB
    _MEMO_BANDS = False

    def __init__(self, A: np.ndarray):
        A = as_load_matrix(A)
        flat = A.ravel()
        # the flat C-order indices of the nonzeros are the row-major keys,
        # already sorted; nonzero scans a boolean mask far faster than int64
        # values, and a block's mask stays cache-sized
        blocks = []
        for s in range(0, flat.size, _NONZERO_BLOCK):
            idx = np.flatnonzero(flat[s : s + _NONZERO_BLOCK] != 0)
            idx += s
            blocks.append(idx)
        keys = np.concatenate(blocks)
        vals = flat[keys]
        _checked_max(vals)
        self._init_sorted(keys, vals, (A.shape[0], A.shape[1]))

    def _init_sorted(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        col_pref: np.ndarray | None = None,
    ) -> None:
        """Wire all slots from strictly-increasing keys: rows, columns and
        row pointers follow from one division (no copies, O(nnz) derive).
        A caller that already knows the column marginal passes ``col_pref``."""
        n1, n2 = shape
        rows = keys // n2
        cols = keys - rows * n2
        counts = np.bincount(rows, minlength=n1)
        indptr = np.zeros(n1 + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr
        self.cols = cols
        self.vals = vals
        self.keys = keys
        csum = np.zeros(len(vals) + 1, dtype=np.int64)
        np.cumsum(vals, out=csum[1:])
        self.csum = csum
        self.row_pref = csum[indptr]  # fancy index: owns its memory
        if col_pref is None:
            col_pref = np.zeros(n2 + 1, dtype=np.int64)
            np.add.at(col_pref, cols + 1, vals)  # exact int64 (bincount would go float)
            np.cumsum(col_pref, out=col_pref)
        self.col_pref = col_pref
        self.n1 = n1
        self.n2 = n2
        self._cache: LRUCache | None = None
        self._cache_default: bool | None = None
        self._max_el: int | None = None
        self._min_el: int | None = None
        self._T: "SparsePrefix2D | None" = None
        self._built: list[int] = []  # ascending rows put in the memo

    # -- query surface (LoadView) ---------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``(n1, n2)`` of the underlying load matrix."""
        return (self.n1, self.n2)

    @property
    def total(self) -> int:
        """Total load of the matrix."""
        return int(self.csum[-1])

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) cells."""
        return len(self.vals)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the substrate (all seven arrays)."""
        return int(
            self.indptr.nbytes
            + self.cols.nbytes
            + self.vals.nbytes
            + self.keys.nbytes
            + self.csum.nbytes
            + self.row_pref.nbytes
            + self.col_pref.nbytes
        )

    def load(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Load of the half-open rectangle ``[r0, r1) × [c0, c1)``.

        O(1) for full-width/full-height rectangles (marginal prefixes),
        otherwise two binary searches per touched row against the windowed
        key segment plus one value-prefix subtraction per row.
        """
        if _OPS:
            bump("load_queries")
        if c0 == 0 and c1 == self.n2:
            return int(self.row_pref[r1] - self.row_pref[r0])
        if r0 == 0 and r1 == self.n1:
            return int(self.col_pref[c1] - self.col_pref[c0])
        s0 = int(self.indptr[r0])
        s1 = int(self.indptr[r1])
        if s0 == s1:
            return 0
        seg = self.keys[s0:s1]
        base = np.arange(r0, r1, dtype=np.int64) * self.n2
        a = np.searchsorted(seg, base + c0, side="left") + s0
        b = np.searchsorted(seg, base + c1, side="left") + s0
        return int((self.csum[b] - self.csum[a]).sum())

    def rect_loads(self, coords: np.ndarray) -> np.ndarray:
        """Loads of many rectangles at once (same layout as the dense twin).

        Full-width and full-height rectangles read the marginals.  Every
        other non-empty rectangle contributes one ``(rectangle, row)`` pair
        per row it spans: one ``searchsorted`` pass over all pairs finds
        each row segment's key window, and a segmented sum adds them up.
        Whole rectangles are processed in blocks, a new one every
        ``_NONZERO_BLOCK`` pairs, so the temporaries stay a few MiB however
        many rectangles there are.
        """
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 4)
        r0, r1, c0, c1 = coords.T
        out = np.zeros(len(coords), dtype=np.int64)
        full_w = (c0 == 0) & (c1 == self.n2)
        out[full_w] = self.row_pref[r1[full_w]] - self.row_pref[r0[full_w]]
        full_h = ~full_w & (r0 == 0) & (r1 == self.n1)
        out[full_h] = self.col_pref[c1[full_h]] - self.col_pref[c0[full_h]]
        rest = np.flatnonzero(~full_w & ~full_h & (r1 > r0) & (c1 > c0))
        if not len(rest):
            return out
        h = r1[rest] - r0[rest]
        first = np.cumsum(h) - h  # each rectangle's first pair
        starts = np.flatnonzero(np.diff(first // _NONZERO_BLOCK)) + 1
        for blk in np.split(np.arange(len(rest)), starts):
            idx = rest[blk]
            offs = first[blk] - first[blk[0]]
            # pair p of rectangle i covers row r0[i] + (p - offs[i])
            shift = np.repeat(r0[idx] - offs, h[blk])
            base = (np.arange(len(shift), dtype=np.int64) + shift) * self.n2
            a = np.searchsorted(self.keys, base + np.repeat(c0[idx], h[blk]), side="left")
            b = np.searchsorted(self.keys, base + np.repeat(c1[idx], h[blk]), side="left")
            # every segment is non-empty, so reduceat is the exact segment sum
            out[idx] = np.add.reduceat(self.csum[b] - self.csum[a], offs)
        return out

    def _row(self, r: int) -> np.ndarray:
        """Row ``r`` of this substrate's Γ (read-only): the column prefix of
        rows ``[0, r)``, built from the built row with the fewest nonzeros
        between the two, from below or above (exact: no value exceeds
        ``total``).  Rows 0 and ``n1`` are free; an evicted row is rebuilt.
        """
        if r == 0:
            return np.zeros(self.n2 + 1, dtype=np.int64)
        if r == self.n1:
            return self.col_pref
        cache = self.projection_cache()
        row = cache.get(("row", r))
        if row is not None:
            return row  # type: ignore[return-value]
        # the nearest built rows below and above; evicted ones leave the list
        built = self._built
        i = bisect_left(built, r)
        while i and ("row", built[i - 1]) not in cache:
            i -= 1
            del built[i]
        while i < len(built) and ("row", built[i]) not in cache:
            del built[i]
        lo = built[i - 1] if i else 0
        hi = built[i] if i < len(built) else self.n1
        s0, s, s1 = (int(self.indptr[x]) for x in (lo, r, hi))
        a, b = (s0, s) if s - s0 <= s1 - s else (s, s1)
        row = np.zeros(self.n2 + 1, dtype=np.int64)
        np.add.at(row, self.cols[a:b] + 1, self.vals[a:b])  # only those nonzeros
        np.cumsum(row, out=row)
        if a == s0:
            row += self._row(lo)
        else:
            np.subtract(self._row(hi), row, out=row)
        row.flags.writeable = False
        cache.put(("row", r), row)
        built.insert(i, r)
        return row

    def _axis_prefix_ref(self, axis: int, lo: int, hi: int | None) -> np.ndarray:
        if axis == 0:
            hi = self.n2 if hi is None else hi
            if lo == 0 and hi == self.n2:
                # full band: a copy of the row marginal, never the array
                return self.row_pref.copy()
            if self._T is not None or self._reuse_default():
                # the pinned transpose's row band, not two searches a row.
                # A large instance pins it on its first column band
                return self.transpose()._axis_prefix_ref(1, lo, hi)
            out = np.zeros(self.n1 + 1, dtype=np.int64)
            base = np.arange(self.n1, dtype=np.int64) * self.n2
            a = np.searchsorted(self.keys, base + lo, side="left")
            b = np.searchsorted(self.keys, base + hi, side="left")
            np.cumsum(self.csum[b] - self.csum[a], out=out[1:])
            return out
        elif axis == 1:
            hi = self.n1 if hi is None else hi
            return self._row(hi) - self._row(lo)
        raise ParameterError(f"axis must be 0 or 1, got {axis}")

    def band_windows(
        self, axes: _Ints, lo: _Ints, hi: _Ints, j0: _Ints, j1: _Ints
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`PrefixSum2D.band_windows` from the Γ rows of this substrate
        (axis 1) or its transpose (axis 0), the missing ones built in
        ascending order: a batch scatters each nonzero at most once an axis.
        """
        offs = _window_offsets(j0, j1)
        out = np.empty(int(offs[-1]), dtype=np.int64)
        for ax in (0, 1):
            ks = [k for k, a in enumerate(axes) if a == ax]
            if not ks:
                continue
            E = self.transpose() if ax == 0 else self
            rows = {r: E._row(r) for r in sorted({lo[k] for k in ks} | {hi[k] for k in ks})}
            for k in ks:
                x, y = j0[k], j1[k] + 1
                np.subtract(rows[hi[k]][x:y], rows[lo[k]][x:y], out=out[offs[k] : offs[k + 1]])
        return out, offs

    def max_element(self) -> int:
        """Largest single cell load (lower bound ``max A[x][y]`` of §2.1)."""
        if self._max_el is None:
            self._max_el = int(self.vals.max()) if len(self.vals) else 0
        return self._max_el

    def min_element(self) -> int:
        """Smallest single cell load — 0 whenever any cell is unstored."""
        if self._min_el is None:
            if len(self.vals) < self.n1 * self.n2:
                self._min_el = 0
            else:
                self._min_el = int(self.vals.min())
        return self._min_el

    def cells_dense(self) -> np.ndarray:
        """The load matrix ``A`` densified — O(n1·n2) memory, use sparingly."""
        A = np.zeros((self.n1, self.n2), dtype=np.int64)
        A[self.keys // self.n2, self.cols] = self.vals
        return A

    def transpose(self) -> "SparsePrefix2D":
        """CSR substrate of the transposed matrix (for -VER variants).

        Mirrors the dense twin's adaptive caching: large instances (or any
        instance during a sweep — warm-start facts key on object identity)
        pin the transposed substrate and back-link it so
        ``pref.transpose().transpose() is pref``.
        """
        if self._T is not None:
            return self._T
        T = self._transpose_new()
        if self._reuse_default() or sweep_active():
            T._T, self._T = self, T
        return T

    def _transpose_new(self) -> "SparsePrefix2D":
        """The transpose: a stable sort by column leaves the row-major
        nonzeros in the transpose's row-major order.  Up to 2^16 columns
        the index sorts as ``uint16``, which NumPy sorts by radix."""
        by_col = self.cols.astype(np.uint16) if self.n2 <= 1 << 16 else self.cols
        order = np.argsort(by_col, kind="stable")
        rows = np.repeat(np.arange(self.n1, dtype=np.int64), np.diff(self.indptr))
        tkeys = self.cols[order] * self.n1 + rows[order]
        T = SparsePrefix2D.__new__(SparsePrefix2D)
        T._init_sorted(tkeys, self.vals[order], (self.n2, self.n1), self.row_pref)
        T._cache_default = self._cache_default  # same n1·n2 cell count
        T._max_el = self._max_el  # same multiset of cell loads
        T._min_el = self._min_el
        return T
