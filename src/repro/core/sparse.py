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
  marginals;
* stripe projections (:meth:`_axis_prefix_ref`) by scatter-add over only
  the nonzeros inside the stripe;
* all arithmetic exact ``int64`` — the bit-identity contract with the
  dense substrate holds on every solver family, which the
  ``tests/test_sparse_equality.py`` gate enforces.

:func:`auto_substrate` dispatches between the two substrates on the
``REPRO_SPARSE_THRESHOLD`` density knob (registered in
``repro.config.ENV_VARS``), with the reference (dense) twin always one
``else`` away, per the RPL009 dispatch contract.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..config import env_str
from ..perf.cache import LRUCache
from ..perf.config import perf_enabled
from ..perf.counters import _STACK as _OPS
from ..perf.counters import bump
from ..sweep.state import sweep_active
from .errors import ParameterError
from .prefix import (
    LoadView,
    PrefixSum2D,
    _as_int64,
    _checked_max,
    _ProjectionMemo,
    as_load_matrix,
)

__all__ = [
    "SparsePrefix2D",
    "auto_substrate",
    "sparse_enabled",
    "sparse_threshold",
    "substrate_from_triplets",
]


#: cells per block of the dense-to-CSR nonzero scan.  Its boolean mask
#: (256 KiB) stays in cache, and a full n1·n2 mask would be an extra
#: temporary.  Scan time over 4096² SLAC / R-MAT / mesh on a 2-vCPU Xeon VM:
#: 2^16 → 29 / 22 / 19 ms, 2^18 → 29 / 23 / 19 ms, 2^20 → 30 / 27 / 18 ms,
#: one full mask → 35 / 23 / 17 ms; 2D ``np.nonzero`` took 96 / 70 / 67 ms
_NONZERO_BLOCK = 1 << 18


def sparse_threshold() -> float:
    """Density (nnz/cells) at or below which :func:`auto_substrate` goes sparse.

    Parsed from ``REPRO_SPARSE_THRESHOLD`` on every call (the knob is a
    test/bench surface); an unparsable value falls back to the registered
    default rather than failing the solver path.
    """
    raw = env_str("REPRO_SPARSE_THRESHOLD")
    try:
        return float(raw)  # repro-lint: disable=RPL003 -- parses a config knob, not a load value
    except ValueError:
        return 0.25


def sparse_enabled() -> bool:
    """Whether the density dispatcher may pick the sparse substrate at all."""
    return sparse_threshold() > 0.0


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
    O(n1·n2).
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
        "__weakref__",
    )

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

    def _init_csr(
        self,
        indptr: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        keys: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        """Wire all slots from canonical CSR arrays (no copies, O(nnz) derive)."""
        n1, n2 = shape
        self.indptr = indptr
        self.cols = cols
        self.vals = vals
        self.keys = keys
        csum = np.zeros(len(vals) + 1, dtype=np.int64)
        np.cumsum(vals, out=csum[1:])
        self.csum = csum
        self.row_pref = csum[indptr]  # fancy index: owns its memory
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

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_triplets(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
    ) -> "SparsePrefix2D":
        """Build directly from COO triplets without densifying.

        Duplicate ``(row, col)`` entries are summed (the convention of every
        sparse-matrix assembly path); explicit zeros are dropped.  This is
        the O(nnz log nnz) entry point the ``large``-profile instance
        generators use — peak memory never touches O(n1·n2).
        """
        n1, n2 = int(shape[0]), int(shape[1])
        if n1 <= 0 or n2 <= 0:
            raise ParameterError(f"shape must be positive, got {(n1, n2)}")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals).ravel()
        if not (len(rows) == len(cols) == len(vals)):
            raise ParameterError("rows, cols and vals must have equal lengths")
        vals = _as_int64(vals, "triplet values")
        if len(rows) and (
            rows.min() < 0 or rows.max() >= n1 or cols.min() < 0 or cols.max() >= n2
        ):
            raise ParameterError("triplet indices out of bounds for shape")
        _checked_max(vals)  # before the duplicate sums below could wrap
        keys = rows * n2 + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = vals[order]
        if len(keys):
            first = np.empty(len(keys), dtype=bool)
            first[0] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            vals = np.add.reduceat(vals, starts)  # exact int64 duplicate collapse
            keys = keys[starts]
        nz = vals != 0
        return cls._from_sorted(keys[nz], vals[nz], (n1, n2))

    @classmethod
    def _from_sorted(
        cls, keys: np.ndarray, vals: np.ndarray, shape: tuple[int, int]
    ) -> "SparsePrefix2D":
        """From strictly-increasing keys and positive values (internal)."""
        self = cls.__new__(cls)
        self._init_sorted(keys, vals, shape)
        return self

    def _init_sorted(self, keys: np.ndarray, vals: np.ndarray, shape: tuple[int, int]) -> None:
        """Wire all slots from strictly-increasing keys: rows, columns and
        row pointers follow from one division."""
        n1, n2 = shape
        rows = keys // n2
        cols = keys - rows * n2
        counts = np.bincount(rows, minlength=n1)
        indptr = np.zeros(n1 + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._init_csr(indptr, cols, vals, keys, (n1, n2))

    @classmethod
    def _from_csr(
        cls,
        indptr: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
    ) -> "SparsePrefix2D":
        """From the three canonical CSR arrays — the shared-memory attach path.

        The arrays are adopted as-is (zero-copy views over shm buffers are
        fine: every query only reads them); the derived ``keys``/``csum``/
        marginal arrays are rebuilt locally in O(nnz).
        """
        n1, n2 = int(shape[0]), int(shape[1])
        counts = np.diff(indptr)
        keys = np.repeat(np.arange(n1, dtype=np.int64) * n2, counts) + cols
        self = cls.__new__(cls)
        self._init_csr(indptr, cols, vals, keys, (n1, n2))
        return self

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
    def density(self) -> float:
        """``nnz / (n1 * n2)`` — what the dispatch threshold compares against."""
        return len(self.vals) / (self.n1 * self.n2)

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

    def _load(self, r0: int, r1: int, c0: int, c1: int) -> int:
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

    def load(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Load of the half-open rectangle ``[r0, r1) × [c0, c1)``.

        O(1) for full-width/full-height rectangles (marginal prefixes),
        otherwise two binary searches per touched row against the windowed
        key segment plus one value-prefix subtraction per row.
        """
        if _OPS:
            bump("load_queries")
        return self._load(r0, r1, c0, c1)

    def rect_loads(self, coords: np.ndarray) -> np.ndarray:
        """Loads of many rectangles at once (same layout as the dense twin)."""
        out = np.empty(len(coords), dtype=np.int64)
        for i in range(len(coords)):
            r0, r1, c0, c1 = coords[i]
            out[i] = self._load(int(r0), int(r1), int(c0), int(c1))
        return out

    def _axis_prefix_ref(self, axis: int, lo: int, hi: int | None) -> np.ndarray:
        if axis == 0:
            hi = self.n2 if hi is None else hi
            if lo == 0 and hi == self.n2:
                # full band: the row marginal, copied so the memo's freeze
                # cannot reach the substrate's own array
                return self.row_pref.copy()
            out = np.zeros(self.n1 + 1, dtype=np.int64)
            base = np.arange(self.n1, dtype=np.int64) * self.n2
            a = np.searchsorted(self.keys, base + lo, side="left")
            b = np.searchsorted(self.keys, base + hi, side="left")
            np.cumsum(self.csum[b] - self.csum[a], out=out[1:])
            return out
        elif axis == 1:
            hi = self.n1 if hi is None else hi
            if lo == 0 and hi == self.n1:
                return self.col_pref.copy()
            out = np.zeros(self.n2 + 1, dtype=np.int64)
            s0 = int(self.indptr[lo])
            s1 = int(self.indptr[hi])
            # scatter-add over only the stripe's nonzeros, then prefix
            np.add.at(out, self.cols[s0:s1] + 1, self.vals[s0:s1])
            np.cumsum(out, out=out)
            return out
        raise ParameterError(f"axis must be 0 or 1, got {axis}")

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

        Mirrors the dense twin's adaptive caching: with the perf layer on,
        large instances (or any instance during a sweep — warm-start facts
        key on object identity) pin the transposed substrate and back-link
        it so ``pref.transpose().transpose() is pref``.
        """
        if perf_enabled():
            if self._T is None and (self._reuse_default() or sweep_active()):
                T = self._transpose_new()
                T._T = self
                self._T = T
            if self._T is not None:
                return self._T
        return self._transpose_new()

    def _transpose_new(self) -> "SparsePrefix2D":
        tkeys = self.cols * np.int64(self.n1) + self.keys // self.n2
        order = np.argsort(tkeys, kind="stable")
        T = SparsePrefix2D._from_sorted(tkeys[order], self.vals[order], (self.n2, self.n1))
        T._cache_default = self._cache_default  # same n1·n2 cell count
        T._max_el = self._max_el  # same multiset of cell loads
        T._min_el = self._min_el
        return T

    # -- digest ----------------------------------------------------------

    def matrix_digest(self) -> tuple[str, int]:
        """``(digest, scale)`` equal to the dense :func:`repro.sweep.store.matrix_digest`.

        Streams the logical dense matrix through sha256 in bounded row
        blocks (~4 MiB of int64 at a time), so warm sweep/raw-store facts
        recorded against the dense substrate transfer to the sparse one and
        vice versa without ever materializing the full array.
        """
        nnz = len(self.vals)
        scale = int(np.gcd.reduce(self.vals)) if nnz else 1
        if scale <= 0:
            scale = 1
        h = hashlib.sha256()
        h.update(b"int64|")
        h.update(repr((self.n1, self.n2)).encode())
        h.update(b"|")
        block = max(1, (1 << 22) // max(1, 8 * self.n2))
        counts = np.diff(self.indptr)
        prim = self.vals // scale
        for r0 in range(0, self.n1, block):
            r1 = min(self.n1, r0 + block)
            s0 = int(self.indptr[r0])
            s1 = int(self.indptr[r1])
            buf = np.zeros((r1 - r0, self.n2), dtype=np.int64)
            local = np.repeat(np.arange(r1 - r0), counts[r0:r1])
            buf[local, self.cols[s0:s1]] = prim[s0:s1]
            h.update(buf.tobytes())
        return h.hexdigest(), scale


def auto_substrate(A: np.ndarray) -> LoadView:
    """Density-dispatched substrate for a raw load matrix.

    Sparse when the dispatcher is enabled and the density is at or below
    :func:`sparse_threshold`; the dense reference twin otherwise.  Both
    branches build from the same canonicalized matrix, and every query
    answers bit-identically (``tests/test_sparse_equality.py``).
    """
    A = as_load_matrix(A)
    nnz = int(np.count_nonzero(A))
    if sparse_enabled() and nnz <= sparse_threshold() * A.size:
        return SparsePrefix2D(A)
    else:
        return PrefixSum2D(A)


def substrate_from_triplets(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
) -> LoadView:
    """Density-dispatched substrate for a COO triplet stream.

    The sparse build happens first (O(nnz) memory); only when the dispatch
    resolves dense — disabled, or the instance too dense to profit — does
    the matrix densify.  Generators at the ``large`` profile therefore
    never allocate O(n1·n2) unless the data genuinely is dense.
    """
    n1, n2 = int(shape[0]), int(shape[1])
    sp = SparsePrefix2D.from_triplets(rows, cols, vals, shape)
    if sparse_enabled() and sp.nnz <= sparse_threshold() * (n1 * n2):
        return sp
    return PrefixSum2D(sp.cells_dense())
