"""Shared rectilinear helpers: partition assembly and grid bottleneck."""

from __future__ import annotations

import numpy as np

from ..core.partition import Partition
from ..core.prefix import PrefixSum2D

__all__ = ["build_rectilinear_partition", "grid_bottleneck"]


def grid_bottleneck(
    pref: PrefixSum2D, row_cuts: np.ndarray, col_cuts: np.ndarray
) -> int:
    """Max block load of the ``P×Q`` grid — fully vectorized over blocks."""
    G = getattr(pref, "G", None)
    if G is not None:
        sub = G[np.ix_(row_cuts, col_cuts)]
        blocks = sub[1:, 1:] - sub[:-1, 1:] - sub[1:, :-1] + sub[:-1, :-1]
        return int(blocks.max()) if blocks.size else 0
    # sparse substrate: one stripe projection per row band, gathered at the
    # column cuts — touches only the nnz inside each stripe
    cuts = np.asarray(col_cuts, dtype=np.int64)
    best = 0
    for p in range(len(row_cuts) - 1):
        band = pref.axis_prefix(1, int(row_cuts[p]), int(row_cuts[p + 1]))
        at_cuts = band[cuts]
        blocks = at_cuts[1:] - at_cuts[:-1]
        if blocks.size:
            best = max(best, int(blocks.max()))
    return best


def build_rectilinear_partition(
    pref: PrefixSum2D,
    row_cuts: np.ndarray,
    col_cuts: np.ndarray,
    *,
    method: str = "",
) -> Partition:
    """Assemble a partition from grid cuts, with a two-binary-search indexer."""
    row_cuts = np.asarray(row_cuts, dtype=np.int64)
    col_cuts = np.asarray(col_cuts, dtype=np.int64)
    P = len(row_cuts) - 1
    Q = len(col_cuts) - 1
    # processor p·Q + q owns row band p × column band q
    coords = np.empty((P * Q, 4), dtype=np.int64)
    coords[:, 0] = np.repeat(row_cuts[:-1], Q)
    coords[:, 1] = np.repeat(row_cuts[1:], Q)
    coords[:, 2] = np.tile(col_cuts[:-1], P)
    coords[:, 3] = np.tile(col_cuts[1:], P)

    def indexer(i: int, j: int) -> int:
        # the last cut at or before the cell: empty bands are skipped
        p = int(row_cuts.searchsorted(i, side="right")) - 1
        return p * Q + int(col_cuts.searchsorted(j, side="right")) - 1

    return Partition(
        coords,
        pref.shape,
        method=method,
        indexer=indexer,
        meta={"row_cuts": row_cuts, "col_cuts": col_cuts},
    )
