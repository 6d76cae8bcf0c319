"""Solution-quality metrics and bounds (paper Section 2.1, plus the
communication/migration measures motivating the paper's future work).

* ``Lavg``-based lower bound, max-element lower bound,
* the DirectCut upper bound ``L*max <= sum/m + max`` (Section 2.2),
* load imbalance ``Lmax/Lavg - 1``,
* communication volume (boundary-cell edges, the quantity rectangles
  implicitly minimize, Section 1),
* migration volume between two successive partitions (Section 5).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .prefix import MatrixLike, prefix_2d

if TYPE_CHECKING:
    from .partition import Partition

__all__ = [
    "lower_bound",
    "upper_bound",
    "load_imbalance",
    "exact_imbalance",
    "communication_volume",
    "max_boundary",
    "migration_volume",
]


def lower_bound(A: MatrixLike, m: int) -> int:
    """Lower bound on the optimal maximum load.

    ``L*max >= max(ceil(sum(A)/m), max(A))`` — both bounds of Section 2.1
    (with the ceiling valid because loads are integers).
    """
    pref = prefix_2d(A)
    return max(-(-pref.total // m), pref.max_element())


def upper_bound(A: MatrixLike, m: int) -> int:
    """Upper bound ``L*max <= sum(A)/m + max(A)`` from DirectCut (§2.2).

    The bound holds for the 1D problem on the flattened array, which is a
    relaxation-free feasible 2D solution only for row counts dividing nicely;
    we use it as the safe initial incumbent for bisection searches on single
    rows/stripes, and as the paper does, as a coarse optimum bracket.
    """
    pref = prefix_2d(A)
    return int(pref.total // m + pref.max_element() + 1)


def exact_imbalance(lmax: int, total: int, m: int) -> float:
    """Load imbalance ``Lmax / Lavg - 1`` from exact integer loads (Section 2.1).

    Evaluated as the rational ``(Lmax·m − total) / total`` with a single
    correctly rounded conversion to float: the naive ``Lmax / (total / m)``
    rounds twice and drifts once loads exceed 2^53.  Zero when there is no
    load or no processor.
    """
    if not total or not m:
        return 0.0
    return float(Fraction(int(lmax) * int(m) - int(total), int(total)))


def load_imbalance(A: MatrixLike, partition: Partition) -> float:
    """Load imbalance ``Lmax / Lavg - 1`` of a partition (Section 2.1)."""
    return partition.imbalance(A)


def communication_volume(partition: Partition) -> int:
    """Total number of grid edges crossing rectangle boundaries.

    Each cell communicates with its 4-neighbours (Section 1).  The sum of
    the rectangles' interior boundary lengths counts every crossing edge
    once from each side; the undirected count is half of it.
    """
    return int(_boundary_lengths(partition).sum()) // 2


def max_boundary(partition: Partition) -> int:
    """Largest per-processor boundary (a per-step communication bottleneck)."""
    return int(_boundary_lengths(partition).max(initial=0))


def _boundary_lengths(partition: Partition) -> np.ndarray:
    """Every rectangle's :meth:`~repro.core.rectangle.Rect.boundary_length`."""
    lo, hi = partition.coords()[:, 0::2], partition.coords()[:, 1::2]
    ext = hi - lo  # (height, width)
    # a row side is as long as the width, a column side as the height
    sides = (lo > 0).astype(np.int64) + (hi < partition.shape)
    return (sides * ext[:, ::-1]).sum(axis=1) * (ext > 0).all(axis=1)


def migration_volume(
    old: Partition, new: Partition, A: MatrixLike
) -> int:
    """Load that changes owner between two partitions of the same matrix.

    Computed exactly from rectangle intersections: processor ``i`` keeps the
    load of ``old[i] ∩ new[i]``; everything else migrates.  This is the data
    (re)migration cost of dynamic applications discussed in Section 5.

    ``A`` may be a raw matrix or any prebuilt
    :class:`~repro.core.prefix.LoadView` substrate — substrates are used
    as-is, never re-densified.  Both partitions must address the same
    processor set: a differing ``m`` raises :class:`ValueError` (owner
    identity is positional, so truncating to ``min(old.m, new.m)`` would
    silently misaccount the dropped processors' load; pad with empty
    rectangles — e.g. ``build_jagged_partition(..., pad_to=m)`` — to compare
    partitions produced for different processor counts).
    """
    if old.shape != new.shape:
        raise ValueError("partitions cover different matrices")
    if old.m != new.m:
        raise ValueError(
            f"partitions address different processor counts "
            f"(old.m={old.m}, new.m={new.m}); pad the smaller one with "
            f"empty rectangles to compare"
        )
    pref = prefix_2d(A)
    a, b = old.coords(), new.coords()
    lo, hi = np.maximum(a[:, 0::2], b[:, 0::2]), np.minimum(a[:, 1::2], b[:, 1::2])
    kept = (lo < hi).all(axis=1)  # processor i keeps old[i] ∩ new[i]
    inter = np.stack([lo[kept, 0], hi[kept, 0], lo[kept, 1], hi[kept, 1]], axis=1)
    return pref.total - sum(pref.rect_loads(inter).tolist())
