"""RECT-UNIFORM: the naive rectilinear partition (paper §3.1).

Divides the first dimension into ``P`` and the second into ``Q`` intervals
of (near-)equal *size* — the MPI_Cart-style distribution that "balances the
area and not the load".  Serves as the reference baseline of the paper's
Figure 12.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError, check_count
from ..core.partition import Partition
from ..core.prefix import MatrixLike, prefix_2d
from ..jagged.common import choose_pq
from .common import build_rectilinear_partition

__all__ = ["rect_uniform", "uniform_cuts"]


def uniform_cuts(n: int, parts: int) -> np.ndarray:
    """Equal-size interval boundaries: ``round(k · n / parts)``."""
    return np.round(np.linspace(0, n, check_count(parts, "parts") + 1)).astype(np.int64)


def rect_uniform(
    A: MatrixLike, m: int, P: int | None = None, Q: int | None = None
) -> Partition:
    """Uniform ``P×Q`` rectilinear partition (§3.1; area-balanced, load-oblivious)."""
    m, pref = check_count(m, "m"), prefix_2d(A)
    if P is None or Q is None:
        P, Q = choose_pq(m, pref.n1, pref.n2)
    elif P * Q != m:
        raise ParameterError(f"P*Q must equal m ({P}*{Q} != {m})")
    row_cuts = uniform_cuts(pref.n1, P)
    col_cuts = uniform_cuts(pref.n2, Q)
    return build_rectilinear_partition(pref, row_cuts, col_cuts, method="RECT-UNIFORM")
