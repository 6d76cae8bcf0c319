"""JAG-PQ-HEUR: the classical P×Q-way jagged heuristic (paper §3.2.1).

"Use a 1D partitioning algorithm to partition the main dimension and then
partition each interval independently": the load matrix is projected onto
the main dimension (for free, via prefix differences), an optimal 1D
algorithm produces the ``P`` stripes, and each stripe's projection onto the
auxiliary dimension is partitioned optimally into ``Q`` rectangles.

Approximation guarantee (Theorem 1): with no zero in the matrix the result
is within ``(1 + Δ·P/n1)(1 + Δ·Q/n2)`` of optimal, minimized at
``P = √(m·n1/n2)`` (Theorem 2) — tested in ``tests/test_theory.py``.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import PrefixSum2D
from ..oned.bisect import partition_bisect
from .common import build_jagged_partition, choose_pq, oriented

__all__ = ["jag_pq_heur", "jag_pq_heur_cuts"]


def jag_pq_heur_cuts(pref: PrefixSum2D, P: int, Q: int) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Stripe cuts, per-stripe column cuts and Lmax of the P×Q-way jagged heuristic.

    Main dimension is dimension 0.  Once the stripe cuts are fixed the per-
    stripe solves are independent (§3.2.1).  Lmax is the largest of the
    stripes' 1D bottlenecks.
    """
    if P <= 0 or Q <= 0:
        raise ParameterError("P and Q must be positive")
    rows = pref.axis_prefix(0)  # projection on the main dimension
    _, stripe_cuts = partition_bisect(rows, P)
    col_cuts = []
    lmax = 0
    for s in range(P):
        # full-width stripe projection: served by the memoized axis_prefix
        band = pref.axis_prefix(1, int(stripe_cuts[s]), int(stripe_cuts[s + 1]))
        b, cc = partition_bisect(band, Q)
        lmax = max(lmax, int(b))
        col_cuts.append(cc)
    return stripe_cuts, col_cuts, lmax


def _jag_pq_heur_main0(
    pref: PrefixSum2D,
    m: int,
    P: int | None = None,
    Q: int | None = None,
) -> Partition:
    """P×Q-way jagged heuristic (§3.2.1) on main dimension 0 (see module docstring)."""
    if P is None or Q is None:
        P, Q = choose_pq(m, pref.n1, pref.n2)
    elif P * Q != m:
        raise ParameterError(f"P*Q must equal m ({P}*{Q} != {m})")
    stripe_cuts, col_cuts, lmax = jag_pq_heur_cuts(pref, P, Q)
    return build_jagged_partition(
        pref, stripe_cuts, col_cuts, method="JAG-PQ-HEUR", lmax=lmax
    )


jag_pq_heur = oriented(_jag_pq_heur_main0)
jag_pq_heur.__name__ = "jag_pq_heur"
