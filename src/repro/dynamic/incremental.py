"""Migration-aware dynamic repartitioning (paper §5 future work).

The paper closes with: "we plan to investigate … taking into account data
migration costs in dynamic applications."  This module implements the
natural first answer for the jagged class:

:class:`IncrementalJagged` keeps the *stripe structure* of the previous
m-way jagged partition and only re-optimizes the per-stripe column cuts on
each new load matrix.  Because a processor's stripe (and its position inside
the stripe) is stable, most cells keep their owner; a full JAG-M-HEUR
repartition is triggered only when the achievable imbalance under the frozen
stripes drifts past a threshold over the best fresh partition.

This trades balance for migration:

* refine-only step — cheap (P optimal 1D calls), low migration;
* full repartition — the paper's JAG-M-HEUR, as balanced as Figure 8, but
  moving much more data.

The strategy plugs into :class:`repro.runtime.BSPSimulator` as its
``policy=``.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import MatrixLike, PrefixSum2D, prefix_2d
from ..jagged.common import build_jagged_partition
from ..jagged.m_heur import jag_m_heur
from ..oned.bisect import partition_bisect
from .policies import RepartitionPolicy, StepContext, drift_exceeds

__all__ = ["IncrementalJagged", "refine_jagged"]


def refine_jagged(previous: Partition, A: MatrixLike) -> Partition:
    """Re-optimize the column cuts of a jagged partition for a new matrix.

    The stripe cuts and per-stripe processor counts of ``previous`` are kept
    verbatim; each stripe's auxiliary dimension is re-partitioned optimally.
    ``previous`` must carry jagged metadata (``stripe_cuts``/``col_cuts``),
    i.e. come from a jagged algorithm or an earlier refinement.
    """
    if "stripe_cuts" not in previous.meta:
        raise ParameterError("previous partition is not jagged (no stripe_cuts meta)")
    pref = prefix_2d(A)
    transposed = bool(previous.meta.get("transposed", False))
    work = pref.transpose() if transposed else pref
    stripe_cuts = np.asarray(previous.meta["stripe_cuts"], dtype=np.int64)
    old_cols = previous.meta["col_cuts"]
    if int(stripe_cuts[-1]) != work.n1:
        raise ParameterError("previous partition does not match the matrix shape")
    col_cuts = []
    for s in range(len(stripe_cuts) - 1):
        q = len(old_cols[s]) - 1
        band = work.band_prefix(1, int(stripe_cuts[s]), int(stripe_cuts[s + 1]), 0, work.n2)
        _, cc = partition_bisect(band, q)
        col_cuts.append(cc)
    part = build_jagged_partition(
        work, stripe_cuts, col_cuts, method="JAG-M-REFINE", pad_to=previous.m
    )
    part.meta["transposed"] = transposed
    if transposed:
        out = part.transpose().with_method("JAG-M-REFINE")
        out.meta["transposed"] = True
        out.meta["stripe_cuts"] = stripe_cuts
        out.meta["col_cuts"] = col_cuts
        return out
    return part


class IncrementalJagged(RepartitionPolicy):
    """Stateful repartitioner: refine cheaply, rebuild only when drifted.

    Also a :class:`~repro.dynamic.policies.RepartitionPolicy`: it produces a
    (refined or rebuilt) partition on *every* snapshot, so plugged into
    :class:`repro.runtime.BSPSimulator` via ``policy=`` its
    ``should_repartition`` is always true and ``solve`` runs :meth:`step`.

    The full-vs-refine decision compares exact integer loads through
    :func:`~repro.dynamic.policies.drift_exceeds` — the earlier float form
    ``refined > (1.0 + threshold) * fresh`` double-rounds and flips
    decisions once loads near 2^62 (regression pinned in
    ``tests/test_dynamic.py``).

    Parameters
    ----------
    m:
        Number of processors.
    threshold:
        Relative drift tolerance: a full repartition happens when the
        refined partition's max load exceeds ``(1 + threshold)`` times the
        max load of a fresh JAG-M-HEUR partition.
    """

    def __init__(self, m: int, *, threshold: float = 0.10):
        if m <= 0:
            raise ParameterError("m must be positive")
        if threshold < 0:
            raise ParameterError("threshold must be non-negative")
        self.m = m
        self.threshold = threshold
        self.current: Partition | None = None
        self.full_repartitions = 0
        self.refinements = 0
        self.name = f"incremental-{threshold:g}"

    def _fresh(self, pref: PrefixSum2D) -> Partition:
        part = jag_m_heur(pref, self.m)
        # record orientation so refinements follow the same main dimension
        part.meta["transposed"] = part.meta.get("orientation") == "ver"
        return part

    def step(self, A: MatrixLike) -> Partition:
        """Produce the partition for the next load matrix."""
        pref = prefix_2d(A)
        if self.current is None:
            self.current = self._fresh(pref)
            self.full_repartitions += 1
            return self.current
        refined = refine_jagged(self.current, pref)
        fresh = self._fresh(pref)
        # exact rational comparison: the float form double-rounds near 2^62
        if drift_exceeds(
            refined.max_load(pref), fresh.max_load(pref), self.threshold
        ):
            self.current = fresh
            self.full_repartitions += 1
        else:
            self.current = refined
            self.refinements += 1
        return self.current

    # ------------------------------------------------------------------
    # RepartitionPolicy protocol
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop the held partition and counters (fresh simulated run)."""
        self.current = None
        self.full_repartitions = 0
        self.refinements = 0

    def should_repartition(self, ctx: StepContext) -> bool:
        return True  # every snapshot gets a refined (or rebuilt) partition

    def solve(self, partitioner, ctx: StepContext) -> Partition:
        if ctx.m != self.m:
            raise ParameterError(f"simulator m={ctx.m} != strategy m={self.m}")
        return self.step(ctx.pref)
