"""m-way jagged partitioning onto processors with heterogeneous speeds.

Extension of JAG-M-HEUR along the axis opened by the paper's related work
(§1, ref [7]): processors have relative speeds ``s_p`` and the objective is
the makespan ``max_p load_p / s_p``.

The construction mirrors JAG-M-HEUR three levels down:

1. processors are packed into ``P`` *speed groups* of near-equal aggregate
   speed (longest-processing-time greedy);
2. the main dimension is cut into ``P`` stripes by the ordered heterogeneous
   1D algorithm, with each group acting as one super-processor of speed
   ``Σ s``;
3. each stripe's auxiliary dimension is cut for its group's processors by
   the ordered heterogeneous 1D algorithm.

With identical speeds this degenerates to JAG-M-HEUR with an equal split.

Like :mod:`repro.oned.hetero`, speeds are real-valued by definition, so the
speed-normalized objective is inherently fractional — an RPL003 exemption
(rectangle loads themselves remain exact int64 prefix queries).
"""
# repro-lint: disable-file=RPL003 — heterogeneous speeds make times fractional by design

from __future__ import annotations

import heapq

import numpy as np

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import MatrixLike, prefix_2d
from ..oned.hetero import hetero_cuts, hetero_makespan
from .common import build_jagged_partition, default_stripe_count

__all__ = ["jag_hetero", "speed_groups", "hetero_makespan_2d"]


def speed_groups(speeds: np.ndarray, P: int) -> list[list[int]]:
    """Pack processor indices into ``P`` groups of near-equal total speed.

    Longest-processing-time greedy: descending speeds into the currently
    lightest group — the classical 4/3-approximation for makespan packing.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if P <= 0 or P > len(speeds):
        raise ParameterError(f"need 1 <= P <= m, got P={P}, m={len(speeds)}")
    heap = [(0.0, g) for g in range(P)]
    heapq.heapify(heap)
    groups: list[list[int]] = [[] for _ in range(P)]
    for idx in np.argsort(-speeds):
        total, g = heapq.heappop(heap)
        groups[g].append(int(idx))
        heapq.heappush(heap, (total + float(speeds[idx]), g))
    return [g for g in groups if g]


def jag_hetero(
    A: MatrixLike,
    speeds,
    *,
    num_stripes: int | None = None,
) -> Partition:
    """Heterogeneous m-way jagged partition; rect ``i`` belongs to processor ``i``.

    ``speeds[i]`` is processor ``i``'s relative speed; the partition's
    ``meta["makespan"]`` records ``max_i load_i / speeds_i``.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.ndim != 1 or len(speeds) == 0 or (speeds <= 0).any():
        raise ParameterError("speeds must be a non-empty positive 1D array")
    m = len(speeds)
    pref = prefix_2d(A)
    P = num_stripes if num_stripes is not None else default_stripe_count(m, pref.n1)
    P = max(1, min(P, pref.n1, m))
    groups = speed_groups(speeds, P)
    # speeds are a small per-processor array, not the load matrix: prefix
    # sums do not apply to a fancy-indexed group sum
    group_speed = np.array([float(speeds[g].sum()) for g in groups])  # repro-lint: disable=RPL001
    rows = pref.axis_prefix(0)
    # stripes for the super-processors (ordered by group index)
    T = hetero_makespan(rows, group_speed)
    stripe_cuts = hetero_cuts(rows, group_speed, T * (1 + 1e-12) + 1e-9)
    assert stripe_cuts is not None
    order: list[int] = [i for g in groups for i in g]
    col_cuts = []
    for s, g in enumerate(groups):
        # full-width stripe projection: served by the memoized axis_prefix
        band = pref.axis_prefix(1, int(stripe_cuts[s]), int(stripe_cuts[s + 1]))
        gs = speeds[g]
        Ts = hetero_makespan(band, gs)
        cc = hetero_cuts(band, gs, Ts * (1 + 1e-12) + 1e-9)
        assert cc is not None
        col_cuts.append(cc)
    part = build_jagged_partition(pref, stripe_cuts, col_cuts, method="JAG-HETERO")
    # reorder rectangles so rect i belongs to processor i: rectangle k (in
    # stripe-major order) was produced for processor order[k]
    rows = part.coords()[np.argsort(order)]  # the inverse permutation
    out = Partition(rows, pref.shape, method="JAG-HETERO", meta=dict(part.meta))
    out.meta["groups"] = groups
    out.meta["makespan"] = hetero_makespan_2d(out, pref, speeds)
    return out


def hetero_makespan_2d(part: Partition, A: MatrixLike, speeds) -> float:
    """Makespan ``max_i load_i / speeds_i`` of any partition."""
    speeds = np.asarray(speeds, dtype=np.float64)
    loads = part.loads(prefix_2d(A)).astype(np.float64)
    if len(loads) != len(speeds):
        raise ParameterError("speeds length must match processor count")
    return float(np.max(loads / speeds))
