"""HIER-RELAXED: the paper's new hierarchical heuristic (§3.3).

Extracted from the optimal hierarchical dynamic program: at every node the
algorithm picks the cut position *and* the processor split ``j`` that
optimize the DP equation, but replaces the recursive ``Lmax`` calls with the
average load ``L/j`` of each side.  Each side is then partitioned
recursively.  Complexity ``O(m² log max(n1, n2))`` in the paper; here the
inner (cut, j) optimization is vectorized — for fixed ``j`` the optimal cut
straddles the balance point, so one ``searchsorted`` over all ``m-1``
targets evaluates every split at once (see DESIGN.md §6).

Variants mirror HIER-RB: ``load`` (choose the better dimension — the
paper's reference variant), ``dist``, ``hor``, ``ver``.
"""

from __future__ import annotations

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import MatrixLike, PrefixSum2D, prefix_2d
from ..core.rectangle import Rect
from ..sweep.state import current as _sweep_current
from .cuts import best_relaxed_split_win
from .rb import HIER_VARIANTS, _candidate_dims
from .tree import grow_tree, tree_to_partition

__all__ = ["hier_relaxed"]


def _relaxed_chooser(variant: str):
    def choose(pref: PrefixSum2D, rect: Rect, m: int, depth: int):
        best = None  # (value, dim, cut_abs, j)
        dims = _candidate_dims(variant, rect, depth)
        fallback = tuple(d for d in (0, 1) if d not in dims)
        # sweep contexts memoize per (sub-rectangle, dim, m): unlike RB the
        # split depends on the full m (float averages L/j), so facts only
        # replay at the same node processor count — still a hit whenever
        # variants share subtrees or the same m recurs across cells
        memo = None
        state = _sweep_current()
        if state is not None:
            memo = state.hier_memo(pref, "relaxed")
        for dim_set in (dims, fallback):
            for dim in dim_set:
                mkey = (rect.r0, rect.r1, rect.c0, rect.c1, dim, m)
                if memo is not None and mkey in memo:
                    found = memo[mkey]
                else:
                    # windowed split on the memoized un-rebased projection
                    # (bit-identical to rebasing first; see cuts.py)
                    if dim == 0:
                        p = pref.axis_prefix(0, rect.c0, rect.c1, reuse=True)
                        found = best_relaxed_split_win(p, rect.r0, rect.r1, m)
                    else:
                        p = pref.axis_prefix(1, rect.r0, rect.r1, reuse=True)
                        found = best_relaxed_split_win(p, rect.c0, rect.c1, m)
                    if memo is not None:
                        memo[mkey] = found
                if found is None:
                    continue
                cut_rel, j, value = found
                cut_abs = (rect.r0 if dim == 0 else rect.c0) + cut_rel
                if best is None or value < best[0]:
                    best = (value, dim, cut_abs, j)
            if best is not None:
                break  # only fall back when the preferred dims cannot be cut
        if best is None:
            return None
        _, dim, cut_abs, j = best
        return dim, cut_abs, j, m - j

    return choose


def hier_relaxed(A: MatrixLike, m: int, variant: str = "load") -> Partition:
    """HIER-RELAXED partition of ``A`` into ``m`` rectangles.

    ``variant`` ∈ ``{"load", "dist", "hor", "ver"}``; the paper selects
    ``load`` as the reference HIER-RELAXED (§4.2).
    """
    if m <= 0:
        raise ParameterError("m must be positive")
    variant = variant.lower()
    if variant not in HIER_VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}; choose from {HIER_VARIANTS}")
    pref = prefix_2d(A)
    root = grow_tree(pref, m, _relaxed_chooser(variant))
    part = tree_to_partition(root, pref, f"HIER-RELAXED-{variant.upper()}", m)
    state = _sweep_current()
    if state is not None:
        # achieved max load = feasible class witness (persisted and
        # scale-transferred by the disk store), scoped by variant
        state.record_mono_ub(
            pref, "hier_relaxed", m, part.max_load(pref), kw={"variant": variant}
        )
    return part
