"""HIER-RELAXED: the paper's new hierarchical heuristic (§3.3).

Extracted from the optimal hierarchical dynamic program: at every node the
algorithm picks the cut position *and* the processor split ``j`` that
optimize the DP equation, but replaces the recursive ``Lmax`` calls with the
average load ``L/j`` of each side.  Each side is then partitioned
recursively.  Complexity ``O(m² log max(n1, n2))`` in the paper; here the
inner (cut, j) optimization is vectorized — for fixed ``j`` the optimal cut
straddles the balance point, so one segmented ``searchsorted`` evaluates
every split of every node of a tree level at once (see DESIGN.md §6).

Variants mirror HIER-RB: ``load`` (choose the better dimension — the
paper's reference variant), ``dist``, ``hor``, ``ver``.
"""

from __future__ import annotations

from operator import itemgetter

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import LoadView, MatrixLike, prefix_2d
from ..perf.kernels import relaxed_splits
from ..sweep.state import current as _sweep_current
from .rb import HIER_VARIANTS
from .tree import choose_level, grow_tree, tree_to_partition

__all__ = ["hier_relaxed"]


def _relaxed_chooser(variant: str):
    def choose(pref: LoadView, r0, r1, c0, c1, procs, depth: int):
        def evaluate(nodes: list[int], vals, offs) -> list:
            return relaxed_splits(vals, offs, [procs[k] for k in nodes])

        # sweep contexts memoize per (sub-rectangle, dim, m): unlike RB the
        # split depends on the full m (float averages L/j), so facts only
        # replay at the same node processor count — still a hit whenever
        # variants share subtrees or the same m recurs across cells
        extra = [(m,) for m in procs]
        dims, cuts, facts = choose_level(
            pref, variant, depth, (r0, r1, c0, c1), "relaxed", extra, evaluate, itemgetter(2)
        )
        return dims, cuts, [0 if f is None else f[1] for f in facts]

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
    tree = grow_tree(pref, m, _relaxed_chooser(variant))
    part = tree_to_partition(tree, pref, f"HIER-RELAXED-{variant.upper()}", m)
    state = _sweep_current()
    if state is not None:
        # achieved max load = feasible class witness (persisted and
        # scale-transferred by the disk store), scoped by variant
        state.record_ub(
            pref, "hier_relaxed", (m,), part.max_load(pref), kw={"variant": variant}
        )
    return part
