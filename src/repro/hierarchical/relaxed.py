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

from ..core.errors import check_choice, check_count
from ..core.partition import Partition
from ..core.prefix import LoadView, MatrixLike, prefix_2d
from ..perf.kernels import relaxed_splits
from .rb import HIER_VARIANTS
from .tree import choose_level, grow_tree, tree_to_partition

__all__ = ["hier_relaxed"]


def _relaxed_chooser(variant: str):
    def choose(pref: LoadView, r0, r1, c0, c1, procs, depth: int):
        def evaluate(nodes: list[int], vals, offs) -> list:
            return relaxed_splits(vals, offs, [procs[k] for k in nodes])

        dims, cuts, facts = choose_level(
            pref, variant, depth, (r0, r1, c0, c1), evaluate, itemgetter(2)
        )
        return dims, cuts, [0 if f is None else f[1] for f in facts]

    return choose


def hier_relaxed(A: MatrixLike, m: int, variant: str = "load") -> Partition:
    """HIER-RELAXED partition of ``A`` into ``m`` rectangles.

    ``variant`` ∈ ``{"load", "dist", "hor", "ver"}``; the paper selects
    ``load`` as the reference HIER-RELAXED (§4.2).
    """
    m, variant = check_count(m, "m"), check_choice(variant, "variant", HIER_VARIANTS)
    pref = prefix_2d(A)
    tree = grow_tree(pref, m, _relaxed_chooser(variant))
    return tree_to_partition(tree, pref, f"HIER-RELAXED-{variant.upper()}", m)
