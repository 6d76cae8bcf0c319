"""HIER-RB: recursive bisection over the load matrix (paper §3.3, ref [21]).

The matrix is cut into two parts of approximately equal load; half the
processors go to each side, recursively.  With an odd processor count one
side receives ``⌊m/2⌋`` and the other ``⌊m/2⌋+1``, and "the cutting point is
selected so that the load per processor is minimized" — both orientations
are evaluated.

Four variants choose the cut dimension (§4.1):

* ``load`` — virtually try both dimensions, keep the best expected balance
  (the Vastenhouw–Bisseling rule [1]); the paper's overall best (§4.2).
* ``dist`` — cut the longer dimension.
* ``hor`` / ``ver`` — alternate dimensions level by level, starting with
  rows / columns.

Runs in ``O(m log max(n1, n2))``: one binary search per tree node, and one
``weighted_cut`` kernel call decides a whole tree level.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from ..core.errors import check_choice, check_count
from ..core.partition import Partition
from ..core.prefix import LoadView, MatrixLike, prefix_2d
from ..perf.kernels import weighted_cuts
from .tree import choose_level, grow_tree, tree_to_partition

__all__ = ["hier_rb", "HIER_VARIANTS"]

HIER_VARIANTS = ("load", "dist", "hor", "ver")


def _rb_chooser(variant: str):
    def choose(pref: LoadView, r0, r1, c0, c1, procs, depth: int):
        halves = [(m // 2, m - m // 2) for m in procs]
        # the cut decision only depends on the *ratio* m1:m2 — targets use
        # ``(c·a)//(c·b) = a//b`` and scores scale uniformly — so the cut
        # kernel searches with the gcd-reduced weights.  Every candidate in
        # a node shares the weight product, so the integer scores order
        # exactly like the Fractions ``max(L1/wl, L2/wr)``
        ratios = [(m1 // gcd(m1, m2), m2 // gcd(m1, m2)) for m1, m2 in halves]
        orients = [((g1, g2),) if g1 == g2 else ((g1, g2), (g2, g1)) for g1, g2 in ratios]

        def evaluate(nodes: list[int], vals, offs) -> list:
            found = weighted_cuts(vals, offs, [orients[k] for k in nodes])
            # fact: (cut_rel, value, index of the winning orientation)
            return [
                None if f is None else (f[0], f[1], 0 if f[2] == ratios[k][0] else 1)
                for k, f in zip(nodes, found)
            ]

        dims, cuts, facts = choose_level(
            pref, variant, depth, (r0, r1, c0, c1), evaluate, itemgetter(1)
        )
        lefts = [0 if f is None else h[f[2]] for f, h in zip(facts, halves)]
        return dims, cuts, lefts

    return choose


def hier_rb(A: MatrixLike, m: int, variant: str = "load") -> Partition:
    """Recursive-bisection partition of ``A`` into ``m`` rectangles.

    ``variant`` ∈ ``{"load", "dist", "hor", "ver"}`` picks the cut-dimension
    rule; the paper selects ``load`` as the reference HIER-RB (§4.2).
    """
    m, variant = check_count(m, "m"), check_choice(variant, "variant", HIER_VARIANTS)
    pref = prefix_2d(A)
    tree = grow_tree(pref, m, _rb_chooser(variant))
    return tree_to_partition(tree, pref, f"HIER-RB-{variant.upper()}", m)
