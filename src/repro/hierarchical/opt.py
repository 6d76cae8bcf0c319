"""HIER-OPT: the optimal hierarchical bipartition dynamic program (§3.3).

Evaluates ``Lmax(x1, x2, y1, y2, m)`` over every sub-rectangle and processor
split, exactly as Equations (1)–(5) of the paper.  For a fixed orientation
and processor split the two recursive terms are monotone in the cut (adding
cells never lowers a sub-problem's optimum), so the inner minimization over
the cut uses a binary search — the paper's
``O(n1² n2² m² log(max(n1, n2)))`` refinement.

Even so, the paper notes the complexity "is too high to be useful in
practice for real sized systems" and does not run it in the evaluation; we
implement it as a *test oracle* for HIER-RB/HIER-RELAXED (they can never
beat it; property-tested on small matrices) and guard against accidental
large runs.
"""

from __future__ import annotations

from ..core.errors import ParameterError, check_count
from ..core.partition import Partition
from ..core.prefix import MatrixLike, prefix_2d
from ..perf.counters import _STACK as _OPS
from ..perf.counters import bump
from .tree import HierTree, tree_to_partition

__all__ = ["hier_opt", "hier_opt_bottleneck"]

_INF = float("inf")


class _HierDP:
    def __init__(self, pref, m: int, limit: int):
        cost = pref.n1 * pref.n1 * pref.n2 * pref.n2 * m
        if cost > limit:
            raise ParameterError(
                f"instance too large for HIER-OPT (n1²·n2²·m = {cost} > {limit}); "
                "this DP is a small-instance oracle (paper §3.3)"
            )
        self.pref = pref
        self.m = m
        self._memo: dict = {}

    # value of the best cut at a fixed dim and processor split, by binary
    # search over the cut (both terms monotone in the cut position)
    def _best_cut(self, r0, r1, c0, c1, dim, j, m) -> tuple[int, int]:
        if _OPS:
            bump("cut_calls")
        if dim == 0:
            lo, hi = r0 + 1, r1 - 1
        else:
            lo, hi = c0 + 1, c1 - 1
        solve = self._solve

        def parts(x):
            if dim == 0:
                return solve(r0, x, c0, c1, j), solve(x, r1, c0, c1, m - j)
            return solve(r0, r1, c0, x, j), solve(r0, r1, x, c1, m - j)

        while lo < hi:
            mid = (lo + hi) // 2
            a, b = parts(mid)
            if a < b:
                lo = mid + 1
            elif a > b:
                hi = mid
            else:
                lo = hi = mid
        a, b = parts(lo)
        best_x, best_v = lo, max(a, b)
        # the discrete crossing can be off by one; check the neighbour
        if lo - 1 >= (r0 + 1 if dim == 0 else c0 + 1):
            a, b = parts(lo - 1)
            if max(a, b) < best_v:
                best_x, best_v = lo - 1, max(a, b)
        return best_x, best_v

    def _solve(self, r0, r1, c0, c1, m) -> int:
        key = (r0, r1, c0, c1, m)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if m == 1 or (r1 - r0) * (c1 - c0) <= 1:
            v = self.pref.load(r0, r1, c0, c1)
        else:
            v = None
            for j in range(1, m):
                if r1 - r0 >= 2:
                    _, val = self._best_cut(r0, r1, c0, c1, 0, j, m)
                    v = val if v is None else min(v, val)
                if c1 - c0 >= 2:
                    _, val = self._best_cut(r0, r1, c0, c1, 1, j, m)
                    v = val if v is None else min(v, val)
            if v is None:  # un-cuttable rectangle with several processors
                v = self.pref.load(r0, r1, c0, c1)
        self._memo[key] = v
        return v

    def run(self) -> int:
        return self._solve(0, self.pref.n1, 0, self.pref.n2, self.m)

    # ------------------------------------------------------------------
    def build_tree(self, tree: HierTree, k: int) -> None:
        """Split leaf ``k`` of ``tree`` as the DP's optimum does, recursively."""
        r0, r1, c0, c1, m = tree.r0[k], tree.r1[k], tree.c0[k], tree.c1[k], tree.procs[k]
        if m == 1 or (r1 - r0) * (c1 - c0) <= 1:
            return
        target = self._solve(r0, r1, c0, c1, m)
        for j in range(1, m):
            for dim in (0, 1):
                if (dim == 0 and r1 - r0 < 2) or (dim == 1 and c1 - c0 < 2):
                    continue
                x, val = self._best_cut(r0, r1, c0, c1, dim, j, m)
                if val == target:
                    a = tree.split(k, dim, x, j)
                    self.build_tree(tree, a)
                    self.build_tree(tree, a + 1)
                    return
        # un-cuttable: keep as leaf (idle processors)


def hier_opt_bottleneck(A: MatrixLike, m: int, *, limit: int = 1 << 24) -> int:
    """Optimal hierarchical bottleneck (small instances only)."""
    return _HierDP(prefix_2d(A), check_count(m, "m"), limit).run()


def hier_opt(A: MatrixLike, m: int, *, limit: int = 1 << 24) -> Partition:
    """Optimal hierarchical bipartition (paper §3.3; small instances only)."""
    m, pref = check_count(m, "m"), prefix_2d(A)
    tree = HierTree(pref.n1, pref.n2, m)
    _HierDP(pref, m, limit).build_tree(tree, 0)
    return tree_to_partition(tree, pref, "HIER-OPT", m)
