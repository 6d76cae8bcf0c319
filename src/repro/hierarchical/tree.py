"""Binary-tree representation of hierarchical bipartitions (paper §3.3).

"Such partitions can be represented by a binary tree for easy indexing" —
the tree is kept on the partition's metadata and powers an O(depth)
cell→processor indexer.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..core.partition import Partition
from ..core.prefix import LoadView

__all__ = ["HierTree", "tree_to_partition", "grow_tree", "choose_level"]


class HierTree:
    """A bipartition tree as parallel per-node lists; node 0 is the root.

    Node ``k`` covers ``[r0[k], r1[k]) × [c0[k], c1[k])`` with ``procs[k]``
    processors.  An internal node records its cut dimension ``dim[k]``
    (0 = rows), the absolute cut coordinate ``cut[k]`` and its children
    ``left[k]`` and ``left[k] + 1``; a leaf has ``dim``, ``cut`` and
    ``left`` -1.  :func:`tree_to_partition` numbers the leaves into
    ``proc`` (-1 on internal nodes).
    """

    __slots__ = ("r0", "r1", "c0", "c1", "procs", "dim", "cut", "left", "proc")

    def __init__(self, n1: int, n2: int, m: int):
        self.r0, self.r1, self.c0, self.c1, self.procs = [0], [n1], [0], [n2], [m]
        self.dim, self.cut, self.left, self.proc = [-1], [-1], [-1], []

    def split(self, k: int, dim: int, cut: int, procs_left: int) -> int:
        """Cut leaf ``k`` at ``cut`` along ``dim``; append both children and
        return the left one's index (the right one follows it)."""
        a = len(self.procs)
        self.dim[k], self.cut[k], self.left[k] = dim, cut, a
        r0, r1, c0, c1 = self.r0[k], self.r1[k], self.c0[k], self.c1[k]
        self.r0 += (r0, r0 if dim else cut)
        self.r1 += (r1 if dim else cut, r1)
        self.c0 += (c0, cut if dim else c0)
        self.c1 += (cut if dim else c1, c1)
        self.procs += (procs_left, self.procs[k] - procs_left)
        self.dim += (-1, -1)
        self.cut += (-1, -1)
        self.left += (-1, -1)
        return a

    def leaves(self) -> list[int]:
        """Leaf node indices left to right (processor order); iterative."""
        left, out, stack = self.left, [], [0]
        while stack:
            k = stack.pop()
            a = left[k]
            if a < 0:
                out.append(k)
            else:
                stack += (a + 1, a)
        return out

    def depth(self) -> int:
        """Height of the tree (a lone root = 0); iterative."""
        left, level, d = self.left, [0], -1
        while level:
            d += 1
            level = [c for k in level if left[k] >= 0 for c in (left[k], left[k] + 1)]
        return d

    def locate(self, i: int, j: int) -> int:
        """Processor owning cell ``(i, j)`` — descend the tree."""
        k, left, dim, cut = 0, self.left, self.dim, self.cut
        while left[k] >= 0:
            k = left[k] + ((i if dim[k] == 0 else j) >= cut[k])
        return self.proc[k]


def grow_tree(pref: LoadView, m: int, chooser) -> HierTree:
    """Grow a bipartition tree level by level (no recursion limit).

    The nodes of one level are independent (§3.3), so each round hands the
    level's splittable nodes to ``chooser(pref, r0, r1, c0, c1, procs,
    depth)`` as parallel int sequences and gets back ``(dims, cuts,
    lefts)``: per node the cut dimension (-1 keeps it a leaf), the absolute
    cut coordinate and the left child's processor count.
    """
    tree = HierTree(pref.n1, pref.n2, m)
    r0, r1, c0, c1, procs = tree.r0, tree.r1, tree.c0, tree.c1, tree.procs
    frontier = [0]
    depth = 0
    while frontier:
        live = [k for k in frontier if procs[k] > 1 and (r1[k] - r0[k]) * (c1[k] - c0[k]) > 1]
        if not live:
            break
        cols = ([col[k] for k in live] for col in (r0, r1, c0, c1, procs))
        dims, cuts, lefts = chooser(pref, *cols, depth)
        frontier = []
        for k, dim, cut, wl in zip(live, dims, cuts, lefts):
            if dim >= 0:
                a = tree.split(k, dim, cut, wl)
                frontier += (a, a + 1)
        depth += 1
    return tree


def choose_level(
    pref: LoadView,
    variant: str,
    depth: int,
    coords: tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]],
    evaluate: Callable[[list[int], Any, Any], list[Any]],
    value: Callable[[Any], Any],
) -> tuple[list[int], list[int], list[Any]]:
    """Cut of every node of one level: ``(dims, cuts, facts)``, dim -1 for none.

    ``variant`` picks the dimensions a node tries (§4.1): ``load`` both,
    ``dist`` the longer side, ``hor``/``ver`` alternate by level starting
    with rows/columns; a node whose preferred dimension cannot be cut falls
    back to the other.  A (node, dim) fact is the kernel's answer on that
    window, and all windows of a phase are decided by one
    ``evaluate(nodes, vals, offs)`` call.  A node takes the first candidate
    with the least ``value(fact)``; ``cuts`` are absolute.
    """
    r0, r1, c0, c1 = coords
    K = len(r0)
    every = list(range(K))
    if variant == "load":
        prefer = None
        phase = (every, every)  # nodes tried on dim 0, on dim 1
    else:
        if variant == "dist":
            prefer = [int(y1 - y0 < x1 - x0) for y0, y1, x0, x1 in zip(*coords)]
        else:
            prefer = [(depth + (variant == "ver")) % 2] * K
        phase = ([k for k in every if not prefer[k]], [k for k in every if prefer[k]])
    best: list[Any] = [None] * K
    while True:
        for d, ks, facts in zip((0, 1), phase, _facts(pref, phase, coords, evaluate)):
            for k, f in zip(ks, facts):
                if f is not None and (best[k] is None or value(f) < best[k][0]):
                    best[k] = (value(f), d, f)
        if prefer is None:
            break
        rest = [k for k in every if best[k] is None]
        if not rest:
            break
        # the fallback phase: each node's other dimension
        phase = ([k for k in rest if prefer[k]], [k for k in rest if not prefer[k]])
        prefer = None
    dims, cuts, out = [-1] * K, [-1] * K, [None] * K
    for k, b in enumerate(best):
        if b is not None:
            _, dims[k], out[k] = b
            cuts[k] = (r0, c0)[dims[k]][k] + out[k][0]
    return dims, cuts, out


def _facts(pref, phase, coords, evaluate) -> tuple[list[Any], list[Any]]:
    """Facts of the dim-0 and dim-1 windows of a phase's nodes, from one
    ``evaluate`` call on all their windows."""
    r0, r1, c0, c1 = coords
    s0, s1 = phase
    if not s0 and not s1:
        return [], []
    # dim 0 cuts rows: its windows run down the column band [c0, c1)
    vals, offs = pref.band_windows(
        [0] * len(s0) + [1] * len(s1),
        [c0[k] for k in s0] + [r0[k] for k in s1],
        [c1[k] for k in s0] + [r1[k] for k in s1],
        [r0[k] for k in s0] + [c0[k] for k in s1],
        [r1[k] for k in s0] + [c1[k] for k in s1],
    )
    found = evaluate(s0 + s1, vals, offs)
    return found[: len(s0)], found[len(s0) :]


def tree_to_partition(
    tree: HierTree, pref: LoadView, method: str, m: int
) -> Partition:
    """Number the leaves, gather their bounds, attach the tree indexer."""
    order = tree.leaves()
    tree.proc = proc = [-1] * len(tree.procs)
    for p, k in enumerate(order):
        proc[k] = p
    bounds = np.array((tree.r0, tree.r1, tree.c0, tree.c1), dtype=np.int64)
    # idle processors (splits that could not proceed) stay zero rows
    coords = np.zeros((m, 4), dtype=np.int64)
    coords[: len(order)] = bounds[:, order].T
    return Partition(
        coords,
        pref.shape,
        method=method,
        indexer=tree.locate,
        meta={"tree": tree},
    )
