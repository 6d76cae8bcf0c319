"""Binary-tree representation of hierarchical bipartitions (paper §3.3).

"Such partitions can be represented by a binary tree for easy indexing" —
the tree is kept on the partition's metadata and powers an O(depth)
cell→processor indexer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..core.partition import Partition
from ..core.prefix import LoadView
from ..core.rectangle import Rect
from ..sweep.state import current as _sweep_current

__all__ = ["HierNode", "tree_to_partition", "grow_tree", "choose_level"]


@dataclass
class HierNode:
    """A node of the bipartition tree.

    Leaves own a processor (``proc``); internal nodes record the cut
    dimension (0 = rows), the absolute cut coordinate, and the two children.
    ``procs`` is the number of processors in the subtree.
    """

    rect: Rect
    procs: int
    dim: int = -1
    cut: int = -1
    left: Optional["HierNode"] = None
    right: Optional["HierNode"] = None
    proc: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def locate(self, i: int, j: int) -> int:
        """Processor owning cell ``(i, j)`` — descend the tree."""
        node = self
        while not node.is_leaf:
            coord = i if node.dim == 0 else j
            node = node.left if coord < node.cut else node.right
            assert node is not None
        return node.proc

    def leaves(self):
        """Yield leaves left-to-right (processor order); iterative, any depth."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.append(node.right)
                stack.append(node.left)

    def depth(self) -> int:
        """Height of the subtree (leaf = 0); iterative, any depth."""
        best = 0
        stack = [(self, 0)]
        while stack:
            node, d = stack.pop()
            if node.is_leaf:
                best = max(best, d)
            else:
                stack.append((node.left, d + 1))
                stack.append((node.right, d + 1))
        return best


def grow_tree(pref: LoadView, m: int, chooser) -> HierNode:
    """Grow a bipartition tree level by level (no recursion limit).

    The nodes of one level are independent (§3.3), so each round hands the
    level's splittable nodes to ``chooser(pref, r0, r1, c0, c1, procs,
    depth)`` as parallel int sequences and gets back ``(dims, cuts,
    lefts)``: per node the cut dimension (-1 keeps it a leaf), the absolute
    cut coordinate and the left child's processor count.
    """
    root = HierNode(rect=Rect(0, pref.n1, 0, pref.n2), procs=m)
    frontier = [root]
    depth = 0
    while frontier:
        live = [nd for nd in frontier if nd.procs > 1 and nd.rect.area > 1]
        if not live:
            break
        r0, r1, c0, c1, procs = zip(
            *[(nd.rect.r0, nd.rect.r1, nd.rect.c0, nd.rect.c1, nd.procs) for nd in live]
        )
        dims, cuts, lefts = chooser(pref, r0, r1, c0, c1, procs, depth)
        frontier = []
        for node, dim, cut, wl in zip(live, dims, cuts, lefts):
            if dim < 0:
                continue
            r = node.rect
            if dim == 0:
                lrect = Rect(r.r0, cut, r.c0, r.c1)
                rrect = Rect(cut, r.r1, r.c0, r.c1)
            else:
                lrect = Rect(r.r0, r.r1, r.c0, cut)
                rrect = Rect(r.r0, r.r1, cut, r.c1)
            node.dim, node.cut = dim, cut
            node.left = HierNode(rect=lrect, procs=wl)
            node.right = HierNode(rect=rrect, procs=node.procs - wl)
            frontier += (node.left, node.right)
        depth += 1
    return root


def choose_level(
    pref: LoadView,
    variant: str,
    depth: int,
    coords: tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]],
    family: str,
    extra: list[tuple[int, ...]],
    evaluate: Callable[[list[int], Any, Any], list[Any]],
    value: Callable[[Any], Any],
) -> tuple[list[int], list[int], list[Any]]:
    """Cut of every node of one level: ``(dims, cuts, facts)``, dim -1 for none.

    ``variant`` picks the dimensions a node tries (§4.1): ``load`` both,
    ``dist`` the longer side, ``hor``/``ver`` alternate by level starting
    with rows/columns; a node whose preferred dimension cannot be cut falls
    back to the other.  A (node, dim) fact is the kernel's answer on that
    window: an active sweep's ``family`` memo holds it under the node's
    rectangle, the dim and ``extra[k]``, and all misses of a phase are
    decided by one ``evaluate(nodes, vals, offs)`` call on their windows.  A
    node takes the first candidate with the least ``value(fact)``; ``cuts``
    are absolute.
    """
    state = _sweep_current()
    memo = None if state is None else state.hier_memo(pref, family)
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
        for d, ks, facts in zip((0, 1), phase, _facts(pref, phase, coords, memo, extra, evaluate)):
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


def _facts(pref, phase, coords, memo, extra, evaluate) -> tuple[list[Any], list[Any]]:
    """Facts of the dim-0 and dim-1 windows of a phase's nodes: memo hits,
    then one ``evaluate`` call on the windows of every miss."""
    r0, r1, c0, c1 = coords
    out: tuple[list[Any], list[Any]] = ([None] * len(phase[0]), [None] * len(phase[1]))
    todo = (list(range(len(phase[0]))), list(range(len(phase[1]))))
    if memo is not None:
        keys = [[(r0[k], r1[k], c0[k], c1[k], d, *extra[k]) for k in ks] for d, ks in enumerate(phase)]
        for d in (0, 1):
            todo[d].clear()
            for i, key in enumerate(keys[d]):
                if key in memo:
                    out[d][i] = memo[key]
                else:
                    todo[d].append(i)
    s0, s1 = ([ks[i] for i in miss] for ks, miss in zip(phase, todo))
    if not s0 and not s1:
        return out
    # dim 0 cuts rows: its windows run down the column band [c0, c1)
    vals, offs = pref.band_windows(
        [0] * len(s0) + [1] * len(s1),
        [c0[k] for k in s0] + [r0[k] for k in s1],
        [c1[k] for k in s0] + [r1[k] for k in s1],
        [r0[k] for k in s0] + [c0[k] for k in s1],
        [r1[k] for k in s0] + [c1[k] for k in s1],
    )
    found = iter(evaluate(s0 + s1, vals, offs))
    for d, miss in enumerate(todo):
        for i in miss:
            out[d][i] = f = next(found)
            if memo is not None:
                memo[keys[d][i]] = f
    return out


def tree_to_partition(
    root: HierNode, pref: LoadView, method: str, m: int
) -> Partition:
    """Number the leaves, collect their rectangles, attach the tree indexer."""
    rects: list[Rect] = []
    for k, leaf in enumerate(root.leaves()):
        leaf.proc = k
        rects.append(leaf.rect)
    # idle processors (splits that could not proceed) appear as empty rects
    rects.extend(Rect(0, 0, 0, 0) for _ in range(m - len(rects)))
    return Partition(
        rects,
        pref.shape,
        method=method,
        indexer=root.locate,
        meta={"tree": root},
    )
