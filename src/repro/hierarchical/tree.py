"""Binary-tree representation of hierarchical bipartitions (paper §3.3).

"Such partitions can be represented by a binary tree for easy indexing" —
the tree is kept on the partition's metadata and powers an O(depth)
cell→processor indexer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.partition import Partition
from ..core.prefix import PrefixSum2D
from ..core.rectangle import Rect

__all__ = ["HierNode", "tree_to_partition", "grow_tree"]


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


def grow_tree(pref: PrefixSum2D, m: int, chooser) -> HierNode:
    """Grow a bipartition tree with an explicit worklist (no recursion limit).

    ``chooser(pref, rect, procs, depth)`` returns ``None`` when the node must
    stay a leaf, or ``(dim, cut_abs, procs_left, procs_right)``.
    """
    root = HierNode(rect=Rect(0, pref.n1, 0, pref.n2), procs=m)
    stack: list[tuple[HierNode, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.procs == 1 or node.rect.area <= 1:
            continue
        choice = chooser(pref, node.rect, node.procs, depth)
        if choice is None:
            continue
        dim, cut_abs, wl, wr = choice
        r = node.rect
        if dim == 0:
            lrect = Rect(r.r0, cut_abs, r.c0, r.c1)
            rrect = Rect(cut_abs, r.r1, r.c0, r.c1)
        else:
            lrect = Rect(r.r0, r.r1, r.c0, cut_abs)
            rrect = Rect(r.r0, r.r1, cut_abs, r.c1)
        node.dim, node.cut = dim, cut_abs
        node.left = HierNode(rect=lrect, procs=wl)
        node.right = HierNode(rect=rrect, procs=wr)
        stack.append((node.left, depth + 1))
        stack.append((node.right, depth + 1))
    return root


def tree_to_partition(
    root: HierNode, pref: PrefixSum2D, method: str, m: int
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
