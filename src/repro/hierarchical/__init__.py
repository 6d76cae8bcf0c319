"""Hierarchical bipartitions: HIER-RB, HIER-RELAXED, and the exact DP (§3.3)."""

from .opt import hier_opt, hier_opt_bottleneck
from .rb import HIER_VARIANTS, hier_rb
from .relaxed import hier_relaxed
from .tree import HierTree, tree_to_partition

__all__ = [
    "hier_opt",
    "hier_opt_bottleneck",
    "HIER_VARIANTS",
    "hier_rb",
    "hier_relaxed",
    "HierTree",
    "tree_to_partition",
]
