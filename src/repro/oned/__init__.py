"""One-dimensional partitioning substrate (paper §2.2).

Heuristics (DirectCut, recursive bisection), exact algorithms (Nicol,
NicolPlus, Manne–Olstad DP, and the two-sided bisection engine the 2D
algorithms call), the Probe subroutine, and the striped-cost
generalization used by RECT-NICOL.
"""

from .api import ONED_METHODS, OneDResult, interval_loads, partition_1d
from .bisect import bisect_bottleneck, partition_bisect
from .dp import dp_bottleneck, partition_dp
from .heuristics import direct_cut, direct_cut_refined, recursive_bisection
from .multicost import multi_bottleneck, partition_multi, probe_multi
from .nicol import nicol, nicol_bottleneck, nicol_plus, nicol_plus_bottleneck
from .probe import min_parts, probe, probe_cuts, probe_sliced

__all__ = [
    "ONED_METHODS",
    "OneDResult",
    "interval_loads",
    "partition_1d",
    "bisect_bottleneck",
    "partition_bisect",
    "dp_bottleneck",
    "partition_dp",
    "direct_cut",
    "direct_cut_refined",
    "recursive_bisection",
    "multi_bottleneck",
    "partition_multi",
    "probe_multi",
    "nicol",
    "nicol_bottleneck",
    "nicol_plus",
    "nicol_plus_bottleneck",
    "min_parts",
    "probe",
    "probe_cuts",
    "probe_sliced",
]
