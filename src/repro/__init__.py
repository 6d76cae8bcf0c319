"""repro — reproduction of *Partitioning Spatially Located Computations using
Rectangles* (Saule, Baş, Çatalyürek, IPDPS 2011).

The package partitions a 2D matrix of non-negative integer loads into ``m``
rectangles, minimizing the load of the most loaded rectangle.  The quickest
path::

    import numpy as np
    from repro import partition_2d, load_imbalance

    A = np.random.default_rng(0).integers(1000, 1201, (512, 512))
    part = partition_2d(A, 100, "JAG-M-HEUR")
    print(load_imbalance(A, part))

Sub-packages
------------
``repro.oned``
    1D interval partitioning (DirectCut, recursive bisection, Nicol,
    NicolPlus, DP, bisection, striped costs).
``repro.rectilinear`` / ``repro.jagged`` / ``repro.hierarchical``
    The 2D solution classes of the paper with their heuristics and optimal
    algorithms.
``repro.instances``
    Synthetic (uniform/diagonal/peak/multi-peak), PIC-MAG-like, and
    SLAC-like evaluation instances.
``repro.theory``
    The approximation guarantees of Theorems 1–4.
``repro.runtime``
    A BSP-style execution simulator with communication and migration costs.
``repro.experiments``
    Reproduction harness for every figure of the paper's evaluation.
"""

from .core import (
    InvalidPartitionError,
    ParameterError,
    Partition,
    PrefixSum1D,
    PrefixSum2D,
    Rect,
    ReproError,
    communication_volume,
    load_imbalance,
    lower_bound,
    max_boundary,
    migration_volume,
    upper_bound,
)
from .core.registry import ALGORITHMS, algorithm_names, partition_2d
from .oned import partition_1d

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "algorithm_names",
    "partition_2d",
    "partition_1d",
    "InvalidPartitionError",
    "ParameterError",
    "Partition",
    "PrefixSum1D",
    "PrefixSum2D",
    "Rect",
    "ReproError",
    "communication_volume",
    "load_imbalance",
    "lower_bound",
    "max_boundary",
    "migration_volume",
    "upper_bound",
    "__version__",
]
