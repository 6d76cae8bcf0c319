"""Public 1D partitioning API.

The paper's 2D algorithms all call "an optimal 1D partitioning algorithm"
(§2.2), here the two-sided engine ``bisect``.  This module exposes a uniform
entry point over every 1D method implemented in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.errors import ParameterError
from ..core.metrics import exact_imbalance
from ..core.prefix import PrefixSum1D, prefix_1d
from .bisect import partition_bisect
from .dp import partition_dp
from .heuristics import direct_cut, direct_cut_refined, recursive_bisection
from .nicol import nicol, nicol_plus

__all__ = ["OneDResult", "partition_1d", "ONED_METHODS", "interval_loads"]


@dataclass(frozen=True)
class OneDResult:
    """Result of a 1D partitioning call.

    Attributes
    ----------
    cuts:
        Boundary array of length ``m+1``; interval ``p`` is
        ``[cuts[p], cuts[p+1])``.
    bottleneck:
        Load of the most loaded interval.
    method:
        Name of the algorithm that produced the cuts.
    """

    cuts: np.ndarray
    bottleneck: int
    method: str

    @property
    def m(self) -> int:
        """Number of intervals."""
        return len(self.cuts) - 1

    def loads(self, P: np.ndarray) -> np.ndarray:
        """Per-interval loads given the prefix array the cuts refer to."""
        return (P[self.cuts[1:]] - P[self.cuts[:-1]]).astype(np.int64)

    def imbalance(self, P: np.ndarray) -> float:
        """Load imbalance ``Lmax / Lavg - 1`` of this 1D partition, rounded once."""
        return exact_imbalance(self.bottleneck, int(P[-1]), self.m)


def _run_heuristic(fn: Callable[[np.ndarray, int], np.ndarray]):
    def run(P: np.ndarray, m: int) -> tuple[int, np.ndarray]:
        cuts = fn(P, m)
        B = int(np.max(P[cuts[1:]] - P[cuts[:-1]]))
        return B, cuts

    return run


#: name -> callable(P, m) -> (bottleneck, cuts). Optimal methods: ``bisect``
#: (the 2D algorithms' engine), ``nicolplus`` (§2.2), ``nicol``, ``dp``.
#: Heuristics: ``dc`` (DirectCut), ``dc2`` (Miguet–Pierson H2), ``rb``.
ONED_METHODS: dict[str, Callable[[np.ndarray, int], tuple[int, np.ndarray]]] = {
    "dc": _run_heuristic(direct_cut),
    "directcut": _run_heuristic(direct_cut),
    "dc2": _run_heuristic(direct_cut_refined),
    "rb": _run_heuristic(recursive_bisection),
    "dp": partition_dp,
    "bisect": partition_bisect,
    "nicol": nicol,
    "nicolplus": nicol_plus,
}

def partition_1d(
    values: np.ndarray | PrefixSum1D,
    m: int,
    method: str = "nicolplus",
    *,
    is_prefix: bool = False,
) -> OneDResult:
    """Partition a 1D load array into ``m`` intervals.

    Parameters
    ----------
    values:
        Raw load array, or a prefix array / :class:`PrefixSum1D` when
        ``is_prefix`` is set.
    m:
        Number of intervals (processors); must be positive.
    method:
        One of :data:`ONED_METHODS`.

    Returns
    -------
    OneDResult
        Cut points and the achieved bottleneck.
    """
    if m <= 0:
        raise ParameterError(f"m must be positive, got {m}")
    if isinstance(values, PrefixSum1D):
        P = values.P
    elif is_prefix:
        P = PrefixSum1D(values, is_prefix=True).P  # the same boundary checks
    else:
        P = prefix_1d(values)
    key = method.lower().replace("-", "").replace("_", "")
    if key not in ONED_METHODS:
        raise ParameterError(
            f"unknown 1D method {method!r}; choose from {sorted(ONED_METHODS)}"
        )
    B, cuts = ONED_METHODS[key](P, m)
    return OneDResult(cuts=cuts, bottleneck=int(B), method=key)


def interval_loads(P: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Loads of the intervals delimited by ``cuts`` on prefix ``P``."""
    cuts = np.asarray(cuts)
    return (P[cuts[1:]] - P[cuts[:-1]]).astype(np.int64)
