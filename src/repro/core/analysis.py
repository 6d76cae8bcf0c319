"""Partition quality analysis: one-call diagnostic report.

Collects every §2.1 metric plus the geometric diagnostics an application
engineer checks before adopting a decomposition (per-processor load
distribution, rectangle aspect ratios, boundary statistics, distance to the
lower bound) into a single dataclass with a text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .metrics import communication_volume, exact_imbalance, lower_bound, max_boundary
from .partition import Partition
from .prefix import MatrixLike, prefix_2d

__all__ = ["PartitionReport", "analyze"]


@dataclass(frozen=True)
class PartitionReport:
    """Quality summary of one partition on one load matrix."""

    method: str
    shape: tuple[int, int]
    m: int
    active: int  #: processors with a non-empty rectangle
    total_load: int
    max_load: int
    min_load: int
    mean_load: float
    std_load: float
    imbalance: float  #: Lmax/Lavg − 1 (§2.1)
    lower_bound: int  #: max(⌈total/m⌉, max cell)
    optimality_gap: float  #: max_load/lower_bound − 1 (0 ⇒ provably optimal)
    comm_volume: int  #: grid edges crossing owners
    max_boundary: int  #: largest per-processor boundary
    worst_aspect: float  #: max rectangle aspect ratio (≥ 1)
    load_percentiles: dict[int, float] = field(default_factory=dict)

    def to_text(self) -> str:
        """Aligned human-readable rendering."""
        lines = [
            f"partition     : {self.method or '(unnamed)'} on {self.shape[0]}x{self.shape[1]}",
            f"processors    : {self.m} ({self.active} active)",
            f"total load    : {self.total_load:,}",
            f"max load      : {self.max_load:,}  (lower bound {self.lower_bound:,}, "
            f"gap {self.optimality_gap:.2%})",
            f"load spread   : min {self.min_load:,} / mean {self.mean_load:,.0f} / "
            f"std {self.std_load:,.0f}",
            f"imbalance     : {self.imbalance:.4%}",
            f"comm volume   : {self.comm_volume:,} edges "
            f"(max per processor {self.max_boundary:,})",
            f"worst aspect  : {self.worst_aspect:.1f}:1",
        ]
        if self.load_percentiles:
            pct = "  ".join(f"p{p}={v:,.0f}" for p, v in sorted(self.load_percentiles.items()))
            lines.append(f"percentiles   : {pct}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


def analyze(A: MatrixLike, partition: Partition) -> PartitionReport:
    """Compute a :class:`PartitionReport` for ``partition`` on matrix ``A``."""
    pref = prefix_2d(A)
    loads = partition.loads(pref).astype(np.int64)
    r0, r1, c0, c1 = partition.coords().T
    h, w = r1 - r0, c1 - c0
    active = (h > 0) & (w > 0)
    h, w = h[active], w[active]
    lb = lower_bound(pref, partition.m)
    maxload = int(loads.max(initial=0))
    # ratio metrics go through Fraction with one final float conversion:
    # dividing big-int loads as floats rounds twice and drifts past 2^53
    return PartitionReport(
        method=partition.method,
        shape=partition.shape,
        m=partition.m,
        active=int(active.sum()),
        total_load=pref.total,
        max_load=maxload,
        min_load=int(loads.min(initial=0)),
        mean_load=float(Fraction(pref.total, partition.m)) if partition.m else 0.0,
        std_load=float(loads.std()) if len(loads) else 0.0,
        imbalance=exact_imbalance(maxload, pref.total, partition.m),
        lower_bound=lb,
        optimality_gap=float(Fraction(maxload - lb, lb)) if lb else 0.0,
        comm_volume=communication_volume(partition),
        max_boundary=max_boundary(partition),
        worst_aspect=float(np.maximum(h / w, w / h).max(initial=1.0)),
        load_percentiles={
            p: float(np.percentile(loads, p)) for p in (10, 50, 90, 99)
        }
        if len(loads)
        else {},
    )
