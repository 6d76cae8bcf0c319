"""BSP-style execution simulator for partitioned spatial computations.

The paper's motivation (§1) is distributing spatially located computations so
that per-step makespan is minimized, and its future work (§5) asks about
communication and data-migration costs in dynamic applications.  This module
closes that loop: given a sequence of load-matrix snapshots (e.g. the
PIC-MAG dataset) and a partitioning strategy, it simulates a bulk-synchronous
execution:

* **compute** — a step costs the load of the most loaded processor times
  ``alpha`` (perfect overlap inside a step, barrier at the end);
* **communicate** — ghost-cell exchange along rectangle boundaries costs the
  largest per-processor boundary times ``beta``;
* **repartition** — when the policy installs a new partition, the load
  whose owner changes migrates at ``gamma`` per unit.

*When* to repartition is a pluggable
:class:`~repro.dynamic.policies.RepartitionPolicy` (``policy=``, default
:class:`~repro.dynamic.policies.EveryK` with ``k=1``).

Exactness: per-step imbalance is the single-rounding rational
``(Lmax·m − total) / total`` of :func:`repro.core.metrics.exact_imbalance`,
shared with :meth:`repro.core.partition.Partition.imbalance`; the earlier
``lmax / (total / m) − 1`` float form double-rounds past 2^53 (pinned in
``tests/test_runtime.py``).  Snapshots pass through
:func:`~repro.core.prefix.prefix_2d`, so sparse
:class:`~repro.core.sparse.SparsePrefix2D` streams are simulated without
ever densifying (the earlier hardwired ``PrefixSum2D(A)`` allocated the full
dense Γ per snapshot).

The simulator is the "application side" that the partitioning algorithms
serve; the examples drive it with different algorithms to show end-to-end
effects (cf. §5: "integrate the proposed algorithms in a real dynamic
application and study their end-to-end effects").
"""
# repro-lint: disable-file=RPL003 — simulated seconds are fractional by design

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..core.errors import ParameterError, check_count
from ..core.metrics import exact_imbalance, max_boundary, migration_volume
from ..core.partition import Partition
from ..core.prefix import LoadView, MatrixLike, prefix_2d
from ..dynamic.policies import EveryK, RepartitionPolicy, StepContext, _finite

__all__ = [
    "CostModel",
    "StepStats",
    "SimulationReport",
    "BSPSimulator",
]

Partitioner = Callable[[LoadView, int], Partition]


@dataclass(frozen=True)
class CostModel:
    """Unit costs of the BSP model.

    ``alpha`` — seconds per unit of computational load;
    ``beta`` — seconds per boundary cell exchanged (per step);
    ``gamma`` — seconds per unit of load migrated at a repartitioning.

    Every unit cost must be finite and non-negative (zero isolates a term).
    """

    alpha: float = 1e-6
    beta: float = 5e-6
    gamma: float = 2e-6

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            _finite(name, getattr(self, name))


@dataclass(frozen=True)
class StepStats:
    """Per-snapshot accounting."""

    iteration: int
    max_load: int
    imbalance: float
    compute_time: float
    comm_time: float
    migration_time: float
    repartitioned: bool

    @property
    def total_time(self) -> float:
        return self.compute_time + self.comm_time + self.migration_time


@dataclass
class SimulationReport:
    """Aggregated result of a simulated run."""

    steps: list[StepStats] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(s.total_time for s in self.steps)

    @property
    def compute_time(self) -> float:
        return sum(s.compute_time for s in self.steps)

    @property
    def comm_time(self) -> float:
        return sum(s.comm_time for s in self.steps)

    @property
    def migration_time(self) -> float:
        return sum(s.migration_time for s in self.steps)

    @property
    def repartitions(self) -> int:
        """Number of snapshots at which a new partition was installed."""
        return sum(1 for s in self.steps if s.repartitioned)

    @property
    def mean_imbalance(self) -> float:
        if not self.steps:
            return 0.0
        return float(np.mean([s.imbalance for s in self.steps]))

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"steps={len(self.steps)} total={self.total_time:.3f}s "
            f"(comp={self.compute_time:.3f} comm={self.comm_time:.3f} "
            f"mig={self.migration_time:.3f}) mean_imb={self.mean_imbalance:.3%}"
        )


class BSPSimulator:
    """Simulate a dynamic application over load snapshots.

    Parameters
    ----------
    m:
        Number of processors.
    partitioner:
        ``(LoadView, m) -> Partition`` — typically a closure over
        :func:`repro.partition_2d`; it must return an ``m``-part
        :class:`~repro.core.partition.Partition`.
    cost:
        The :class:`CostModel`.
    policy:
        A :class:`~repro.dynamic.policies.RepartitionPolicy` deciding when
        to repartition (and optionally how to solve).  Defaults to
        ``EveryK(1)``, a fresh partition every snapshot; ``EveryK(0)`` is a
        static decomposition.
    """

    def __init__(
        self,
        m: int,
        partitioner: Partitioner,
        *,
        cost: CostModel | None = None,
        policy: RepartitionPolicy | None = None,
    ):
        self.m = check_count(m, "m")
        self.partitioner = partitioner
        self.cost = cost or CostModel()
        self.policy = policy if policy is not None else EveryK(1)

    def run(
        self,
        snapshots: Iterable[tuple[int, MatrixLike]],
        *,
        steps_per_snapshot: int = 1,
    ) -> SimulationReport:
        """Run over ``(iteration, load)`` pairs and account the costs.

        ``load`` may be a raw matrix or any prebuilt
        :class:`~repro.core.prefix.LoadView` substrate (dense or sparse) —
        substrates pass through undensified.  ``steps_per_snapshot``
        multiplies compute/communication time (the application executes
        that many solver steps between load changes); it must be an
        integer ``>= 1``.
        """
        steps_per_snapshot = check_count(steps_per_snapshot, "steps_per_snapshot")
        report = SimulationReport()
        part: Partition | None = None
        c = self.cost
        policy = self.policy
        policy.reset()
        with policy.scope():
            for idx, (iteration, A) in enumerate(snapshots):
                pref = prefix_2d(A)
                ctx = StepContext(
                    index=idx,
                    iteration=iteration,
                    pref=pref,
                    part=part,
                    m=self.m,
                    cost=c,
                    steps_per_snapshot=steps_per_snapshot,
                )
                mig_time = 0.0
                repartitioned = False
                if part is None or policy.should_repartition(ctx):
                    new_part = policy.solve(self.partitioner, ctx)
                    # a policy may hand the current partition back unchanged
                    # (MigrationBudgeted deciding "keep"): not a repartition
                    if new_part is not part:
                        if new_part.m != self.m:
                            raise ParameterError(
                                f"partitioner returned {new_part.m} parts "
                                f"for m={self.m} processors"
                            )
                        if part is not None:
                            mig_time = c.gamma * migration_volume(
                                part, new_part, pref
                            )
                        part = new_part
                        repartitioned = True
                assert part is not None
                lmax = part.max_load(pref)
                imbalance = exact_imbalance(lmax, pref.total, self.m)
                report.steps.append(
                    StepStats(
                        iteration=iteration,
                        max_load=lmax,
                        imbalance=imbalance,
                        compute_time=c.alpha * lmax * steps_per_snapshot,
                        comm_time=c.beta * max_boundary(part) * steps_per_snapshot,
                        migration_time=mig_time,
                        repartitioned=repartitioned,
                    )
                )
        return report
