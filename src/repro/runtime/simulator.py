"""BSP-style execution simulator for partitioned spatial computations.

The paper's motivation (§1) is distributing spatially located computations so
that per-step makespan is minimized, and its future work (§5) asks about
communication and data-migration costs in dynamic applications.  This module
closes that loop: given a sequence of load-matrix snapshots (e.g. the
PIC-MAG dataset) and a partitioning strategy, it simulates a bulk-synchronous
execution:

* **compute** — a step costs the load of the most loaded processor times
  ``alpha`` (perfect overlap inside a step, barrier at the end); with
  heterogeneous per-processor ``speeds`` the cost is the makespan
  ``max_p L_p / s_p`` (cf. :mod:`repro.oned.hetero`);
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
# repro-lint: disable-file=RPL003 — simulated seconds/speeds are fractional by design

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from ..core.errors import ParameterError
from ..core.metrics import exact_imbalance, max_boundary, migration_volume, neighbor_counts
from ..core.partition import Partition
from ..core.prefix import LoadView, MatrixLike, prefix_2d
from ..dynamic.policies import EveryK, RepartitionPolicy, StepContext

__all__ = [
    "CostModel",
    "StepStats",
    "SimulationReport",
    "BSPSimulator",
    "hetero_partitioner",
]

Partitioner = Callable[[LoadView, int], Partition]


@dataclass(frozen=True)
class CostModel:
    """Unit costs of the BSP model.

    ``alpha`` — seconds per unit of computational load;
    ``beta`` — seconds per boundary cell exchanged (per step);
    ``gamma`` — seconds per unit of load migrated at a repartitioning;
    ``latency`` — seconds per halo message: the per-step latency term is
    ``latency`` times the largest per-processor neighbour count.
    """

    alpha: float = 1e-6
    beta: float = 5e-6
    gamma: float = 2e-6
    latency: float = 0.0  #: seconds per halo message (per neighbour, per step)


@dataclass(frozen=True)
class StepStats:
    """Per-snapshot accounting.

    ``makespan`` is the speed-normalized bottleneck time driving the
    compute cost: equal to ``max_load`` for homogeneous processors, and
    ``max_p L_p / s_p`` when the simulator was given ``speeds``.
    """

    iteration: int
    max_load: int
    imbalance: float
    compute_time: float
    comm_time: float
    migration_time: float
    repartitioned: bool
    makespan: float = 0.0

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


def hetero_partitioner(speeds) -> Partitioner:
    """Partitioner closure over :func:`repro.jagged.hetero.jag_hetero`.

    ``speeds[i]`` is processor ``i``'s relative speed; the returned callable
    has the simulator's ``(pref, m) -> Partition`` shape and checks that the
    simulator's ``m`` matches ``len(speeds)``.
    """
    from ..jagged.hetero import jag_hetero

    speeds = np.asarray(speeds, dtype=np.float64)

    def run(pref: LoadView, m: int) -> Partition:
        if m != len(speeds):
            raise ParameterError(
                f"simulator m={m} != len(speeds)={len(speeds)}"
            )
        return jag_hetero(pref, speeds)

    return run


class BSPSimulator:
    """Simulate a dynamic application over load snapshots.

    Parameters
    ----------
    m:
        Number of processors.
    partitioner:
        ``(LoadView, m) -> Partition`` — typically a closure over
        :func:`repro.partition_2d` (or :func:`hetero_partitioner`).
    cost:
        The :class:`CostModel`.
    policy:
        A :class:`~repro.dynamic.policies.RepartitionPolicy` deciding when
        to repartition (and optionally how to solve).  Defaults to
        ``EveryK(1)``, a fresh partition every snapshot; ``EveryK(0)`` is a
        static decomposition.
    speeds:
        Optional per-processor relative speeds (length ``m``, finite and
        positive).
        When given, the compute cost of a step is ``alpha`` times the
        makespan ``max_p L_p / s_p`` instead of ``alpha · Lmax``.
    """

    def __init__(
        self,
        m: int,
        partitioner: Partitioner,
        *,
        cost: CostModel | None = None,
        policy: RepartitionPolicy | None = None,
        speeds=None,
    ):
        self.m = m
        self.partitioner = partitioner
        self.cost = cost or CostModel()
        self.policy = policy if policy is not None else EveryK(1)
        if speeds is not None:
            speeds = np.asarray(speeds, dtype=np.float64)
            if speeds.ndim != 1 or len(speeds) != m:
                raise ParameterError(f"speeds must be a 1D array of length m={m}")
            if not (np.isfinite(speeds) & (speeds > 0)).all():
                raise ParameterError("speeds must be finite and positive")
        self.speeds: Optional[np.ndarray] = speeds

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
        that many solver steps between load changes).
        """
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
                        if part is not None:
                            mig_time = c.gamma * migration_volume(
                                part, new_part, pref
                            )
                        part = new_part
                        repartitioned = True
                assert part is not None
                lmax = part.max_load(pref)
                imbalance = exact_imbalance(lmax, pref.total, self.m)
                if self.speeds is not None:
                    loads = part.loads(pref).astype(np.float64)
                    makespan = float(np.max(loads / self.speeds))
                else:
                    makespan = float(lmax)
                lat = (
                    c.latency * int(neighbor_counts(part).max(initial=0))
                    if c.latency
                    else 0.0
                )
                report.steps.append(
                    StepStats(
                        iteration=iteration,
                        max_load=lmax,
                        imbalance=imbalance,
                        compute_time=c.alpha * makespan * steps_per_snapshot,
                        comm_time=(c.beta * max_boundary(part) + lat)
                        * steps_per_snapshot,
                        migration_time=mig_time,
                        repartitioned=repartitioned,
                        makespan=makespan,
                    )
                )
        return report
