"""Repartitioning policies for the dynamic BSP loop (paper §5).

The paper's future work asks to "integrate the proposed algorithms in a real
dynamic application and study their end-to-end effects", including data
migration.  :class:`repro.runtime.BSPSimulator` is that application side;
this module supplies the *when to repartition* half of the loop as pluggable
:class:`RepartitionPolicy` objects:

* :class:`EveryK` — repartition every ``k`` snapshots (the simulator's
  original hardwired behavior, extracted; ``k=0`` is a static
  decomposition);
* :class:`ImbalanceTriggered` — repartition only when the *current*
  partition's drift on the new snapshot exceeds a threshold against the
  exact ``L_avg``.  The test is one O(m) load query plus an exact rational
  comparison — no fresh solve is paid just to decide;
* :class:`MigrationBudgeted` — pay a candidate solve, but migrate only when
  the projected compute savings over a horizon amortize the ``γ``-priced
  migration volume;
* :class:`WarmStarted` — delegate the decision to an inner policy and route
  every per-snapshot solve through one long-lived sweep scope
  (:func:`repro.sweep.use_sweep`), optionally backed by a persistent
  :class:`~repro.sweep.store.SweepStore`.  The scope carries JAG-M-OPT's
  proven optima and stripe facts, digest-keyed on disk, so a rerun of a
  JAG-M-OPT stream over the same snapshots starts every solve warm while
  the partitions stay bit-identical to cold calls.

:class:`repro.dynamic.IncrementalJagged` is itself a policy (it subclasses
the base and re-produces a partition every snapshot — cheap refinement or
full rebuild), so all strategies compose with the simulator the same way.

Decision exactness: threshold comparisons against integer loads go through
:func:`drift_exceeds`, which evaluates ``value > (1 + threshold) · baseline``
as exact rationals.  The naive float form double-rounds and flips decisions
once loads near 2^62 (the same failure PR 5 pinned in
``Partition.imbalance``); ``tests/test_policies.py`` pins the flip.
Cost-model arithmetic (:class:`MigrationBudgeted`'s α/γ trade) is float by
design — unit costs are real-valued.
"""
# repro-lint: disable-file=RPL003 — cost-model seconds are fractional by design

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, ContextManager, Optional

from ..core.errors import ParameterError, check_count
from ..core.metrics import migration_volume
from ..core.partition import Partition
from ..core.prefix import LoadView

__all__ = [
    "StepContext",
    "RepartitionPolicy",
    "EveryK",
    "ImbalanceTriggered",
    "MigrationBudgeted",
    "WarmStarted",
    "drift_exceeds",
]

#: the solver the simulator injects: ``(pref, m) -> Partition``
Partitioner = Callable[[LoadView, int], Partition]


def _finite(name: str, value: Any) -> float:
    """``value`` as a finite, non-negative float (NaN and inf are rejected)."""
    x = float(value)
    if not math.isfinite(x) or x < 0:
        raise ParameterError(f"{name} must be finite and non-negative, got {value!r}")
    return x


def drift_exceeds(value: int, baseline: int, threshold: float) -> bool:
    """Exact ``value > (1 + threshold) · baseline`` for integer loads.

    Both sides are compared as exact rationals (``threshold`` contributes
    its exact binary value), so the decision is a pure function of the
    integers — no double rounding.  The naive float expression
    ``value > (1.0 + threshold) * baseline`` rounds ``baseline`` to 53 bits
    and the product once more, flipping decisions when loads near 2^62 sit
    within a few thousand of the boundary (pinned in
    ``tests/test_policies.py``).

    ``baseline <= 0`` degenerates to ``value > baseline`` — the exact limit
    of the formula for an empty baseline load.
    """
    value = int(value)
    baseline = int(baseline)
    if baseline <= 0:
        return value > baseline
    # value/baseline > 1 + threshold, cleared of denominators exactly
    return Fraction(value - baseline, baseline) > Fraction(threshold)


@dataclass(frozen=True)
class StepContext:
    """Everything a policy may consult when deciding one snapshot.

    ``part`` is the partition currently in place (``None`` before the first
    solve); ``pref`` is the new snapshot's load substrate; ``cost`` is the
    simulator's :class:`~repro.runtime.CostModel` (duck-typed: policies read
    ``alpha``/``gamma``).
    """

    index: int
    iteration: int
    pref: LoadView
    part: Optional[Partition]
    m: int
    cost: Any
    steps_per_snapshot: int = 1


class RepartitionPolicy:
    """Base class: when to repartition, and how to run the solve.

    The simulator calls, in order: :meth:`reset` once per run,
    :meth:`scope` to wrap the whole run (a context manager — the warm-start
    policy opens its sweep scope here), then per snapshot
    :meth:`should_repartition` and — only when it returned true —
    :meth:`solve`.  The base ``solve`` just invokes the simulator's
    partitioner; stateful strategies override it.

    Policies must be deterministic: the same snapshot stream and the same
    policy configuration produce the identical decision sequence and
    partitions (``tests/test_policies.py`` pins report equality across
    runs).
    """

    name = "policy"

    def reset(self) -> None:
        """Forget per-run state (the base policy keeps none)."""

    def scope(self) -> ContextManager[Any]:
        """Context wrapped around one whole simulated run (default: none)."""
        return nullcontext()

    def should_repartition(self, ctx: StepContext) -> bool:
        raise NotImplementedError

    def solve(self, partitioner: Partitioner, ctx: StepContext) -> Partition:
        """Produce the new partition (default: the injected partitioner)."""
        return partitioner(ctx.pref, ctx.m)


class EveryK(RepartitionPolicy):
    """Repartition every ``k`` snapshots — the extracted legacy behavior.

    ``k=1`` repartitions on every snapshot, ``k=0`` never after the first
    (a static decomposition).  It is the simulator's default policy
    (``k=1``).
    """

    def __init__(self, k: int = 1) -> None:
        super().__init__()
        self.k = check_count(k, "k", 0)
        self.name = f"every-{self.k}"

    def should_repartition(self, ctx: StepContext) -> bool:
        return ctx.part is None or (self.k > 0 and ctx.index % self.k == 0)


class ImbalanceTriggered(RepartitionPolicy):
    """Repartition when the current partition drifts past a threshold.

    The trigger is the exact test ``Lmax·m > (1 + threshold) · total`` —
    i.e. the current partition's imbalance on the *new* snapshot exceeds
    ``threshold``.  Deciding costs one vectorized O(m) load query against
    the new prefix; no fresh solve is paid per step (unlike
    :class:`~repro.dynamic.IncrementalJagged`, which must solve to compare
    refine against rebuild).
    """

    def __init__(self, threshold: float = 0.10) -> None:
        super().__init__()
        self.threshold = _finite("threshold", threshold)
        self.name = f"imbalance-{self.threshold:g}"

    def should_repartition(self, ctx: StepContext) -> bool:
        if ctx.part is None:
            return True
        total = ctx.pref.total
        if total == 0:
            return False
        lmax = ctx.part.max_load(ctx.pref)
        return drift_exceeds(lmax * ctx.m, total, self.threshold)


class MigrationBudgeted(RepartitionPolicy):
    """Repartition only when projected savings amortize the migration bill.

    Each snapshot pays one candidate solve; the candidate is installed only
    when the projected compute savings over the next ``horizon = 5``
    snapshots

    ``alpha · (Lmax(current) − Lmax(candidate)) · steps_per_snapshot · horizon``

    exceed ``gamma · migration_volume(current, candidate)``.

    The trade itself is float cost-model arithmetic by design; the load and
    migration volumes feeding it are exact integers.
    """

    horizon = 5
    name = f"budgeted-h{horizon}"

    def __init__(self) -> None:
        super().__init__()
        self.candidate_solves = 0

    def reset(self) -> None:
        super().reset()
        self.candidate_solves = 0

    # The candidate solve needs the simulator's partitioner, which only
    # solve() receives in the base protocol — so the decision is made
    # lazily: should_repartition() always answers True, and solve() hands
    # back the *current* partition object unchanged when the trade says
    # keep.  The simulator treats a solve() returning the identical object
    # as "kept": no migration is billed and the step is not counted a
    # repartition.

    def should_repartition(self, ctx: StepContext) -> bool:
        return True

    def solve(self, partitioner: Partitioner, ctx: StepContext) -> Partition:
        candidate = partitioner(ctx.pref, ctx.m)
        if ctx.part is None:
            return candidate
        self.candidate_solves += 1
        cur_lmax = ctx.part.max_load(ctx.pref)
        new_lmax = candidate.max_load(ctx.pref)
        saving = (
            ctx.cost.alpha
            * float(cur_lmax - new_lmax)
            * ctx.steps_per_snapshot
            * self.horizon
        )
        bill = ctx.cost.gamma * float(
            migration_volume(ctx.part, candidate, ctx.pref)
        )
        return candidate if saving > bill else ctx.part


class WarmStarted(RepartitionPolicy):
    """Route every per-snapshot solve through one warm sweep scope.

    The scope warms JAG-M-OPT only: with a persistent
    :class:`~repro.sweep.store.SweepStore` attached, every instance's
    proven optima and probe/stripe facts are digest-keyed on disk, so a
    rerun over the same stream — the steady state of a long-running
    dynamic application that revisits load configurations — returns each
    recorded optimum outright.  Results stay **bit-identical** to cold
    calls; only the work to reach them shrinks.  Other solvers run
    unchanged inside the scope.

    The repartitioning *decision* is delegated to ``inner`` (default:
    :class:`EveryK` with ``k=1``).  ``store`` is a
    :class:`~repro.sweep.store.SweepStore`, a path, or ``None`` (the scope
    stays in memory for the one run).
    """

    def __init__(
        self,
        inner: Optional[RepartitionPolicy] = None,
        *,
        store: Any = None,
    ) -> None:
        super().__init__()
        self.inner = inner if inner is not None else EveryK(1)
        self.store = store
        self.name = f"warm-{self.inner.name}"

    def reset(self) -> None:
        super().reset()
        self.inner.reset()

    def scope(self) -> ContextManager[Any]:
        from ..sweep import use_sweep

        return use_sweep(store=self.store)

    def should_repartition(self, ctx: StepContext) -> bool:
        return self.inner.should_repartition(ctx)

    def solve(self, partitioner: Partitioner, ctx: StepContext) -> Partition:
        return self.inner.solve(partitioner, ctx)
