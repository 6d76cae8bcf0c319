"""Cross-call warm-start state for JAG-M-OPT solves over one load matrix.

A dynamic application repartitions at every timestep (paper §5), and a
figure of the evaluation (§4) sweeps the processor count over one matrix.
Both call JAG-M-OPT on the same instance again and again, and a cold call
rediscovers its bottleneck bisection window from scratch each time.  The
m-way jagged optimum has one monotonicity law: ``B*(m)`` is non-increasing
in ``m`` (more processors can only help).  So every completed bisection
*proves* transferable facts:

* the optimum ``B*(m)`` is feasible at ``B*(m)``, an upper bound at every
  ``m' >= m``;
* it is infeasible at ``B*(m) - 1``, a lower bound at every ``m' <= m``.

This module holds only the *state*: a context stack, one m-indexed table of
proven optima per tracked instance, and the JAG-M-OPT stripe/probe memo.  It
deliberately imports nothing from the algorithm packages, so the algorithms
can import it without cycles.  :func:`repro.sweep.engine.use_sweep` opens a
state; disk persistence lives in :mod:`repro.sweep.store` and is attached
per state via the ``store`` constructor argument (the state calls back into
it through duck typing, so no import edge exists here either).  The store
sees the tables only through :meth:`SweepState.facts` and replays them
through :meth:`SweepState.record_opt`.

Soundness discipline: the table is written exclusively with *proven*
optima, entries are keyed by object identity with a strong reference held
for the lifetime of the state (so ``id`` reuse after garbage collection
cannot alias entries), and every record is validated against the
monotonicity law above — :class:`SweepInvariantError` is raised on any
contradiction, which makes a poisoned bound impossible to install through
the public API.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "SweepInvariantError",
    "SweepState",
    "current",
    "sweep_active",
]


class SweepInvariantError(RuntimeError):
    """A recorded optimum contradicts the monotonicity of ``B*(m)``."""


#: number of distinct instances one state tracks; beyond this, new
#: instances simply get no warm starts (bounded memory — the strong
#: references pin every tracked object alive)
_MAX_TRACKED = 4096


def _bracket(optima: dict[int, int], m: int) -> tuple[int | None, int | None]:
    """``(lb, ub)`` at ``m``: optima at ``m' >= m`` and at ``m' <= m``."""
    lb = max((B for q, B in optima.items() if q >= m), default=None)
    ub = min((B for q, B in optima.items() if q <= m), default=None)
    return lb, ub


class SweepState:
    """Per-scope JAG-M-OPT optima and stripe memos, keyed by object identity.

    One instance lives for the duration of a ``use_sweep()`` block.
    :meth:`record_opt` validates monotonicity and raises
    :class:`SweepInvariantError` on contradictions.  ``store`` optionally
    attaches a disk-backed fact store (:mod:`repro.sweep.store`): tracked
    instances are then seeded from disk on first touch and harvested back
    on :meth:`flush_to_store`.
    """

    __slots__ = ("_refs", "_optima", "_memos", "_store", "_seeded")

    def __init__(self, store: Any = None) -> None:
        # id -> strong reference (prevents GC id reuse for tracked objects)
        self._refs: dict[int, Any] = {}
        # id -> {m: proven optimum B*(m)}
        self._optima: dict[int, dict[int, int]] = {}
        # id -> the JAG-M-OPT stripe/probe memo
        self._memos: dict[int, dict] = {}
        # the attached disk store (duck-typed; see repro.sweep.store)
        self._store = store
        # id -> True for instances whose facts came (in part) from the store
        self._seeded: dict[int, bool] = {}

    # -- tracking -------------------------------------------------------

    def _track(self, obj: Any) -> int | None:
        """Register ``obj`` and return its identity key (None when full)."""
        key = id(obj)
        if key in self._refs:
            return key
        if len(self._refs) >= _MAX_TRACKED:
            return None
        self._refs[key] = obj
        if self._store is not None:
            # install this instance's persisted facts before any are read;
            # record_opt re-entry is safe because the id is registered above
            self._store.seed_state(self, obj)
            if key in self._optima or key in self._memos:
                self._seeded[key] = True
        return key

    def _query_key(self, obj: Any) -> int | None:
        """Identity key for a *read*; seeds from the disk store on first touch.

        Without a store, reads never track (an object nobody recorded facts
        for has no warmth).  With a store attached, the first read of a
        content-addressable instance loads its persisted facts.
        """
        key = id(obj)
        if key in self._refs:
            return key
        if self._store is not None and self._store.is_instance(obj):
            return self._track(obj)
        return None

    # -- the bound table ------------------------------------------------

    def bounds(self, obj: Any, m: int) -> tuple[int | None, int | None, int | None]:
        """``(exact, lb, ub)`` for the JAG-M-OPT optimum of ``obj`` at ``m``.

        ``exact`` is the optimum recorded at ``m`` itself (or None); ``lb``
        comes from optima at ``m' >= m`` (their bisections proved
        infeasibility just below them); ``ub`` from optima at ``m' <= m``.
        """
        key = self._query_key(obj)
        if key is None:
            return None, None, None
        optima = self._optima.get(key, {})
        m = int(m)
        exact = optima.get(m)
        if exact is not None:
            return exact, exact, exact
        return (None, *_bracket(optima, m))

    def record_opt(self, obj: Any, m: int, B: int) -> None:
        """Record a proven optimum ``B`` of ``obj`` at ``m``.

        ``B`` must lie inside the bracket the recorded optima already prove
        at ``m`` — which also rejects a second, different optimum at the
        same ``m``.
        """
        key = self._track(obj)
        if key is None:
            return
        m, B = int(m), int(B)
        optima = self._optima.setdefault(key, {})
        lb, ub = _bracket(optima, m)
        if (lb is not None and B < lb) or (ub is not None and B > ub):
            raise SweepInvariantError(
                f"optimum {B} at m={m} contradicts the recorded bracket "
                f"[{lb}, {ub}] (B* is non-increasing in m)"
            )
        optima[m] = B

    def seeded(self, obj: Any) -> bool:
        """Whether the store seeded facts about ``obj`` (unproven in this process)."""
        return self._seeded.get(id(obj), False)

    def forget_seeded(self, obj: Any) -> bool:
        """Drop every fact about ``obj`` if the store seeded any; True if so.

        A solve calls this when it disproves a seeded fact.  ``obj`` stays
        tracked, so it is not seeded again, and the store drops its entry
        at the next flush instead of merging into it.
        """
        key = id(obj)
        if not self._seeded.pop(key, False):
            return False
        self._optima.pop(key, None)
        self._memos.pop(key, None)
        self._store.drop(obj)
        return True

    def facts(self, obj: Any) -> tuple[dict[int, int], dict]:
        """Everything recorded about ``obj``: ``({m: B*}, stripe memo)``.

        This is the disk store's only view of the state.  Optima keep
        insertion order, so those seeded from the store come first.
        """
        key = id(obj)
        return self._optima.get(key, {}), self._memos.get(key, {})

    # -- the JAG-M-OPT stripe memo ----------------------------------------

    def stripe_memo(self, pref: Any) -> dict | None:
        """The shared JAG-M-OPT stripe memo for ``pref`` (None when full).

        Entries are ``(k, i) -> [(B, parts, exact)]`` facts about stripe
        ``[k, i)`` of this prefix; they are m-independent, so one memo
        serves every bisection probe of every solve in the scope.
        """
        key = self._track(pref)
        if key is None:
            return None
        return self._memos.setdefault(key, {})

    # -- disk-store lifecycle -------------------------------------------

    def flush_to_store(self) -> None:
        """Harvest what each tracked instance gained into the attached store.

        A no-op without a store.  Called by ``use_sweep`` on scope exit;
        the store maps only the facts recorded after seeding and performs
        the atomic read-merge-write, or no I/O when nothing was gained.
        """
        if self._store is None:
            return
        for obj in list(self._refs.values()):
            if self._store.is_instance(obj):
                self._store.harvest_state(self, obj)
        self._store.flush()


#: the active sweep contexts (a stack, like the op-counter stack: the
#: innermost context wins; truthiness is the only cost when inactive)
_STACK: list[SweepState] = []


def current() -> SweepState | None:
    """The innermost active sweep state, or None."""
    return _STACK[-1] if _STACK else None


def sweep_active() -> bool:
    """True when a sweep context is open."""
    return bool(_STACK)
