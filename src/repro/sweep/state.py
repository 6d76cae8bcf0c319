"""Cross-call warm-start state for sweeps over one load matrix.

Every figure in the paper's evaluation (§4) sweeps the processor count over
the *same* load matrix; a cold call rediscovers its bottleneck bisection
window from scratch each time.  Every partition class the solvers bisect
over has one monotonicity law: its optimal bottleneck is non-increasing
under the componentwise order of the class's **point** — ``(m,)`` for the
m-way classes, ``(P, Q)`` for the P×Q-way jagged class (more processors in
any dimension can only help; plain m-monotonicity does **not** hold across
factorizations, ``B*(1, 7)`` may exceed ``B*(2, 3)``).  So every completed
bisection *proves* transferable facts:

* an optimum ``B*(p)`` witnesses *feasibility* at ``B*(p)`` (an upper bound
  at every point dominating ``p``) and *infeasibility* at ``B*(p) - 1`` (a
  lower bound at every point ``p`` dominates);
* a heuristic partition witnesses feasibility of its max load for its own
  class at its own point — an upper-bound fact exact solvers can consume.

One table holds every class's facts, and the rules above are written once.
The only class-specific code is the two cross-class transfers, both from
"any P×Q-way jagged partition *is* a (P·Q)-way jagged partition":
``jag_pq`` facts with ``P·Q <= m`` are upper bounds for ``jag_m`` at ``m``,
and the ``jag_m`` optimum at exactly ``m = P·Q`` is a lower bound for
``jag_pq`` at ``(P, Q)``.

Facts are additionally keyed by a canonicalized **kwargs scope**: solver
kwargs that constrain the solution space (e.g. ``num_stripes``) change what
"the optimum" means, so facts recorded under different kwargs must never
share a ``(class, point)`` slot — the same keying the disk store
(:mod:`repro.sweep.store`) uses.  Two sound transfers cross the scope
boundary, both derived from "a constrained partition is still a partition
of the class":

* a feasible witness (or optimum) recorded under *any* scope is an upper
  bound for the **unconstrained** (empty) scope at every dominating point;
* an **unconstrained** optimum is a lower bound for every constrained
  scope (a constraint can only worsen the optimum).

This module holds only the *state* (a context stack plus per-prefix fact
tables and memos); it deliberately imports nothing from the algorithm
packages so the algorithms can import it without cycles.  The engine that
drives sweeps lives in :mod:`repro.sweep.engine`; disk persistence lives in
:mod:`repro.sweep.store` and is attached per state via the ``store``
constructor argument (the state calls back into it through duck typing, so
no import edge exists here either).  The store sees the tables only through
:meth:`SweepState.facts` and replays them through the ``record_*`` methods.

Soundness discipline: the table is written exclusively with *proven* facts
(computed optima and achieved heuristic loads), entries are keyed by object
identity with a strong reference held for the lifetime of the sweep (so
``id`` reuse after garbage collection cannot alias entries), and every
record is validated against the monotonicity laws above —
:class:`SweepInvariantError` is raised on any contradiction, which makes a
poisoned bound impossible to install through the public API.
"""

from __future__ import annotations

import numbers
import operator
from typing import Any, Mapping

__all__ = [
    "SweepInvariantError",
    "SweepState",
    "canonical_scope",
    "current",
    "sweep_active",
]


class SweepInvariantError(RuntimeError):
    """A recorded bound contradicts the monotonicity laws of its class."""


#: number of distinct objects (prefixes / 1D prefix arrays) one sweep
#: tracks; beyond this, new objects simply get no warm starts (bounded
#: memory — the strong references pin every tracked object alive)
_MAX_TRACKED = 4096

#: class tag -> dimension of its points.  ``bisect`` (1D prefix arrays),
#: ``jag_m`` and ``jag_pq`` are consumed by the exact solvers; ``hier_rb``
#: and ``hier_relaxed`` hold the hierarchical heuristics' achieved loads as
#: class-feasibility witnesses (persisted and scale-transferred by the
#: disk store — the hierarchical *decisions* themselves are warm-started
#: through the node memos, see :meth:`SweepState.hier_memo`).
_ARITY = {"bisect": 1, "jag_m": 1, "hier_rb": 1, "hier_relaxed": 1, "jag_pq": 2}

#: a kwargs scope: canonicalized, hashable, JSON-round-trippable
Scope = tuple[tuple[str, str], ...]

#: the unconstrained scope (no result-affecting kwargs)
NO_SCOPE: Scope = ()

#: a point of a class: ``(m,)`` or ``(P, Q)``
Point = tuple[int, ...]

#: one class's facts in one scope: (proven optima, feasible witnesses)
Tables = tuple[dict[Point, int], dict[Point, int]]

#: one bound fact as :meth:`SweepState.facts` reports it:
#: ``(kind, class, scope, point, B)`` with kind ``"opt"`` or ``"ub"``
Fact = tuple[str, str, Scope, Point, int]


def _canon_value(v: Any) -> str:
    """Canonical string form of one kwargs value (type-tagged)."""
    if isinstance(v, bool):
        return f"bool:{v}"
    if isinstance(v, numbers.Integral):
        return f"int:{int(v)}"
    if isinstance(v, str):
        return f"str:{v}"
    if isinstance(v, float):
        return f"float:{v!r}"
    return f"repr:{v!r}"


def canonical_scope(kw: Mapping[str, Any] | None) -> Scope:
    """Canonicalize solver kwargs into a fact-store scope key.

    ``None`` and ``{}`` are the unconstrained scope; ``None``-valued
    entries are dropped (an explicit default); remaining items are sorted
    by name and values are reduced to type-tagged strings so the scope is
    hashable, order-independent and survives a JSON round trip unchanged.
    """
    if not kw:
        return NO_SCOPE
    if isinstance(kw, tuple):
        # already a canonical scope (a store replaying persisted facts)
        return kw
    items = [(str(k), _canon_value(v)) for k, v in kw.items() if v is not None]
    items.sort()
    return tuple(items)


def _point(cls: str, point: Any) -> Point:
    """``point`` as a tuple of ints, validated against class ``cls``."""
    arity = _ARITY.get(cls)
    if arity is None:
        raise SweepInvariantError(f"unknown monotone class {cls!r}")
    p = tuple(map(int, point))
    if len(p) != arity:
        raise SweepInvariantError(f"{cls}: point {p} is not {arity}-dimensional")
    return p


def _dominated(q: Point, p: Point) -> bool:
    """``q <= p`` componentwise."""
    return all(map(operator.le, q, p))


def _bracket(
    scopes: dict[Scope, Tables], p: Point, scope: Scope
) -> tuple[int | None, int | None]:
    """``(lb, ub)`` at ``p`` from one class's facts (module docstring rules).

    Lower bounds are optima at points dominating ``p``, in the own or the
    unconstrained scope; upper bounds are optima and witnesses at points
    ``p`` dominates, in the own scope — in every scope when ``scope`` is
    the unconstrained one.
    """
    lb = ub = None
    for s, (opt, wit) in scopes.items():
        if s == scope or s == NO_SCOPE:
            for q, B in opt.items():
                if (lb is None or B > lb) and _dominated(p, q):
                    lb = B
        if s == scope or scope == NO_SCOPE:
            for table in (opt, wit):
                for q, B in table.items():
                    if (ub is None or B < ub) and _dominated(q, p):
                        ub = B
    return lb, ub


class SweepState:
    """Per-sweep warm-start facts and memos, keyed by object identity.

    One instance lives for the duration of a ``use_sweep()`` block.  Both
    recording methods validate monotonicity and raise
    :class:`SweepInvariantError` on contradictions.  ``store`` optionally
    attaches a disk-backed fact store (:mod:`repro.sweep.store`): tracked
    2D prefixes are then seeded from disk on first touch and harvested
    back on :meth:`flush_to_store`.
    """

    __slots__ = ("_refs", "_facts", "_memos", "_store")

    def __init__(self, store: Any = None) -> None:
        # id -> strong reference (prevents GC id reuse for tracked objects)
        self._refs: dict[int, Any] = {}
        # (id, class) -> scope -> (optima, witnesses), each {point: B}
        self._facts: dict[tuple[int, str], dict[Scope, Tables]] = {}
        # id -> tag -> shared memo; tags: "stripe" (JAG-M-OPT stripe facts),
        # "rb" / "relaxed" (hierarchical node decisions)
        self._memos: dict[int, dict[str, dict]] = {}
        # the attached disk store (duck-typed; see repro.sweep.store)
        self._store = store

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
            # record_* re-entry is safe because the id is registered above
            self._store.seed_state(self, obj)
        return key  # repro-lint: disable=RPL010 — in-process handle; cross-run reuse goes through content digests

    def _query_key(self, obj: Any) -> int | None:
        """Identity key for a *read*; seeds from the disk store on first touch.

        Without a store, reads never track (an object nobody recorded facts
        for has no warmth).  With a store attached, the first read of a
        content-addressable instance loads its persisted facts.
        """
        key = id(obj)
        if key in self._refs:
            return key  # repro-lint: disable=RPL010 — in-process handle; cross-run reuse goes through content digests
        if self._store is not None and self._store.is_instance(obj):
            return self._track(obj)
        return None

    # -- the bound table ------------------------------------------------

    def bounds(
        self, obj: Any, cls: str, point: Any, *, kw: Mapping[str, Any] | None = None
    ) -> tuple[int | None, int | None, int | None]:
        """``(exact, lb, ub)`` for class ``cls`` at ``point`` from recorded facts.

        ``exact`` is the optimum recorded at ``point`` itself (or None);
        ``lb`` comes from optima at dominating points (their bisections
        proved infeasibility just below them); ``ub`` comes from optima and
        feasible witnesses at dominated points.  Facts live in the scope of
        ``kw``; the unconstrained scope additionally sees every scope's
        feasibility facts, constrained scopes additionally see unconstrained
        optima as lower bounds, and the two cross-class transfers apply
        (module docstring).
        """
        p = _point(cls, point)
        key = self._query_key(obj)
        if key is None:
            return None, None, None
        scope = canonical_scope(kw)
        scopes = self._facts.get((key, cls), {})
        exact = scopes[scope][0].get(p) if scope in scopes else None
        if exact is not None:
            return exact, exact, exact
        lb, ub = _bracket(scopes, p, scope)
        if cls == "jag_m" and scope == NO_SCOPE:
            # every scope's P×Q-way partition with P·Q <= m is m-way jagged
            grid = self._facts.get((key, "jag_pq"), {})
            for tables in grid.values():
                for table in tables:
                    for (P, Q), B in table.items():
                        if (ub is None or B < ub) and P * Q <= p[0]:
                            ub = B
        elif cls == "jag_pq":
            # the m-way class contains every P×Q-way partition
            base = self._facts.get((key, "jag_m"), {}).get(NO_SCOPE)
            B = base[0].get((p[0] * p[1],)) if base else None
            if B is not None and (lb is None or B > lb):
                lb = B
        return None, lb, ub

    def witness(
        self, obj: Any, cls: str, point: Any, *, kw: Mapping[str, Any] | None = None
    ) -> int | None:
        """The recorded feasible witness at exactly ``point`` (or None).

        Exact solvers use this to skip recomputing their internal heuristic
        upper bound: a witness at the same point is feasible for the class,
        and any valid upper bound leaves the bisection result unchanged.
        The unconstrained scope sees every scope's witnesses and the
        constrained scopes' optima (a constrained partition is still a
        partition of the class).
        """
        p = _point(cls, point)
        key = self._query_key(obj)
        if key is None:
            return None
        scope = canonical_scope(kw)
        found = []
        scopes = self._facts.get((key, cls), {})
        for s, (opt, wit) in scopes.items():
            if s == scope or scope == NO_SCOPE:
                found.append(wit.get(p))
            if scope == NO_SCOPE and s != NO_SCOPE:
                found.append(opt.get(p))
        return min((B for B in found if B is not None), default=None)

    def record_opt(
        self, obj: Any, cls: str, point: Any, B: int, *, kw: Mapping[str, Any] | None = None
    ) -> None:
        """Record a proven optimum ``B`` for class ``cls`` at ``point``.

        ``B`` must lie inside the bracket the class's recorded facts
        already prove at ``point`` — which also rejects a second, different
        optimum at the same point.
        """
        p = _point(cls, point)
        key = self._track(obj)
        if key is None:
            return
        scope = canonical_scope(kw)
        B = int(B)
        scopes = self._facts.setdefault((key, cls), {})
        lb, ub = _bracket(scopes, p, scope)
        if (lb is not None and B < lb) or (ub is not None and B > ub):
            raise SweepInvariantError(
                f"{cls}: optimum {B} at {p} (scope {dict(scope)!r}) contradicts "
                f"the recorded bracket [{lb}, {ub}] (B* is non-increasing "
                f"under componentwise order)"
            )
        scopes.setdefault(scope, ({}, {}))[0][p] = B

    def record_ub(
        self, obj: Any, cls: str, point: Any, B: int, *, kw: Mapping[str, Any] | None = None
    ) -> None:
        """Record a proven-feasible bottleneck ``B`` (a witness) at ``point``.

        A witness transfers to the unconstrained class, so it must not
        undercut an optimum at a dominating point in its own scope or the
        unconstrained one.
        """
        p = _point(cls, point)
        key = self._track(obj)
        if key is None:
            return
        scope = canonical_scope(kw)
        B = int(B)
        scopes = self._facts.setdefault((key, cls), {})
        lb, _ = _bracket(scopes, p, scope)
        if lb is not None and B < lb:
            raise SweepInvariantError(
                f"{cls}: feasible witness {B} at {p} (scope {dict(scope)!r}) "
                f"undercuts the optimum {lb} at a dominating point"
            )
        wit = scopes.setdefault(scope, ({}, {}))[1]
        if B < wit.get(p, B + 1):
            wit[p] = B

    def facts(self, obj: Any) -> tuple[list[Fact], dict[str, dict]]:
        """Everything recorded about ``obj``: bound facts and shared memos.

        The bound facts are ``(kind, class, scope, point, B)`` rows — kind
        ``"opt"`` replays through :meth:`record_opt`, ``"ub"`` through
        :meth:`record_ub` — and the memos map each non-empty tag to its
        dict.  This is the disk store's only view of the state.
        """
        key = id(obj)
        rows: list[Fact] = []
        for cls in _ARITY:
            scopes = self._facts.get((key, cls), {})
            for scope, (opt, wit) in scopes.items():
                rows += [("opt", cls, scope, p, B) for p, B in opt.items()]
                rows += [("ub", cls, scope, p, B) for p, B in wit.items()]
        tagged = self._memos.get(key, {})
        return rows, {tag: memo for tag, memo in tagged.items() if memo}

    # -- shared memos (stripe facts, hierarchical node decisions) -------

    def stripe_memo(self, pref: Any) -> dict | None:
        """The sweep-shared JAG-M-OPT stripe memo for ``pref`` (None when full).

        Entries are ``(k, i) -> [(B, parts, exact)]`` facts about stripe
        ``[k, i)`` of this prefix; they are m-independent, so one memo
        serves every bisection probe of every sweep step.
        """
        return self._memo(pref, "stripe")

    def hier_memo(self, pref: Any, family: str) -> dict | None:
        """The sweep-shared hierarchical node-decision memo (None when full).

        ``family`` is ``"rb"`` or ``"relaxed"``.  Entries map a node key —
        the sub-rectangle, the candidate cut dimension and (for RB) the
        gcd-reduced processor-split ratio, or (for RELAXED) the node's
        processor count — to the windowed cut kernel's result.  The keys
        capture *everything* the decision depends on, so a memo hit
        returns exactly what the kernel would recompute: decisions (and
        partitions) stay bit-identical while the cut searches disappear
        from the op counters.  RB keys are invariant under scaling of the
        processor split, which is what lets facts transfer across the
        ``m`` sweep (every even bisection shares its ratio ``1:1``).
        """
        return self._memo(pref, family)

    def _memo(self, obj: Any, tag: str) -> dict | None:
        key = self._track(obj)
        if key is None:
            return None
        return self._memos.setdefault(key, {}).setdefault(tag, {})

    # -- disk-store lifecycle -------------------------------------------

    def flush_to_store(self) -> None:
        """Harvest every tracked instance's facts into the attached store.

        A no-op without a store.  Called by ``use_sweep`` on scope exit;
        the store itself performs the atomic read-merge-write.
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
