"""JAG-M-HEUR: the paper's new m-way jagged heuristic (§3.2.2).

The main dimension is first partitioned into ``P`` stripes by an optimal 1D
algorithm.  Each stripe ``S`` is then allocated

    ``Q_S = ceil( (m - P) · load(S) / total )``

processors — proportional allocation of ``m - P`` processors, rounded up, so
that between 0 and ``P`` processors remain; the leftovers are handed one by
one to the stripe maximizing ``load(S) / Q_S``.  Finally each stripe is
partitioned on the auxiliary dimension with its ``Q_S`` processors by an
optimal 1D algorithm.

The paper proves a ``(m/(m-P))(1 + Δ/n2) + Δ·m/(P·n2)·(1 + Δ·P/n1)``
guarantee (Theorem 3) and derives the ratio-optimal stripe count
(Theorem 4); since the Δ-dependent formula is hard to estimate, the
implementation defaults to the paper's practical choice ``P = √m``
(``num_stripes`` overrides it — Figure 9 sweeps it).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import PrefixSum2D
from ..oned.api import ONED_METHODS
from ..perf import kernels as _kernels
from ..sweep.state import current as _sweep_current
from .common import build_jagged_partition, default_stripe_count, oriented

__all__ = ["jag_m_heur", "allocate_processors"]


def allocate_processors(loads: np.ndarray, m: int) -> np.ndarray:
    """Distribute ``m`` processors over stripes proportionally to their loads.

    Implements the paper's rule: ``Q_S = ceil((m - P)·load_S/total)`` plus
    one-by-one assignment of the remaining processors to the stripe with the
    largest load per processor.  Every stripe with positive load receives at
    least one processor; zero-load stripes receive processors only if the
    matrix is entirely zero (degenerate) — they still receive one each when
    they contain rows, since every cell must be owned.
    """
    loads = np.asarray(loads, dtype=np.int64)
    P = len(loads)
    if m < P:
        raise ParameterError(f"need at least one processor per stripe ({m} < {P})")
    total = int(loads.sum())
    if total == 0:
        q = np.full(P, m // P, dtype=np.int64)
        q[: m - int(q.sum())] += 1
        return q
    q = -((-(m - P) * loads) // total)  # exact ceil((m-P)·load/total)
    np.maximum(q, 1, out=q)
    # ceil-sum can exceed m - P by at most P, and the max(·,1) bump only
    # applies to zero-load stripes; the ``alloc_tail`` registry kernel shaves
    # overflow from the least loaded per-processor stripes, then distributes
    # what is left.  Tie-breaking is exact: float ratios can reorder stripes
    # once loads outgrow 2**53 (RPL003 discipline).  Its ``reference``
    # backend runs the paper's rule verbatim on ``Fraction`` keys.
    return _kernels.alloc_tail(loads, q, m)


def _stripe_candidates(pref: PrefixSum2D, m: int, spec) -> list[int]:
    """Resolve a stripe-count spec to concrete candidate values.

    ``spec`` may be an int, ``"sqrt"`` (the paper's √m default),
    ``"theorem4"`` (the ratio-optimal P of Theorem 4, using the measured Δ;
    falls back to √m on matrices with zeros), or ``"auto"`` (a small sweep
    around √m plus the Theorem 4 value — addresses the stripe-count weak
    spots of the paper's Figure 13).
    """
    sqrt_p = default_stripe_count(m, pref.n1)
    if isinstance(spec, (int, np.integer)):
        return [int(spec)]
    if spec == "sqrt":
        return [sqrt_p]
    if spec in ("theorem4", "auto"):
        cands = {sqrt_p}
        try:
            from ..theory.bounds import delta_of, theorem4_best_p

            p4 = int(round(theorem4_best_p(delta_of(pref), m, pref.n2)))
            cands.add(max(1, min(p4, pref.n1, m)))
        except Exception:
            pass  # Δ undefined (zeros): keep the √m fallback
        if spec == "theorem4":
            # prefer the Theorem 4 value alone when it was computable
            return [max(cands - {sqrt_p})] if len(cands) > 1 else [sqrt_p]
        for f in (0.5, 0.75, 1.5, 2.0):
            cands.add(max(1, min(int(round(sqrt_p * f)), pref.n1, m)))
        return sorted(cands)
    raise ParameterError(
        f"num_stripes must be an int, 'sqrt', 'theorem4' or 'auto', got {spec!r}"
    )


def _jag_m_heur_main0(
    pref: PrefixSum2D,
    m: int,
    num_stripes: int | str | None = None,
    oned: str = "nicolplus",
) -> Partition:
    """m-way jagged heuristic (§3.2.2) on main dimension 0 (see module docstring)."""
    candidates = _stripe_candidates(pref, m, "sqrt" if num_stripes is None else num_stripes)
    if len(candidates) > 1:
        parts = [
            _jag_m_heur_single(pref, m, P, oned) for P in candidates
        ]
        best = min(parts, key=lambda p: p.max_load(pref))
    else:
        best = _jag_m_heur_single(pref, m, candidates[0], oned)
    state = _sweep_current()
    if state is not None:
        # the achieved max load is an m-way jagged partition of this prefix,
        # i.e. a proven-feasible witness the exact solver can start from.
        # Scoped by the non-default kwargs: a different num_stripes/oned is
        # a different producer, and facts must never cross-contaminate
        # (unconstrained queries still see every scope's witnesses)
        scope = {
            "num_stripes": None if num_stripes in (None, "sqrt") else num_stripes,
            "oned": None if oned == "nicolplus" else oned,
        }
        state.record_mono_ub(pref, "jag_m", m, best.max_load(pref), kw=scope)
    return best


def _jag_m_heur_single(
    pref: PrefixSum2D,
    m: int,
    P: int,
    oned: str = "nicolplus",
) -> Partition:
    if not (1 <= P <= m):
        raise ParameterError(f"stripe count {P} out of range [1, {m}]")
    P = min(P, pref.n1)
    solve = ONED_METHODS[oned]
    rows = pref.axis_prefix(0)
    _, stripe_cuts = solve(rows, P)
    stripe_loads = rows[stripe_cuts[1:]] - rows[stripe_cuts[:-1]]
    q = allocate_processors(stripe_loads, m)
    col_cuts = []
    for s in range(P):
        # full-width stripe projection: served by the memoized axis_prefix
        band = pref.axis_prefix(1, int(stripe_cuts[s]), int(stripe_cuts[s + 1]))
        _, cc = solve(band, int(q[s]))
        col_cuts.append(cc)
    return build_jagged_partition(
        pref, stripe_cuts, col_cuts, method="JAG-M-HEUR", pad_to=m
    )


jag_m_heur = oriented(_jag_m_heur_main0)
jag_m_heur.__name__ = "jag_m_heur"
