"""Algorithm registry: the paper's algorithm names → implementations.

Every algorithm evaluated in Section 4 is reachable by its paper name, e.g.
``partition_2d(A, m, "JAG-M-HEUR")``.  Variant suffixes follow §4.1:

* jagged algorithms: ``-HOR``, ``-VER``, ``-BEST`` (default ``-BEST``, the
  choice made in §4.2);
* hierarchical algorithms: ``-LOAD``, ``-DIST``, ``-HOR``, ``-VER``
  (default ``-LOAD``, the best variant per §4.2).
"""

from __future__ import annotations

from typing import Callable

from ..hierarchical.opt import hier_opt
from ..hierarchical.rb import hier_rb
from ..hierarchical.relaxed import hier_relaxed
from ..jagged.m_heur import jag_m_heur
from ..jagged.m_opt import jag_m_opt
from ..jagged.pq_heur import jag_pq_heur
from ..jagged.pq_opt import jag_pq_opt
from ..perf.counters import OpCounters, counting, op_counters
from ..rectilinear.nicol import rect_nicol
from ..rectilinear.uniform import rect_uniform
from .errors import ParameterError, check_count
from .partition import Partition
from .prefix import MatrixLike

__all__ = ["ALGORITHMS", "partition_2d", "algorithm_names"]

Algo = Callable[..., Partition]


def _jag(fn: Algo, orientation: str) -> Algo:
    def run(A: MatrixLike, m: int, **kw) -> Partition:
        return fn(A, m, orientation=orientation, **kw)

    # let inspect.unwrap (and tests/test_registry.py) reach the documented
    # implementation
    run.__wrapped__ = fn  # type: ignore[attr-defined]
    run.__name__ = getattr(fn, "__name__", "jagged")
    run.__doc__ = fn.__doc__
    return run


def _hier(fn: Algo, variant: str) -> Algo:
    def run(A: MatrixLike, m: int, **kw) -> Partition:
        return fn(A, m, variant=variant, **kw)

    run.__wrapped__ = fn  # type: ignore[attr-defined]
    run.__name__ = getattr(fn, "__name__", "hierarchical")
    run.__doc__ = fn.__doc__
    return run


def _build_registry() -> dict[str, Algo]:
    reg: dict[str, Algo] = {
        "RECT-UNIFORM": rect_uniform,
        "RECT-NICOL": rect_nicol,
        "HIER-OPT": hier_opt,
    }
    for base, fn in (
        ("JAG-PQ-HEUR", jag_pq_heur),
        ("JAG-PQ-OPT", jag_pq_opt),
        ("JAG-M-HEUR", jag_m_heur),
        ("JAG-M-OPT", jag_m_opt),
    ):
        reg[base] = _jag(fn, "best")
        for o in ("hor", "ver", "best"):
            reg[f"{base}-{o.upper()}"] = _jag(fn, o)
    for base, fn in (("HIER-RB", hier_rb), ("HIER-RELAXED", hier_relaxed)):
        reg[base] = _hier(fn, "load")
        for v in ("load", "dist", "hor", "ver"):
            reg[f"{base}-{v.upper()}"] = _hier(fn, v)
    # §3.4 general recursive schemes (extension: not in the paper's evaluation)
    from ..spiral.peel import spiral_opt, spiral_relaxed

    reg["SPIRAL-RELAXED"] = spiral_relaxed
    reg["SPIRAL-OPT"] = spiral_opt
    return reg


#: All registered algorithm names → callables ``(A, m, **kw) -> Partition``.
ALGORITHMS: dict[str, Algo] = _build_registry()


def algorithm_names(*, heuristics_only: bool = False) -> list[str]:
    """Registered base algorithm names (no variant suffixes).

    With ``heuristics_only`` the slow exact algorithms (JAG-PQ-OPT,
    JAG-M-OPT, HIER-OPT) are excluded — the set plotted in the paper's
    Figures 12–14.
    """
    base = [
        "RECT-UNIFORM",
        "RECT-NICOL",
        "JAG-PQ-HEUR",
        "JAG-M-HEUR",
        "HIER-RB",
        "HIER-RELAXED",
    ]
    if not heuristics_only:
        base[3:3] = ["JAG-PQ-OPT", "JAG-M-OPT"]
        base.append("HIER-OPT")
    return base


def partition_2d(A: MatrixLike, m: int, method: str = "JAG-M-HEUR", **kw) -> Partition:
    """Partition load matrix ``A`` into ``m`` rectangles with a named algorithm.

    Parameters
    ----------
    A:
        2D non-negative integer load matrix (or a prebuilt
        :class:`~repro.core.prefix.PrefixSum2D`).
    m:
        Number of processors: any integer >= 1 (``np.int64`` included); a
        ``bool``, fractional or non-numeric ``m`` is a ``ParameterError``.
    method:
        A name from :data:`ALGORITHMS` (case-insensitive), e.g.
        ``"JAG-M-HEUR"``, ``"HIER-RELAXED-LOAD"``, ``"RECT-NICOL"``.
    **kw:
        Forwarded to the algorithm (e.g. ``num_stripes`` for JAG-M-HEUR,
        ``P``/``Q`` for the P×Q-structured methods).

    Returns
    -------
    Partition
        A valid partition of ``A`` into ``m`` rectangles (idle processors
        hold empty rectangles).
    """
    key = method.upper()
    if key not in ALGORITHMS:
        raise ParameterError(
            f"unknown algorithm {method!r}; choose from {sorted(ALGORITHMS)}"
        )
    check_count(m, "m")
    if counting():
        # a counter context is open: attach this call's own op counts to the
        # partition (nested context, so outer contexts still see every event)
        with op_counters() as ops:
            part = ALGORITHMS[key](A, m, **kw)
        part.meta["op_counts"] = OpCounters(ops)
        return part
    return ALGORITHMS[key](A, m, **kw)
