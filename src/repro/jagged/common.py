"""Shared machinery for jagged partitions (paper §3.2).

A jagged partition distinguishes a *main* dimension, split into ``P``
intervals (stripes); every rectangle spans one stripe exactly, and is free in
the auxiliary dimension.  All algorithms in this package are written for
main dimension 0 (stripes are row intervals); the -VER variants run the same
code on the transposed prefix and transpose the result back, and the -BEST
variants keep the better of the two (§4.1's -HOR/-VER/-BEST convention).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.errors import ParameterError, check_choice, check_count
from ..core.partition import Partition
from ..core.prefix import MatrixLike, PrefixSum2D, prefix_2d

__all__ = [
    "build_jagged_partition",
    "check_pq",
    "choose_pq",
    "default_stripe_count",
    "oriented",
]


def default_stripe_count(m: int, n_main: int) -> int:
    """The paper's default stripe count: ``√m`` (§3.2.2), clamped to valid range."""
    P = int(round(np.sqrt(check_count(m, "m"))))
    return max(1, min(P, n_main, m))


def check_pq(P: int, Q: int) -> None:
    """Reject a stripe or per-stripe count that is not an integer of at least one."""
    check_count(P, "P")
    check_count(Q, "Q")


def choose_pq(m: int, n1: int, n2: int) -> tuple[int, int]:
    """Factor ``m = P·Q`` with ``P`` the divisor nearest ``√m``.

    The paper evaluates square processor counts with ``P = Q = √m``; for
    general ``m`` the nearest divisor keeps the grid as square as possible.
    """
    root = int(np.sqrt(check_count(m, "m")))
    best = 1
    for p in range(1, root + 1):
        if m % p == 0:
            best = p
    P, Q = best, m // best
    # prefer the orientation that fits the matrix
    if P > n1 or Q > n2:
        if Q <= n1 and P <= n2:
            P, Q = Q, P
    return P, Q


def build_jagged_partition(
    pref: PrefixSum2D,
    stripe_cuts: np.ndarray,
    col_cuts: Sequence[np.ndarray],
    *,
    method: str = "",
    pad_to: int | None = None,
    lmax: int | None = None,
) -> Partition:
    """Assemble a :class:`Partition` from stripe cuts and per-stripe column cuts.

    ``stripe_cuts`` has length ``P+1``; ``col_cuts[s]`` delimits the
    rectangles of stripe ``s`` (any per-stripe count).  Processors are
    numbered stripe-major.  ``pad_to`` appends empty rectangles up to a fixed
    processor count (idle processors).  ``lmax``, the exact max load the
    solver already knows (the largest of its stripes' 1D bottlenecks, §3.2),
    is kept as ``meta["lmax"]`` so no reader has to re-measure the partition.
    """
    stripe_cuts = np.asarray(stripe_cuts, dtype=np.int64)
    P = len(stripe_cuts) - 1
    if len(col_cuts) != P:
        raise ParameterError("need one column-cut array per stripe")
    cuts_list = [np.asarray(c, dtype=np.int64) for c in col_cuts]
    counts = [len(cc) - 1 for cc in cuts_list]
    offsets = np.cumsum([0] + counts)
    k = int(offsets[-1])
    if pad_to is not None and pad_to < k:
        raise ParameterError(f"pad_to={pad_to} below rectangle count {k}")
    # processors are numbered stripe-major; idle ones pad with zero rows
    coords = np.zeros((k if pad_to is None else pad_to, 4), dtype=np.int64)
    if k:
        coords[:k, 0] = np.repeat(stripe_cuts[:-1], counts)
        coords[:k, 1] = np.repeat(stripe_cuts[1:], counts)
        coords[:k, 2] = np.concatenate([cc[:-1] for cc in cuts_list])
        coords[:k, 3] = np.concatenate([cc[1:] for cc in cuts_list])
    meta: dict = {"stripe_cuts": stripe_cuts, "col_cuts": cuts_list}
    if lmax is not None:
        meta["lmax"] = int(lmax)

    def indexer(i: int, j: int) -> int:
        # the last cut at or before the cell: empty stripes and rectangles
        # are skipped
        s = int(stripe_cuts.searchsorted(i, side="right")) - 1
        return int(offsets[s] + cuts_list[s].searchsorted(j, side="right")) - 1

    return Partition(
        coords,
        pref.shape,
        method=method,
        indexer=indexer,
        meta=meta,
    )


def oriented(
    fn: Callable[..., Partition],
) -> Callable[..., Partition]:
    """Wrap a main-dimension-0 jagged algorithm with HOR/VER/BEST orientation.

    The wrapped function gains an ``orientation`` keyword (``"hor"``,
    ``"ver"``, ``"best"``; default ``"best"`` as selected in §4.2).  ``fn``
    must carry its exact Lmax in ``meta["lmax"]``: the -BEST pick reads it.
    """

    def run(A: MatrixLike, m: int, *args, orientation: str = "best", **kw) -> Partition:
        m, pref = check_count(m, "m"), prefix_2d(A)
        o = check_choice(orientation, "orientation", ("hor", "ver", "best"))
        if o == "hor":
            part = fn(pref, m, *args, **kw)
            part.meta["orientation"] = "hor"
            return part
        if o == "ver":
            part = fn(pref.transpose(), m, *args, **kw)
            out = part.transpose().with_method(part.method)
            out.meta["orientation"] = "ver"
            return out
        hor = fn(pref, m, *args, **kw)
        vert = fn(pref.transpose(), m, *args, **kw)
        if vert.meta["lmax"] < hor.meta["lmax"]:
            out = vert.transpose().with_method(vert.method)
            out.meta["orientation"] = "ver"
            return out
        hor.meta["orientation"] = "hor"
        return hor

    run.__name__ = getattr(fn, "__name__", "jagged")
    run.__doc__ = fn.__doc__
    run.__wrapped__ = fn  # type: ignore[attr-defined]
    return run
