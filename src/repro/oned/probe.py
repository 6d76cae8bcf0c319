"""The Probe parametric-search subroutine (Han–Narahari–Choi [10], §2.2).

``Probe(B)`` answers: *can the array be partitioned into at most m intervals,
each of load at most B?*  The greedy rule — allocate to each processor the
largest prefix not exceeding B — is optimal for this decision problem, so the
answer is exact.

The greedy walks (:func:`probe`, :func:`min_parts`, :func:`probe_cuts`) are
written once, in :mod:`repro.perf.kernels`, and re-exported here.  Each
places one interval per :func:`bisect.bisect_right` on a plain Python list
(C speed, ~0.1 µs, where a scalar ``np.searchsorted`` costs ~1.5 µs of
wrapper overhead); callers that probe the same prefix repeatedly should
convert it once with :func:`as_boundary_list` and pass the list.  NumPy
arrays are accepted everywhere and converted on the fly.

:func:`probe_sliced` keeps the array-slicing technique of [10] (binary
searches confined to ``n/m``-sized slices), the paper's own Probe.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..core.errors import ParameterError
from ..perf.kernels import as_boundary_list, min_parts, probe, probe_cuts

__all__ = ["probe", "probe_cuts", "probe_sliced", "min_parts", "as_boundary_list", "check_m"]


def check_m(m: int) -> None:
    """Reject a part count below one (every exact 1D method's domain)."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")


def probe_sliced(P, m: int, B: int, lo: int = 0, hi: int | None = None) -> bool:
    """Probe with the slicing technique of Han et al. [10].

    The boundary range is divided into ``m`` slices.  The greedy targets are
    increasing, so the slice holding each next cut is found by walking the
    slice boundaries forward (amortized O(1)), and the binary search runs
    inside a single slice (O(log(n/m))).
    """
    Pl = as_boundary_list(P)
    if hi is None:
        hi = len(Pl) - 1
    if B < 0:
        return False
    n = hi - lo
    if n <= 0:
        return True
    slices = np.linspace(lo, hi, m + 1).astype(np.int64).tolist()
    pos = lo
    s = 0
    for _ in range(m):
        if pos >= hi:
            return True
        target = Pl[pos] + B
        # advance to the slice whose last boundary holds a value > target
        while s < m and Pl[slices[s + 1]] <= target:
            s += 1
        s_lo = max(slices[s], pos)
        s_hi = min(slices[s + 1] if s < m else hi, hi)
        nxt = bisect_right(Pl, target, s_lo, s_hi + 1) - 1
        if nxt <= pos:
            return False
        pos = nxt
    return pos >= hi
