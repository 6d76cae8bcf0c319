"""The exact 1D engine (:mod:`repro.oned.bisect`): its walks and its answers.

Every walk proves a bound on both sides of the bracket: a feasible walk its
realised bottleneck, an infeasible one its cheapest one-step extension.  The
pinned walk values below fail if the extension minimum becomes a maximum or
the realised bound stops following the steps; the property test checks the
whole engine, on both of its walks, against NicolPlus and the DP.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import ParameterError
from repro.oned import bisect as engine
from repro.oned import (
    bisect_bottleneck,
    dp_bottleneck,
    nicol,
    nicol_bottleneck,
    nicol_plus,
    nicol_plus_bottleneck,
    partition_1d,
    partition_bisect,
    partition_dp,
)

from .conftest import prefix_of

#: the two walks, each over the boundary form it is given
WALKS = {
    "list": lambda P, m, B: engine._walk_list(P.tolist(), m, B),
    "nd": lambda P, m, B: engine._walk_nd(P, m, B),
}


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_walk_proves_both_bounds(walk):
    P = prefix_of([5, 1, 1, 5, 5])  # boundaries 0 5 6 7 12 17
    run = WALKS[walk]
    # infeasible at 6: steps to 6 and 12, which would extend at cost 7 and 11;
    # every B' < 7 walks the same steps, so 7 is the new lower end
    assert run(P, 2, 6) == (False, 7, 2)
    # stuck on the first cell: its own cost is the extension
    assert run(P, 3, 4) == (False, 5, 1)
    # feasible at 16: steps cost 12 and 5, so [12, 16] all walk these cuts
    assert run(P, 2, 16) == (True, 12, 2)
    assert run(P, 3, 8) == (True, 7, 3)
    # the whole array in one step
    assert run(P, 4, 17) == (True, 17, 1)


def _loads(n: int):
    near = 2**62 // n
    return hnp.arrays(
        np.int64,
        n,
        elements=st.one_of(st.just(0), st.integers(0, 9), st.integers(near - 2**20, near)),
    )


@settings(max_examples=150, deadline=None)
@given(
    vals=st.integers(1, 24).flatmap(_loads),
    extra=st.integers(0, 6),
    frac=st.floats(0, 1),
    path=st.sampled_from(["list", "nd"]),
)
def test_engine_matches_nicolplus_and_dp(vals, extra, frac, path):
    # zero runs, m > n and totals near 2**62, on the list walk and the
    # array walk: the same B* and the same greedy cuts as NicolPlus and DP
    P = prefix_of(vals)
    n = len(vals)
    m = max(1, round(frac * n)) + extra
    want_B, want_cuts = nicol_plus(P, m)
    assert dp_bottleneck(P, m) == want_B
    np.testing.assert_array_equal(partition_dp(P, m)[1], want_cuts)
    with pytest.MonkeyPatch.context() as mp:
        if path == "nd":
            mp.setattr(engine, "_ND_PROBE_RATIO", 0)
        assert bisect_bottleneck(P, m) == want_B
        B, cuts = partition_bisect(P, m)
    assert B == want_B
    np.testing.assert_array_equal(cuts, want_cuts)


def test_array_walk_does_not_wrap_near_int64_max():
    # 1024 cells summing to just under 2**63: arr[pos] + B used to wrap in
    # int64 on the array walk and return a non-optimal bottleneck
    vals = np.full(1024, (2**63 - 1) // 1024, dtype=np.int64)
    P = prefix_of(vals)
    want = 512 * int(vals[0])
    assert want == nicol_plus_bottleneck(P, 2) == 4611686018427387392
    assert bisect_bottleneck(P, 2) == want
    assert partition_1d(vals, 2, "bisect").bottleneck == want
    assert partition_bisect(P, 2)[1].tolist() == [0, 512, 1024]


EXACT_FNS = [
    bisect_bottleneck,
    partition_bisect,
    nicol_bottleneck,
    nicol_plus_bottleneck,
    nicol,
    nicol_plus,
    dp_bottleneck,
    partition_dp,
]


@pytest.mark.parametrize("m", [0, -1])
@pytest.mark.parametrize("fn", EXACT_FNS, ids=lambda f: f.__name__)
def test_exact_1d_rejects_nonpositive_m(fn, m):
    P = prefix_of([3, 1, 4, 1, 5])
    with pytest.raises(ParameterError):
        fn(P, m)
