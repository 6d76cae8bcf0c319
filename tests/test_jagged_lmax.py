"""The jagged solvers carry their exact Lmax in ``meta["lmax"]``.

A jagged partition's Lmax is the largest of its stripes' 1D bottlenecks
(§3.2), and an exact solver's is its optimum B*.  The -BEST pick, JAG-M-HEUR's
stripe-count pick and the exact solvers' heuristic upper bounds read the
carried value instead of re-measuring the partition,
so it must equal ``max_load`` on every solver, orientation and substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D
from repro.core.sparse import SparsePrefix2D
from repro.jagged import jag_m_heur, jag_m_opt, jag_pq_heur, jag_pq_opt
from repro.sweep import use_sweep

SOLVERS = [
    ("JAG-PQ-HEUR", jag_pq_heur, {}),
    ("JAG-M-HEUR", jag_m_heur, {}),
    ("JAG-M-HEUR-auto", jag_m_heur, {"num_stripes": "auto"}),
    ("JAG-PQ-OPT", jag_pq_opt, {}),
    ("JAG-M-OPT", jag_m_opt, {}),
]
SUBSTRATES = {"dense": PrefixSum2D, "csr": SparsePrefix2D}


def _instances() -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Smooth, sparse-with-a-spike, tall and wide matrices, with their m."""
    rng = np.random.default_rng(21)
    sparse = np.zeros((16, 19), dtype=np.int64)
    sparse.ravel()[rng.choice(16 * 19, 50, replace=False)] = rng.integers(1, 30, 50)
    sparse[4, 11] = 900
    return [
        (rng.integers(1, 50, (13, 17)), (4, 9)),
        (sparse, (6, 16)),
        (rng.integers(0, 5, (23, 3)), (3, 8)),
        (rng.integers(0, 5, (2, 21)), (4,)),
    ]


INSTANCES = _instances()


@pytest.mark.parametrize("name, solve, kw", SOLVERS, ids=[s[0] for s in SOLVERS])
def test_carried_lmax_is_max_load(name, solve, kw):
    for A, ms in INSTANCES:
        for sub, make in SUBSTRATES.items():
            for m in ms:
                pref = make(A)
                got = {}
                for o in ("hor", "ver", "best"):
                    part = solve(pref, m, orientation=o, **kw)
                    got[o] = part.meta["lmax"]
                    assert got[o] == part.max_load(pref), f"{name}, {sub}, {A.shape}, m={m}, {o}"
                assert got["best"] == min(got["hor"], got["ver"])


def test_best_solves_never_remeasure(monkeypatch):
    """No -BEST solve, cold or swept, measures a finished partition."""
    calls = []
    for cls in SUBSTRATES.values():
        real = cls.rect_loads

        def counted(self, coords, _real=real):
            calls.append(type(self).__name__)
            return _real(self, coords)

        monkeypatch.setattr(cls, "rect_loads", counted)
    A, (m, _) = INSTANCES[1]
    for make in SUBSTRATES.values():
        for name, solve, kw in SOLVERS:
            solve(make(A), m, **kw)
            with use_sweep():
                pref = make(A)
                solve(pref, m, **kw)
                solve(pref, m, **kw)
    assert calls == []
