"""Tests for migration-aware incremental repartitioning (§5 extension)."""

import numpy as np
import pytest

from repro.core.errors import ParameterError
from repro.core.metrics import migration_volume
from repro.core.prefix import PrefixSum2D
from repro.dynamic import IncrementalJagged, refine_jagged
from repro.jagged import jag_m_heur
from repro.rectilinear import rect_uniform


def blob_snapshots(n=64, steps=8, speed=1.5, seed=0):
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    out = []
    for k in range(steps):
        cx, cy = 12 + speed * k, 12 + speed * 1.3 * k
        A = 100 + (
            900 * np.exp(-(((ii - cx) ** 2 + (jj - cy) ** 2) / (2 * 8.0**2)))
        ).astype(np.int64)
        out.append(A.astype(np.int64))
    return out


class TestRefine:
    def test_refined_is_valid_and_jagged(self, rng):
        A = rng.integers(1, 50, (24, 24))
        p = jag_m_heur(A, 9)
        B = rng.integers(1, 50, (24, 24))
        r = refine_jagged(p, B)
        r.validate()
        assert r.m == p.m
        np.testing.assert_array_equal(
            r.meta["stripe_cuts"], p.meta["stripe_cuts"]
        )

    def test_refine_improves_on_stale_partition(self, rng):
        snaps = blob_snapshots()
        p = jag_m_heur(snaps[0], 16)
        stale = p.max_load(snaps[-1])
        refined = refine_jagged(p, snaps[-1]).max_load(snaps[-1])
        assert refined <= stale

    def test_refine_preserves_orientation(self, rng):
        A = rng.integers(1, 50, (16, 40))
        p = jag_m_heur(A, 9, orientation="ver")
        p.meta["transposed"] = True
        r = refine_jagged(p, A)
        r.validate()
        assert r.shape == p.shape

    def test_rejects_non_jagged(self, rng):
        A = rng.integers(1, 9, (8, 8))
        p = rect_uniform(A, 4)
        p.meta.pop("stripe_cuts", None)
        with pytest.raises(ParameterError):
            refine_jagged(p, A)

    def test_rejects_shape_mismatch(self, rng):
        A = rng.integers(1, 9, (8, 8))
        p = jag_m_heur(A, 4, orientation="hor")
        with pytest.raises(ParameterError):
            refine_jagged(p, rng.integers(1, 9, (10, 8)))


class TestIncrementalJagged:
    def test_first_step_is_full(self):
        inc = IncrementalJagged(8)
        p = inc.step(blob_snapshots(steps=1)[0])
        p.validate()
        assert inc.full_repartitions == 1 and inc.refinements == 0

    def test_migration_tradeoff(self):
        """Higher threshold -> fewer full repartitions and less migration."""
        snaps = blob_snapshots(steps=10)
        results = {}
        for thr in (0.0, 0.1, 0.3):
            inc = IncrementalJagged(16, threshold=thr)
            prev = None
            migration = 0
            for A in snaps:
                pref = PrefixSum2D(A)
                p = inc.step(pref)
                p.validate()
                if prev is not None:
                    migration += migration_volume(prev, p, pref)
                prev = p
            results[thr] = (migration, inc.full_repartitions)
        assert results[0.3][1] < results[0.0][1]  # fewer full repartitions
        migration = [results[thr][0] for thr in (0.0, 0.1, 0.3)]
        assert migration == sorted(migration, reverse=True)  # no more migration

    def test_balance_stays_bounded(self):
        snaps = blob_snapshots(steps=10)
        inc = IncrementalJagged(16, threshold=0.2)
        for A in snaps:
            pref = PrefixSum2D(A)
            p = inc.step(pref)
            fresh = jag_m_heur(pref, 16)
            assert p.max_load(pref) <= 1.2 * fresh.max_load(pref) + 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            IncrementalJagged(0)
        with pytest.raises(ParameterError):
            IncrementalJagged(4, threshold=-0.1)

    def test_full_vs_refine_decision_exact_past_float_precision(self, monkeypatch):
        """Big-int regression: the drift decision must not round through float.

        With refined/fresh max loads near 2^62 sitting just past the exact
        ``(1 + threshold)`` boundary, the old expression
        ``refined > (1.0 + threshold) * fresh`` rounds the product and keeps
        the drifted refinement; the exact rational comparison rebuilds.
        """
        import repro.dynamic.incremental as mod

        refined_lmax = 2536428244843917064  # > 1.1 * fresh exactly ...
        fresh_lmax = 2305843858949015501  # ... but not in float arithmetic
        assert not refined_lmax > (1.0 + 0.1) * fresh_lmax  # float says keep

        class FakePart:
            def __init__(self, lmax):
                self._lmax = lmax
                self.meta = {}

            def max_load(self, pref):
                return self._lmax

        fresh_parts = iter([FakePart(10), FakePart(fresh_lmax)])
        monkeypatch.setattr(mod, "jag_m_heur", lambda pref, m: next(fresh_parts))
        monkeypatch.setattr(
            mod, "refine_jagged", lambda prev, pref: FakePart(refined_lmax)
        )

        inc = IncrementalJagged(4, threshold=0.1)
        A = np.ones((2, 2), dtype=np.int64)
        inc.step(A)  # install the first (fake) full partition
        chosen = inc.step(A)
        # exact arithmetic: the refinement drifted past the threshold, so
        # the fresh partition must win
        assert chosen.max_load(None) == fresh_lmax
        assert inc.full_repartitions == 2 and inc.refinements == 0
