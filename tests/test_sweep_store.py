"""The disk-backed sweep-fact store: bit-identity, scale transfer, robustness.

The contract extends the sweep engine's: a sweep warm-started *from disk*
(fresh process, fresh prefix — only the store file survives) returns
partitions bit-identical to cold calls, for the original instance and for
any positive-integer multiple of it.  A corrupt, truncated or
version-mismatched store is ignored, never trusted; concurrent flushes
merge last-writer-wins and never corrupt the file.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D, prefix_2d
from repro.core.registry import partition_2d
from repro.perf.counters import op_counters
from repro.sweep import SweepStore, instance_digest, use_sweep
from repro.sweep.engine import sweep

ALGOS = ["JAG-PQ-HEUR", "JAG-M-HEUR", "JAG-PQ-OPT", "JAG-M-OPT", "RECT-NICOL"]
M_VALUES = [4, 6, 12, 20]
HIER = ["HIER-RB", "HIER-RELAXED", "HIER-RB-DIST"]


def _rects(part):
    return [(r.r0, r.r1, r.c0, r.c1) for r in part.rects]


def _matrix(seed: int = 3, n: int = 36) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 60, size=(n, n)).astype(np.int64)


def _cold(A, name, m):
    return _rects(partition_2d(prefix_2d(A), m, name))


@pytest.fixture()
def store_path(tmp_path):
    return os.fspath(tmp_path / "facts.json")


def _populate(A, path, algos=ALGOS, ms=M_VALUES):
    with use_sweep(store=path):
        pref = prefix_2d(A)
        for name in algos:
            for m in sorted(ms, reverse=True):
                partition_2d(pref, m, name)


class TestWarmFromDisk:
    def test_bit_identical_to_cold(self, store_path):
        """Facts persisted by one scope leave a later scope's results unchanged."""
        A = _matrix()
        cold = {(n, m): _cold(A, n, m) for n in ALGOS for m in M_VALUES}
        _populate(A, store_path)
        assert os.path.getsize(store_path) > 0
        with use_sweep(store=store_path):
            pref = prefix_2d(A)  # fresh prefix: only the file carries facts
            for name in ALGOS:
                for m in M_VALUES:
                    assert _rects(partition_2d(pref, m, name)) == cold[(name, m)]

    def test_warm_run_hits_exact_bounds(self, store_path):
        """The second scope really consumes the file (exact-hit, no recompute)."""
        from repro.jagged.m_opt import jag_m_opt_bottleneck

        A = _matrix()
        _populate(A, store_path, algos=["JAG-M-OPT"], ms=[6])
        with use_sweep(store=store_path) as st:
            pref = prefix_2d(A)
            exact, lb, ub = st.mono_bounds(pref, "jag_m", 6)
            assert exact is not None
            # the fact is the main-dimension-0 class optimum (the registry
            # entry returns the better of both orientations)
            assert exact == jag_m_opt_bottleneck(prefix_2d(A), 6)

    def test_sweep_entry_point_takes_store(self, store_path):
        A = _matrix(5, 24)
        r1 = sweep(A, ["JAG-M-OPT"], [4, 6], store=store_path)
        r2 = sweep(A, ["JAG-M-OPT"], [4, 6], store=store_path)
        for key, part in r1:
            assert _rects(r2[key]) == _rects(part)

    def test_env_var_attaches_store(self, store_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_STORE", store_path)
        A = _matrix(9, 20)
        with use_sweep():
            partition_2d(prefix_2d(A), 6, "JAG-M-OPT")
        assert os.path.exists(store_path)
        s = SweepStore(store_path)
        s.load()
        assert s.ignored_reason is None
        dig, _ = instance_digest(prefix_2d(A))
        assert s.get(dig) is not None

    def test_flush_failure_warns_not_raises(self, tmp_path):
        bad = os.fspath(tmp_path / "no" / "such" / "dir" / "facts.json")
        A = _matrix(2, 16)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with use_sweep(store=bad):
                partition_2d(prefix_2d(A), 4, "JAG-M-OPT")
        assert any("flush failed" in str(w.message) for w in caught)


class TestScaleTransfer:
    def test_scaled_instance_shares_digest(self):
        A = _matrix(4, 18)
        d1, s1 = instance_digest(prefix_2d(A))
        d2, s2 = instance_digest(prefix_2d(A * 5))
        assert d1 == d2
        assert (s1, s2) == (int(np.gcd.reduce(A, axis=None)), 5 * s1)

    def test_scaled_warm_bit_identical(self, store_path):
        """Facts from A warm a c·A sweep; results equal c·A cold calls."""
        A = _matrix(6, 30)
        _populate(A, store_path)
        C = A * 7
        cold = {(n, m): _cold(C, n, m) for n in ALGOS for m in M_VALUES}
        with use_sweep(store=store_path) as st:
            pref = prefix_2d(C)
            # the store really transfers: bounds exist before any call here
            exact, _, ub = st.mono_bounds(pref, "jag_m", max(M_VALUES))
            assert exact is not None or ub is not None
            for name in ALGOS:
                for m in M_VALUES:
                    assert _rects(partition_2d(pref, m, name)) == cold[(name, m)]

    def test_scaled_bounds_scale_exactly(self, store_path):
        from repro.jagged.m_opt import jag_m_opt_bottleneck

        A = _matrix(8, 24)
        opt = jag_m_opt_bottleneck(prefix_2d(A), 6)
        _populate(A, store_path, algos=["JAG-M-OPT"], ms=[6])
        with use_sweep(store=store_path) as st:
            pref = prefix_2d(A * 3)
            exact, _, _ = st.mono_bounds(pref, "jag_m", 6)
            assert exact == 3 * opt


class TestHierWitnesses:
    def test_hier_warm_from_disk_drops_cut_calls(self, store_path):
        """HIER node decisions replay from disk: fewer cut kernel calls."""
        A = _matrix(7, 40)
        cold = {}
        cold_ops = {}
        for name in HIER:
            pref = prefix_2d(A)
            with op_counters() as ops:
                cold[name] = _rects(partition_2d(pref, 16, name))
            cold_ops[name] = ops.get("cut_calls", 0)
        _populate(A, store_path, algos=HIER, ms=[16])
        with use_sweep(store=store_path):
            pref = prefix_2d(A)
            for name in HIER:
                with op_counters() as ops:
                    warm = _rects(partition_2d(pref, 16, name))
                assert warm == cold[name]
                assert ops.get("cut_calls", 0) < cold_ops[name]

    def test_hier_witnesses_persisted(self, store_path):
        A = _matrix(3, 24)
        _populate(A, store_path, algos=["HIER-RB", "HIER-RELAXED"], ms=[8])
        with use_sweep(store=store_path) as st:
            pref = prefix_2d(A)
            for cls in ("hier_rb", "hier_relaxed"):
                # the achieved load is a class witness, visible unscoped
                assert st.mono_witness(pref, cls, 8) is not None

    def test_rb_scale_free_relaxed_scale_gated(self, store_path):
        """RB node facts transfer to a scaled instance; RELAXED ones do not."""
        A = _matrix(11, 36)
        _populate(A, store_path, algos=["HIER-RB", "HIER-RELAXED"], ms=[16])
        C = A * 2
        cold_rb = _cold(C, "HIER-RB", 16)
        cold_rel = _cold(C, "HIER-RELAXED", 16)
        with use_sweep(store=store_path):
            pref = prefix_2d(C)
            with op_counters() as ops:
                assert _rects(partition_2d(pref, 16, "HIER-RB")) == cold_rb
            assert ops.get("cut_calls", 0) == 0  # fully replayed across scales
            assert _rects(partition_2d(pref, 16, "HIER-RELAXED")) == cold_rel


class TestRobustness:
    def _ignored(self, path):
        s = SweepStore(path)
        s.load()
        return s.ignored_reason

    def test_truncated_file_ignored(self, store_path):
        A = _matrix(5, 20)
        _populate(A, store_path, algos=["JAG-M-OPT"], ms=[4])
        raw = open(store_path, "rb").read()
        with open(store_path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        assert self._ignored(store_path) is not None
        cold = _cold(A, "JAG-M-OPT", 4)
        with use_sweep(store=store_path):
            assert _rects(partition_2d(prefix_2d(A), 4, "JAG-M-OPT")) == cold

    def test_wrong_version_ignored(self, store_path):
        A = _matrix(5, 20)
        _populate(A, store_path, algos=["JAG-M-OPT"], ms=[4])
        doc = json.load(open(store_path))
        doc["version"] = 999
        json.dump(doc, open(store_path, "w"))
        assert "version" in (self._ignored(store_path) or "")
        with use_sweep(store=store_path) as st:
            assert st.mono_bounds(prefix_2d(A), "jag_m", 4) == (None, None, None)

    def test_checksum_mismatch_ignored(self, store_path):
        A = _matrix(5, 20)
        _populate(A, store_path, algos=["JAG-M-OPT"], ms=[4])
        doc = json.load(open(store_path))
        inst = next(iter(doc["payload"]["instances"].values()))
        for row in inst.get("mono", []):
            for key in row[2]:
                row[2][key] += 1  # tamper with an optimum, keep old checksum
        json.dump(doc, open(store_path, "w"))
        assert self._ignored(store_path) == "checksum mismatch"
        cold = _cold(A, "JAG-M-OPT", 4)
        with use_sweep(store=store_path):
            assert _rects(partition_2d(prefix_2d(A), 4, "JAG-M-OPT")) == cold

    def test_not_json_ignored(self, store_path):
        with open(store_path, "w") as fh:
            fh.write("not a store at all {{{")
        assert self._ignored(store_path) is not None

    def test_identical_bytes_different_shape_distinct(self, store_path):
        """Shape is hashed: a reshaped twin never borrows the other's facts."""
        A = _matrix(13, 24)[:4, :9].copy()
        B = A.reshape(9, 4).copy()
        assert A.tobytes() == B.tobytes()
        da, _ = instance_digest(prefix_2d(A))
        db, _ = instance_digest(prefix_2d(B))
        assert da != db
        _populate(A, store_path, algos=["JAG-M-OPT"], ms=[4])
        with use_sweep(store=store_path) as st:
            assert st.mono_bounds(prefix_2d(B), "jag_m", 4) == (None, None, None)

    def test_seeding_validates_semantics(self, store_path):
        """A checksum-valid store with contradictory facts cannot poison."""
        A = _matrix(5, 20)
        _populate(A, store_path, algos=["JAG-M-OPT"], ms=[4, 6])
        doc = json.load(open(store_path))
        inst = next(iter(doc["payload"]["instances"].values()))
        for row in inst.get("mono", []):
            if row[0] == "jag_m" and "4" in row[2]:
                row[2]["4"] = 1  # impossible optimum, violates monotonicity
        payload = doc["payload"]
        doc["sha256"] = SweepStore._checksum(payload)  # re-sign the tampering
        json.dump(doc, open(store_path, "w"))
        assert self._ignored(store_path) is None  # checksum accepts it...
        cold = _cold(A, "JAG-M-OPT", 6)
        with use_sweep(store=store_path):
            # ...but the validators reject the contradiction during seeding
            # and the sweep still returns cold-identical results
            assert _rects(partition_2d(prefix_2d(A), 6, "JAG-M-OPT")) == cold

    def test_concurrent_flush_never_corrupts(self, store_path):
        """Two processes flushing the same file: valid store, facts survive."""
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_flush_worker, args=(store_path, seed))
            for seed in (101, 202)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(120)
            assert p.exitcode == 0
        s = SweepStore(store_path)
        s.load()
        assert s.ignored_reason is None
        assert len(s._data) >= 1  # last-writer-wins at minimum, never torn


def _flush_worker(path: str, seed: int) -> None:
    A = _matrix(seed, 16)
    for _ in range(4):
        with use_sweep(store=path):
            partition_2d(prefix_2d(A), 4, "JAG-M-OPT")


class TestStoreFormat:
    def test_round_trip_preserves_big_ints(self, tmp_path):
        """json carries python ints losslessly — no 2^53 truncation."""
        path = os.fspath(tmp_path / "big.json")
        big = (1 << 62) + 7
        # one big cell: two would total past 2^63 - 1, which the substrate rejects
        A = np.array([[big, 1], [1, 1]], dtype=np.int64)
        pref = prefix_2d(A)
        with use_sweep(store=path) as st:
            st.record_mono_opt(pref, "jag_m", 4, big)
        with use_sweep(store=path) as st:
            exact, _, _ = st.mono_bounds(prefix_2d(A), "jag_m", 4)
            assert exact == big

    def test_merge_drops_conflicting_optima(self, tmp_path):
        from repro.sweep.store import _merge_instance

        a = {"shape": [2, 2], "mono": [["jag_m", [], {"4": 10}, {}]]}
        b = {"shape": [2, 2], "mono": [["jag_m", [], {"4": 11, "6": 5}, {}]]}
        merged = _merge_instance(a, b)
        table = merged["mono"][0][2]
        assert "4" not in table  # trust neither side of a conflict
        assert table["6"] == 5

    def test_merge_keeps_min_ubs(self, tmp_path):
        from repro.sweep.store import _merge_instance

        a = {"shape": [2, 2], "mono": [["jag_m", [], {}, {"4": 10}]]}
        b = {"shape": [2, 2], "mono": [["jag_m", [], {}, {"4": 8}]]}
        assert _merge_instance(a, b)["mono"][0][3]["4"] == 8


class TestParallelComposition:
    def test_csvs_identical_jobs_1_vs_4_with_store(self, tmp_path, monkeypatch):
        """Figure CSVs are byte-identical for any --jobs inside sweep scopes,
        cold and warm-from-disk alike."""
        from repro.experiments import ALL_FIGURES
        from repro.experiments.cli import main
        from tests.test_experiments import TINY

        monkeypatch.setenv("REPRO_PARALLEL_MIN_CELLS", "0")
        monkeypatch.setattr(
            "repro.experiments.cli.ALL_RUNNABLE",
            {"fig05": lambda sc: ALL_FIGURES["fig05"](TINY)},
        )
        store = os.fspath(tmp_path / "facts.json")
        outs = {}
        for tag, jobs in (("serial", "1"), ("par", "4"), ("warm", "4")):
            out = tmp_path / tag
            rc = main(
                [
                    "--figures",
                    "fig05",
                    "--out",
                    os.fspath(out),
                    "--jobs",
                    jobs,
                    "--sweep-store",
                    store,
                ]
            )
            assert rc == 0
            outs[tag] = (out / "fig05.csv").read_bytes()
        assert outs["serial"] == outs["par"] == outs["warm"]
