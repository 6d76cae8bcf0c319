"""The disk-backed JAG-M-OPT fact store: bit-identity, scale transfer, robustness.

The contract extends the warm-start scope's: a scope warm-started *from
disk* (fresh process, fresh prefix — only the store file survives) returns
partitions bit-identical to cold calls, for the original instance and for
any positive-integer multiple of it.  A corrupt, truncated or
version-mismatched store is ignored, never trusted; concurrent flushes
merge last-writer-wins and never corrupt the file; a scope that adds no
fact does not touch it.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D, prefix_2d
from repro.core.registry import partition_2d
from repro.sweep import SweepStore, instance_digest, use_sweep
from repro.sweep.store import canonical_sha256, write_json_atomic

ALGOS = ["JAG-PQ-HEUR", "JAG-M-HEUR", "JAG-PQ-OPT", "JAG-M-OPT", "RECT-NICOL"]
M_VALUES = [4, 6, 12, 20]


def _rects(part):
    return [(r.r0, r.r1, r.c0, r.c1) for r in part.rects]


def _matrix(seed: int = 3, n: int = 36) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 60, size=(n, n)).astype(np.int64)


def _cold(A, name, m):
    return _rects(partition_2d(prefix_2d(A), m, name))


def _read(path) -> tuple[dict, dict]:
    """``(header, payload)`` of a version-4 store file."""
    with open(path, "rb") as fh:
        head, _, body = fh.read().partition(b"\n")
    return json.loads(head), json.loads(body)


def _write(path, payload: dict, header: dict | None = None) -> None:
    """Write a version-4 store file, signed over the payload bytes unless
    ``header`` is given (a stale or foreign header)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    if header is None:
        sha = hashlib.sha256(body).hexdigest()
        header = {"format": "repro-sweep-store", "sha256": sha, "version": 4}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + body)


def _write_single_doc(path, version: int, payload: dict) -> None:
    """A file in the single-document layout of versions 1-3."""
    doc = {
        "format": "repro-sweep-store",
        "version": version,
        "payload": payload,
        "sha256": canonical_sha256(payload),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


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
        # -HOR: a -BEST solve records only the winning orientation's optimum
        _populate(A, store_path, algos=["JAG-M-OPT-HOR"], ms=[6])
        with use_sweep(store=store_path) as st:
            pref = prefix_2d(A)
            exact, lb, ub = st.bounds(pref, 6)
            assert exact is not None
            # the fact is the main-dimension-0 class optimum
            assert exact == jag_m_opt_bottleneck(prefix_2d(A), 6)

    def test_sweep_entry_point_takes_store(self, store_path):
        """use_sweep takes a path or a SweepStore object for the same file."""
        A = _matrix(5, 24)
        runs = []
        for store in (store_path, SweepStore(store_path)):
            with use_sweep(store=store):
                pref = prefix_2d(A)
                runs.append([_rects(partition_2d(pref, m, "JAG-M-OPT")) for m in (6, 4)])
        assert runs[0] == runs[1]
        s = SweepStore(store_path)
        s.load()
        assert s.ignored_reason is None
        assert s.get(instance_digest(prefix_2d(A))[0]) is not None

    def test_warm_run_adding_nothing_leaves_file_untouched(self, store_path):
        """A scope whose solves add no fact neither reads nor writes the file."""
        A = _matrix()
        _populate(A, store_path)
        before = open(store_path, "rb").read(), os.stat(store_path)
        store = SweepStore(store_path)
        with use_sweep(store=store):
            pref = prefix_2d(A)
            for name in ALGOS:
                for m in M_VALUES:
                    partition_2d(pref, m, name)
        assert store.seeded > 0
        after = open(store_path, "rb").read(), os.stat(store_path)
        assert after[0] == before[0]
        assert (after[1].st_ino, after[1].st_mtime_ns) == (before[1].st_ino, before[1].st_mtime_ns)

    def test_new_facts_merge_into_the_entry(self, store_path, monkeypatch):
        """A warm scope that solves a new m adds its facts to the seeded
        entry (none lost), and the next scope over both records no fact
        and does not touch the file."""
        import repro.jagged.m_opt as m_opt
        from repro.jagged.m_opt import jag_m_opt_bottleneck

        A = _matrix(9, 28)
        _populate(A, store_path, algos=["JAG-M-OPT-HOR"], ms=[6])
        old = _read(store_path)[1]["instances"]
        _populate(A, store_path, algos=["JAG-M-OPT-HOR"], ms=[6, 4])
        new = _read(store_path)[1]["instances"]
        for dig, inst in old.items():
            facts = {(k, i): e for k, i, e in new[dig]["stripe"]["facts"]}
            for k, i, entries in inst["stripe"]["facts"]:
                assert all(e in facts[(k, i)] for e in entries)
        (inst,), (before,) = new.values(), old.values()
        assert sorted(inst["opt"]) == [[4, jag_m_opt_bottleneck(prefix_2d(A), 4)], *before["opt"]]
        stat = os.stat(store_path)
        record = m_opt._memo_record
        calls = []
        monkeypatch.setattr(m_opt, "_memo_record", lambda *a: calls.append(a) or record(*a))
        _populate(A, store_path, algos=["JAG-M-OPT-HOR"], ms=[6, 4])
        assert calls == []  # every fact the solves read came from the file
        assert os.stat(store_path).st_mtime_ns == stat.st_mtime_ns

    def test_losing_orientation_keeps_only_probe_facts(self, store_path):
        """A -BEST solve's losing orientation is stored with its probe facts
        and no stripe facts; a warm rerun still matches cold."""
        A = _matrix(11, 30)
        _populate(A, store_path, algos=["JAG-M-OPT"], ms=[6])
        insts = _read(store_path)[1]["instances"]
        loser = [inst for inst in insts.values() if not inst["opt"]]
        assert len(insts) == 2 and len(loser) == 1
        assert loser[0]["stripe"]["probe"] and loser[0]["stripe"]["facts"] == []
        cold = _cold(A, "JAG-M-OPT", 6)
        with use_sweep(store=store_path):
            assert _rects(partition_2d(prefix_2d(A), 6, "JAG-M-OPT")) == cold

    def test_capped_entry_settles(self, store_path, monkeypatch):
        """Facts beyond the per-instance cap are dropped at harvest, so
        rerunning a capped instance stops rewriting the file."""
        import repro.sweep.store as store_mod

        monkeypatch.setattr(store_mod, "_MAX_FACTS", 40)
        A = _matrix(12, 40)
        for _ in range(2):
            _populate(A, store_path, algos=["JAG-M-OPT-HOR"], ms=[12])
        stat = os.stat(store_path)
        _populate(A, store_path, algos=["JAG-M-OPT-HOR"], ms=[12])
        assert os.stat(store_path).st_mtime_ns == stat.st_mtime_ns
        for inst in _read(store_path)[1]["instances"].values():
            assert sum(len(e) for _, _, e in inst["stripe"]["facts"]) <= 40

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
            exact, _, ub = st.bounds(pref, max(M_VALUES))
            assert exact is not None or ub is not None
            for name in ALGOS:
                for m in M_VALUES:
                    assert _rects(partition_2d(pref, m, name)) == cold[(name, m)]

    def test_scaled_new_facts_stored_at_primitive_scale(self, store_path):
        """Facts a warm scope on 3·A adds are stored divided by 3: a later
        scope on A reads the new optimum exactly and stays cold-identical."""
        from repro.jagged.m_opt import jag_m_opt_bottleneck

        A = _matrix(10, 24)
        _populate(A, store_path, algos=["JAG-M-OPT-HOR"], ms=[6])
        _populate(A * 3, store_path, algos=["JAG-M-OPT-HOR"], ms=[4])
        with use_sweep(store=store_path) as st:
            pref = prefix_2d(A)
            assert st.bounds(pref, 4)[0] == jag_m_opt_bottleneck(prefix_2d(A), 4)
            for m in (4, 6):
                got = partition_2d(pref, m, "JAG-M-OPT-HOR")
                assert _rects(got) == _cold(A, "JAG-M-OPT-HOR", m)

    def test_scaled_bounds_scale_exactly(self, store_path):
        from repro.jagged.m_opt import jag_m_opt_bottleneck

        A = _matrix(8, 24)
        opt = jag_m_opt_bottleneck(prefix_2d(A), 6)
        _populate(A, store_path, algos=["JAG-M-OPT-HOR"], ms=[6])
        with use_sweep(store=store_path) as st:
            pref = prefix_2d(A * 3)
            exact, _, _ = st.bounds(pref, 6)
            assert exact == 3 * opt


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
        header, payload = _read(store_path)
        _write(store_path, payload, header={**header, "version": 999})
        assert "version" in (self._ignored(store_path) or "")
        with use_sweep(store=store_path) as st:
            assert st.bounds(prefix_2d(A), 4) == (None, None, None)

        # a version-2 file, entries as that layout wrote them for this
        # instance (a few of each section): the m = 4 optimum beside the
        # retired heuristic witnesses and hierarchical node memos — the
        # whole file is ignored
        dig, _ = instance_digest(prefix_2d(A))
        inst = {
            "shape": [20, 20],
            "facts": [
                ["opt", "jag_m", [], [4], 3003],
                ["ub", "jag_m", [], [4], 3046],
                ["ub", "hier_rb", [["variant", "str:load"]], [4], 3046],
            ],
            "stripe": {
                "probe": [[2951, 5, False], [3023, 4, True]],
                "facts": [[0, 1, [[2951, 1, True]]]],
            },
            "rb": [[[0, 20, 0, 20, 0, 1, 1], [10, 5862, 0]]],
            "relaxed": {"1": [[[0, 20, 0, 20, 0, 4], [5, 1, 2893.0]]]},
        }
        _write_single_doc(store_path, 2, {"instances": {dig: inst}})
        assert self._ignored(store_path) == "version 2 != 4"
        cold = _cold(A, "JAG-M-OPT", 4)
        with use_sweep(store=store_path) as st:
            pref = prefix_2d(A)
            assert st.bounds(pref, 4) == (None, None, None)
            assert _rects(partition_2d(pref, 4, "JAG-M-OPT")) == cold
        s = SweepStore(store_path)
        s.load()
        assert s.ignored_reason is None  # the flush rewrote it as version 4
        assert list(s.get(dig)) == ["opt", "shape", "stripe"]

    def test_v3_file_ignored(self, store_path):
        """A checksum-valid file in the single-document version-3 layout,
        with this instance's m = 4 optimum, is ignored whole and rewritten."""
        A = _matrix(5, 20)
        dig, _ = instance_digest(prefix_2d(A))
        inst = {
            "shape": [20, 20],
            "opt": [[4, 3003]],
            "stripe": {"probe": [[3002, 5, False]], "facts": [[0, 1, [[2951, 1, True]]]]},
        }
        _write_single_doc(store_path, 3, {"instances": {dig: inst}})
        assert self._ignored(store_path) == "version 3 != 4"
        cold = _cold(A, "JAG-M-OPT", 4)
        with use_sweep(store=store_path) as st:
            pref = prefix_2d(A)
            assert st.bounds(pref, 4) == (None, None, None)
            assert _rects(partition_2d(pref, 4, "JAG-M-OPT")) == cold
        header, _ = _read(store_path)
        assert header["version"] == 4 and self._ignored(store_path) is None

    def test_v1_file_ignored(self, store_path):
        """A checksum-valid file in the old two-family layout is never read."""
        A = _matrix(5, 20)
        dig, _ = instance_digest(prefix_2d(A))
        inst = {"shape": [20, 20], "mono": [["jag_m", [], {"4": 1}, {}]], "grid": []}
        _write_single_doc(store_path, 1, {"instances": {dig: inst}})
        assert self._ignored(store_path) == "version 1 != 4"
        with use_sweep(store=store_path) as st:
            pref = prefix_2d(A)
            assert st.bounds(pref, 4) == (None, None, None)
            partition_2d(pref, 4, "JAG-M-OPT")  # a fact, so the scope flushes
        s = SweepStore(store_path)
        s.load()
        assert s.ignored_reason is None  # the flush rewrote it as version 4

    def test_checksum_mismatch_ignored(self, store_path):
        A = _matrix(5, 20)
        _populate(A, store_path, algos=["JAG-M-OPT"], ms=[4])
        header, payload = _read(store_path)
        inst = next(i for i in payload["instances"].values() if i["opt"])
        for row in inst["opt"]:
            row[1] += 1  # tamper with an optimum, keep old checksum
        _write(store_path, payload, header=header)
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
            assert st.bounds(prefix_2d(B), 4) == (None, None, None)

    def test_seeding_validates_semantics(self, store_path):
        """A checksum-valid store with contradictory facts cannot poison."""
        A = _matrix(5, 20)
        _populate(A, store_path, algos=["JAG-M-OPT"], ms=[4, 6])
        _, payload = _read(store_path)
        inst = next(i for i in payload["instances"].values() if i["opt"])
        for row in inst["opt"]:
            if row[0] == 4:
                row[1] = 1  # impossible optimum, violates monotonicity
        _write(store_path, payload)  # re-sign the tampering
        assert self._ignored(store_path) is None  # checksum accepts it...
        cold = _cold(A, "JAG-M-OPT", 6)
        with use_sweep(store=store_path):
            # ...but the validators reject the contradiction during seeding
            # and the sweep still returns cold-identical results
            assert _rects(partition_2d(prefix_2d(A), 6, "JAG-M-OPT")) == cold

    @pytest.mark.parametrize("method", ["JAG-M-OPT-HOR", "JAG-M-OPT", "bottleneck"])
    @pytest.mark.parametrize("lie", ["below-every-bound", "between-bound-and-optimum"])
    def test_disproved_seed_heals(self, store_path, lie, method):
        """A lone wrong optimum passes seeding; the solve that disproves it
        (``record_opt`` rejects the result, or the DP at the converged
        bottleneck finds it infeasible) forgets the seeded facts, re-solves
        cold, no later instance of the matrix is seeded with the lie, and
        the flush replaces the poisoned entry."""
        from repro.jagged.m_opt import jag_m_opt_bottleneck

        A = _matrix(5, 20)
        pref = prefix_2d(A)
        lb, opt = max(-(-pref.total // 6), pref.max_element()), jag_m_opt_bottleneck(pref, 6)
        fake = 1 if lie == "below-every-bound" else (lb + opt) // 2
        assert fake < opt
        _populate(A, store_path, algos=["JAG-M-OPT-HOR"], ms=[4])
        _, payload = _read(store_path)
        (inst,) = payload["instances"].values()
        assert [m for m, _ in inst["opt"]] == [4]
        inst["opt"] = [[4, fake]]  # B*(6) <= B*(4) = fake: a wrong upper bound
        _write(store_path, payload)
        cold = None if method == "bottleneck" else _cold(A, method, 6)
        with use_sweep(store=store_path) as st:
            if method == "bottleneck":
                assert jag_m_opt_bottleneck(PrefixSum2D(A), 6) == opt
            else:
                assert _rects(partition_2d(prefix_2d(A), 6, method)) == cold
            # a second instance touched after the heal reads no lie, and
            # its facts do not carry the lie back into the flush
            again = PrefixSum2D(A)
            assert st.bounds(again, 4)[0] != fake
            assert jag_m_opt_bottleneck(again, 6) == opt
        inst = _read(store_path)[1]["instances"][instance_digest(pref)[0]]
        assert [4, fake] not in inst["opt"]

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
            st.record_opt(pref, 4, big)
        with use_sweep(store=path) as st:
            exact, _, _ = st.bounds(prefix_2d(A), 4)
            assert exact == big

    def test_file_is_header_line_then_signed_payload(self, store_path):
        """Version 4: a header line whose sha256 covers exactly the bytes of
        the canonical payload encoding that follows it."""
        _populate(_matrix(5, 20), store_path, algos=["JAG-M-OPT"], ms=[4])
        raw = open(store_path, "rb").read()
        head, _, body = raw.partition(b"\n")
        header, payload = _read(store_path)
        assert header == {
            "format": "repro-sweep-store",
            "sha256": hashlib.sha256(body).hexdigest(),
            "version": 4,
        }
        assert head == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert body == json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    def test_atomic_write_bytes_are_canonical_json(self, tmp_path):
        """The file holds exactly the compact sorted-key encoding, nothing else."""
        doc = {"b": [1, (1 << 70) + 3, {"z": None, "a": "\u00e9"}], "a": 1.5, "c": True}
        path = tmp_path / "doc.json"
        write_json_atomic(os.fspath(path), doc)
        assert path.read_bytes() == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert os.listdir(tmp_path) == ["doc.json"]  # the temp file was moved, not left

    def test_reused_store_flushes_only_its_own_scope(self, store_path):
        """A store object serving two scopes writes each harvest once.

        Regression: the harvest was never cleared, so the second flush wrote
        the first scope's facts back into a file deleted in between.
        """
        A, B = _matrix(21, 16), _matrix(22, 16)
        store = SweepStore(store_path)
        for M in (A, B):
            with use_sweep(store=store):
                partition_2d(prefix_2d(M), 4, "JAG-M-OPT")
            if M is A:
                os.remove(store_path)
        alone = store_path + ".b"
        with use_sweep(store=alone):
            partition_2d(prefix_2d(B), 4, "JAG-M-OPT")
        # the solve also touches B's transpose: compare against B alone
        got, want = (_read(p)[1]["instances"] for p in (store_path, alone))
        assert instance_digest(prefix_2d(B))[0] in want
        assert instance_digest(prefix_2d(A))[0] not in got
        assert got == want

    def test_merge_drops_conflicting_optima(self, tmp_path):
        from repro.sweep.store import _merge_instance

        a = {"shape": [2, 2], "opt": [[4, 10], [2, 12]]}
        b = {"shape": [2, 2], "opt": [[4, 11], [6, 5], [2, 12]]}
        merged = _merge_instance(a, b)
        # trust neither side of a conflict; agreeing and unrelated optima survive
        assert merged["opt"] == [[2, 12], [6, 5]]
