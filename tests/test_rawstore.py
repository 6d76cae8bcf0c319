"""Tests for the raw-result figure cache (``repro.experiments.rawstore``).

Covers the three pillars the module promises:

* incremental — a second run over a populated store is all cache hits and
  byte-identical;
* interruptible/resumable — a run killed mid-figure (simulated with
  :class:`InterruptingRawStore`) resumes from the flushed cells, for
  ``--jobs 1`` and ``--jobs 4`` alike;
* safe — truncated / tampered / version-skewed / mis-keyed files are
  ignored, recomputed cold, and healed on the next flush.
"""

import dataclasses
import json
import os

import pytest

from repro.experiments import ALL_EXTENSIONS, ALL_FIGURES, TINY, use_raw_store
from repro.experiments.rawstore import (
    MISS,
    InterruptingRawStore,
    RawStore,
    SimulatedInterrupt,
    cell,
    combine_digests,
    current_raw_store,
    digest_matrix,
    set_default_raw_store,
)
from repro.experiments.pool import cell_pool


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    """Keep each test's store explicit: clear env + process default."""
    monkeypatch.delenv("REPRO_RAW_STORE", raising=False)
    set_default_raw_store(None)
    yield
    set_default_raw_store(None)


def _key(store, **over):
    kw = dict(profile="tiny", digest="abc:1", algo="JAG-M-HEUR", m=4)
    kw.update(over)
    return store.make_key(**kw)


class TestStoreBasics:
    def test_roundtrip(self, tmp_path):
        store = RawStore(tmp_path)
        key = _key(store)
        assert store.load(key) is MISS
        store.store(key, 0.125)
        assert store.load(key) == 0.125
        assert store.counters() == {"hits": 1, "misses": 1, "invalid": 0}

    def test_resolve_computes_once(self, tmp_path):
        store = RawStore(tmp_path)
        key = _key(store)
        calls = []
        for _ in range(3):
            v = store.resolve(key, lambda: calls.append(1) or 0.5)
        assert v == 0.5 and len(calls) == 1
        assert store.hits == 2 and store.misses == 1

    def test_distinct_keys_distinct_files(self, tmp_path):
        store = RawStore(tmp_path)
        variants = [
            _key(store),
            _key(store, m=9),
            _key(store, algo="HIER-RB"),
            _key(store, digest="abc:2"),
            _key(store, metric="runtime_s"),
            _key(store, scope=(("threshold", ("float", "0x1p-1")),)),
            _key(store, profile="small"),
        ]
        paths = {store._path(k) for k in variants}
        assert len(paths) == len(variants)

    def test_profile_keying_isolation(self, tmp_path):
        """Same instance + algorithm under another profile must not hit."""
        store = RawStore(tmp_path)
        store.store(_key(store), 1.0)
        assert store.load(_key(store, profile="tiny2")) is MISS

    def test_force_recomputes_but_still_writes(self, tmp_path):
        store = RawStore(tmp_path)
        key = _key(store)
        store.store(key, 1.0)
        forced = RawStore(tmp_path, force=True)
        assert forced.load(key) is MISS  # no lookup under --force
        forced.store(key, 2.0)
        assert RawStore(tmp_path).load(key) == 2.0  # fresh value refreshed

    def test_value_types_roundtrip(self, tmp_path):
        store = RawStore(tmp_path)
        for metric, value in [
            ("imbalance", 0.07386363636363637),
            ("lmax_lavg", [1234, 1101.5625]),
            ("runtime_s", 0.0031155890008929607),
            ("comm_volume", 4812),
            ("migration_series", [0.25, 0.125, 3]),
        ]:
            key = _key(store, metric=metric)
            store.store(key, value)
            assert RawStore(tmp_path).load(key) == value


class TestIntegrity:
    """Every corruption mode degrades to a cold recompute, never an error."""

    def _stored(self, tmp_path):
        store = RawStore(tmp_path)
        key = _key(store)
        store.store(key, 0.25)
        return store, key, store._path(key)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: open(p, "w").close(),  # truncated to empty
            lambda p: open(p, "a").write("garbage"),  # trailing junk
            lambda p: open(p, "w").write("not json at all"),
            lambda p: _rewrite(p, "value", 99.0),  # tampered value
            lambda p: _rewrite(p, "version", 999),  # version skew
            lambda p: _rewrite(p, "format", "other"),
            lambda p: _drop(p, "sha256"),
            lambda p: _drop(p, "value"),
            lambda p: open(p, "w").write(json.dumps([1, 2, 3])),  # non-dict
        ],
    )
    def test_corruption_recomputes_cold_and_heals(self, tmp_path, corrupt):
        _, key, path = self._stored(tmp_path)
        corrupt(path)
        store = RawStore(tmp_path)
        assert store.resolve(key, lambda: 0.25) == 0.25
        assert store.invalid == 1 and store.misses == 1 and store.hits == 0
        # the recompute healed the file: next reader hits clean
        healed = RawStore(tmp_path)
        assert healed.load(key) == 0.25
        assert healed.counters() == {"hits": 1, "misses": 0, "invalid": 0}

    def test_key_mismatch_under_colliding_name(self, tmp_path):
        """A file whose embedded key disagrees with its name is rejected."""
        store, key, path = self._stored(tmp_path)
        other = _key(store, digest="zzz:1")
        doc = {
            "format": "repro-raw-cell",
            "version": 1,
            "key": other,
            "value": 9.0,
            "sha256": store._checksum(other, 9.0),
        }
        with open(path, "w") as fh:  # checksum valid, key wrong for this path
            json.dump(doc, fh)
        fresh = RawStore(tmp_path)
        assert fresh.load(key) is MISS
        assert fresh.invalid == 1

    def test_schema_bump_misses_cleanly(self, tmp_path, monkeypatch):
        store, key, _ = self._stored(tmp_path)
        monkeypatch.setattr("repro.experiments.rawstore.SCHEMA", 2)
        bumped = RawStore(tmp_path)
        assert bumped.load(_key(bumped)) is MISS  # new key -> new path


class TestAmbientSelection:
    def test_no_store_computes(self):
        assert current_raw_store() is None
        assert cell("tiny", "d:1", "A", 2, lambda: 0.5) == 0.5

    def test_use_raw_store_scopes(self, tmp_path):
        with use_raw_store(tmp_path) as store:
            assert current_raw_store() is store
            assert cell("tiny", "d:1", "A", 2, lambda: 0.5) == 0.5
            assert store.misses == 1
            with use_raw_store(None):  # inner scope disables caching
                assert current_raw_store() is None
        assert current_raw_store() is None

    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RAW_STORE", str(tmp_path))
        set_default_raw_store(None)
        monkeypatch.setattr("repro.experiments.rawstore._ENV_LOADED", False)
        store = current_raw_store()
        assert store is not None and store.root == str(tmp_path)

    def test_kwargs_scope_keys_cells_apart(self, tmp_path):
        with use_raw_store(tmp_path) as store:
            a = cell("tiny", "d:1", "A", 2, lambda: 1.0, num_stripes="sqrt")
            b = cell("tiny", "d:1", "A", 2, lambda: 2.0, num_stripes="auto")
        assert (a, b) == (1.0, 2.0)
        assert store.misses == 2

    def test_combine_digests_order_sensitive(self):
        assert combine_digests(["a:1", "b:1"]) != combine_digests(["b:1", "a:1"])
        assert combine_digests(["a:1"]) != combine_digests(["a:11"])

    def test_digest_matrix_includes_scale(self):
        import numpy as np

        A = np.array([[2, 4], [6, 8]], dtype=np.int64)
        assert digest_matrix(A) != digest_matrix(A // 2)
        assert digest_matrix(A).split(":")[0] == digest_matrix(A // 2).split(":")[0]


class TestSparseCell:
    def test_csr_cell_cold_then_warm(self, tmp_path):
        """A CSR instance's cell: computed and flushed cold, then served from disk."""
        from repro.core.prefix import PrefixSum2D
        from repro.core.sparse import SparsePrefix2D
        from repro.experiments.figures import _imb_cell
        from repro.experiments.rawstore import digest_prefix
        from repro.instances.spmv import spmv_sparse

        pref = spmv_sparse(256, model="rmat", scale=12, edge_factor=2, seed=0)
        assert isinstance(pref, SparsePrefix2D)
        dig = digest_prefix(pref)
        assert dig == digest_prefix(PrefixSum2D(pref.cells_dense()))

        cold = RawStore(tmp_path)
        with use_raw_store(None, store=cold):
            value = _imb_cell("tiny", dig, "JAG-M-HEUR", 16, pref)
        assert cold.counters() == {"hits": 0, "misses": 1, "invalid": 0}
        assert os.path.exists(cold._path(_key(cold, digest=dig, m=16)))

        warm = RawStore(tmp_path)
        with use_raw_store(None, store=warm):
            assert _imb_cell("tiny", dig, "JAG-M-HEUR", 16, pref) == value
        assert warm.counters() == {"hits": 1, "misses": 0, "invalid": 0}


#: the batched grid (fig03/fig04), per-cell sweeps (fig05/fig13), the
#: verbatim ``runtime_s`` replay (fig06), kwargs-scoped cells (fig09, ext3)
#: and the combined-stream digest (ext2)
FARM = ("fig03", "fig04", "fig05", "fig06", "fig09", "fig13", "ext2", "ext3")


def _figures_under(store, figs=("fig05", "fig13")):
    runnable = {**ALL_FIGURES, **ALL_EXTENSIONS}
    out = {}
    with use_raw_store(None, store=store):
        for fig in figs:
            out[fig] = runnable[fig](TINY).csv_bytes()
    return out


class TestFigureFarm:
    def test_second_run_all_hits_byte_identical(self, tmp_path):
        cold = _figures_under(RawStore(tmp_path), FARM)
        warm_store = RawStore(tmp_path)
        warm = _figures_under(warm_store, FARM)
        assert warm == cold
        assert warm_store.misses == 0 and warm_store.invalid == 0
        assert warm_store.hits > 0

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_kill_and_resume_byte_identical(self, tmp_path, jobs):
        # fig03 ships its cells to the pool in chunks; fig06 is left out
        # (a resumed run re-measures its wall-clock cells)
        figs = ("fig03", "fig05", "fig13")
        baseline = _figures_under(RawStore(tmp_path / "baseline"), figs)

        killed = InterruptingRawStore(tmp_path / "resumed", abort_after=7)
        with cell_pool(jobs):
            with pytest.raises(SimulatedInterrupt):
                _figures_under(killed, figs)
            flushed = sum(
                len(files) for _, _, files in os.walk(tmp_path / "resumed")
            )
            assert flushed == 7  # every write up to the kill landed atomically

            resumer = RawStore(tmp_path / "resumed")
            resumed = _figures_under(resumer, figs)
        assert resumed == baseline
        assert resumer.hits >= 7  # the flushed cells were reused, not redone

    def test_tampered_store_still_correct(self, tmp_path):
        root = tmp_path / "raw"  # conftest parks $REPRO_CACHE in tmp_path
        baseline = _figures_under(RawStore(root))
        files = sorted(
            os.path.join(dirpath, f)
            for dirpath, _, names in os.walk(root)
            for f in names
        )
        for path in files[::2]:  # tamper every other cell
            _rewrite(path, "value", 1e9)
        store = RawStore(root)
        assert _figures_under(store) == baseline
        assert store.invalid == len(files[::2])

    def test_profiles_do_not_cross_hit(self, tmp_path):
        _figures_under(RawStore(tmp_path), figs=("fig05",))
        other = dataclasses.replace(TINY, name="tiny2")
        store = RawStore(tmp_path)
        with use_raw_store(None, store=store):
            ALL_FIGURES["fig05"](other)
        assert store.hits == 0 and store.misses > 0


def _rewrite(path, field, value):
    with open(path) as fh:
        doc = json.load(fh)
    doc[field] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _drop(path, field):
    with open(path) as fh:
        doc = json.load(fh)
    del doc[field]
    with open(path, "w") as fh:
        json.dump(doc, fh)
