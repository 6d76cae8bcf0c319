"""Tests for partition serialization (dict / JSON / NPZ round-trips)."""

import json

import numpy as np
import pytest

from repro.core.errors import ParameterError
from repro.core.prefix import PrefixSum2D
from repro.core.serialize import (
    load_partition,
    partition_from_dict,
    partition_to_dict,
    save_partition,
)
from repro.hierarchical import hier_rb
from repro.jagged import jag_m_heur
from repro.rectilinear import rect_nicol


def assert_same_partition(a, b, A):
    assert a.shape == b.shape
    assert a.m == b.m
    assert [tuple(r.to_inclusive()) for r in a.rects if not r.is_empty] == [
        tuple(r.to_inclusive()) for r in b.rects if not r.is_empty
    ]
    pf = PrefixSum2D(A)
    np.testing.assert_array_equal(a.loads(pf), b.loads(pf))


class TestDictRoundtrip:
    @pytest.mark.parametrize("algo", [jag_m_heur, hier_rb, rect_nicol])
    def test_roundtrip(self, rng, algo):
        A = rng.integers(1, 50, (20, 24))
        p = algo(A, 7)
        q = partition_from_dict(partition_to_dict(p))
        assert_same_partition(p, q, A)
        assert q.method == p.method

    def test_dict_is_jsonable(self, rng):
        A = rng.integers(1, 50, (10, 10))
        p = jag_m_heur(A, 4)
        payload = json.dumps(partition_to_dict(p))
        q = partition_from_dict(json.loads(payload))
        assert_same_partition(p, q, A)

    def test_meta_arrays_serialized(self, rng):
        A = rng.integers(1, 50, (12, 12))
        p = jag_m_heur(A, 4, orientation="hor")
        d = partition_to_dict(p)
        assert isinstance(d["meta"]["stripe_cuts"], list)
        assert d["meta"]["orientation"] == "hor"

    def test_rejects_foreign_payload(self):
        with pytest.raises(ParameterError):
            partition_from_dict({"format": "something-else"})


class TestFileRoundtrip:
    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_roundtrip(self, rng, tmp_path, suffix):
        A = rng.integers(1, 50, (16, 16))
        p = hier_rb(A, 5)
        path = save_partition(p, tmp_path / f"part{suffix}")
        q = load_partition(path)
        assert_same_partition(p, q, A)

    def test_validity_preserved(self, rng, tmp_path):
        A = rng.integers(1, 50, (16, 16))
        p = jag_m_heur(A, 9)
        q = load_partition(save_partition(p, tmp_path / "p.json"))
        q.validate()

    def test_owner_lookup_still_works(self, rng, tmp_path):
        # the O(log) indexer is dropped; the linear fallback must agree
        A = rng.integers(1, 50, (12, 12))
        p = jag_m_heur(A, 6)
        q = load_partition(save_partition(p, tmp_path / "p.npz"))
        for i in range(0, 12, 3):
            for j in range(0, 12, 3):
                assert q.owner_of(i, j) == p.owner_of(i, j)


def _payload(rects, shape=(4, 4)):
    return {"format": "repro-partition-v1", "shape": list(shape), "method": "", "rects": rects}


class TestExactCoordinates:
    """A stored partition converts exactly or not at all: a fractional,
    non-numeric, wrong-width or beyond-int64 coordinate is a
    ``ParameterError``, never a truncated rectangle."""

    @pytest.mark.parametrize(
        "rects, shape",
        [
            ([[0, 2.7, 0, 4], [2, 4, 0, 4]], (4, 4)),  # was Rect(0, 2, 0, 4)
            ([[0, 4, 0]], (4, 4)),  # was a bare TypeError
            ([[0, 4, 0, 4, 1]], (4, 4)),
            ([[0, 4, 0, 4], [0, 4]], (4, 4)),
            ([[0, 2**70, 0, 4]], (4, 4)),  # was an OverflowError in coords()
            ([[0, "4", 0, 4]], (4, 4)),
            ([[0, None, 0, 4]], (4, 4)),
            ([[0, 4, 0, 4]], (4.7, 4)),  # was shape (4, 4)
            ([[0, 4, 0, 4]], (4, 4, 1)),
        ],
        ids=["fraction", "width3", "width5", "ragged", "beyond-int64", "string", "none",
             "fractional-shape", "shape-width3"],
    )
    def test_dict_rejects_inexact_coordinates(self, rects, shape):
        with pytest.raises(ParameterError):
            partition_from_dict(_payload(rects, shape))

    def test_npz_rejects_fractional_coordinates(self, tmp_path):
        path = tmp_path / "p.npz"
        np.savez_compressed(
            path,
            coords=np.array([[0, 2.5, 0, 4], [2.5, 4, 0, 4]]),
            shape=np.array([4, 4]),
            method=np.array(""),
        )
        with pytest.raises(ParameterError, match="integers"):
            load_partition(path)

    def test_integral_floats_and_negatives_still_load(self):
        # exactly integral floats convert; a negative bound is validate()'s
        # to reject, as before
        p = partition_from_dict(_payload([[0, 4.0, 0, 4]], (4.0, 4)))
        assert p.shape == (4, 4) and p.coords().tolist() == [[0, 4, 0, 4]]
        q = partition_from_dict(_payload([[-1, 4, 0, 4]]))
        assert not q.is_valid()
