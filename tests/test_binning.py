"""The shared exact binning behind every SLAC and SpMV instance.

``repro.instances.spmv._bin_index`` guesses each point's bin arithmetically
and corrects the guess against the ``np.linspace`` edges; the result must
equal ``np.searchsorted(edges, x, side="right")`` for every point, and the
dense counts built from it must equal ``np.histogram2d(...).astype(int64)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ParameterError
from repro.instances import spmv as spmv_mod
from repro.instances.spmv import _bin_index, _hist2d_counts


def _probe_points(edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Every edge, its two float neighbours, points outside the range on
    both sides, and uniform points inside it."""
    lo, hi = float(edges[0]), float(edges[-1])
    width = hi - lo  # inf for the widest ranges: the outside points are ±inf
    t = rng.random(64)
    return np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [lo - width, lo - 0.5 * width, hi + 0.5 * width, hi + width],
            lo * (1.0 - t) + hi * t,
        ]
    )


@settings(max_examples=120, deadline=None)
@given(
    lo=st.floats(-1e6, 1e6, allow_nan=False),
    log_width=st.floats(-9.0, 6.0),
    n=st.integers(1, 80),
    n2=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_binning_equals_searchsorted_and_histogram2d(lo, log_width, n, n2, seed):
    rng = np.random.default_rng(seed)
    hi = lo + 10.0**log_width
    edges = np.linspace(lo, hi, n + 1)
    x = _probe_points(edges, rng)
    np.testing.assert_array_equal(
        _bin_index(x, edges), np.searchsorted(edges, x, side="right")
    )
    # the second axis gets its own range; both keep the rightmost edge
    y = rng.uniform(-2.0, 3.0, size=len(x))
    y[::7] = 3.0
    value_range = ((lo, hi), (-1.0, 3.0))
    H, _, _ = np.histogram2d(x, y, bins=(n, n2), range=value_range)
    ref = H.astype(np.int64)
    np.testing.assert_array_equal(_hist2d_counts(x, y, (n, n2), value_range), ref)


def test_overflowing_guess_takes_the_searchsorted_fallback(monkeypatch):
    """Across (-1e308, 1e308) the width overflows: ``linspace`` returns
    unsorted edges and no guess can be corrected, so every point is binned
    by ``searchsorted``.  The histogram itself refuses such a range (its
    edges are not numbers) with a ``ParameterError``."""
    with np.errstate(all="ignore"):
        edges = np.linspace(-1e308, 1e308, 17)
    x = np.concatenate([_probe_points(edges, np.random.default_rng(0)), [0.0, 1e300]])
    ref = np.searchsorted(edges, x, side="right")
    calls = []
    real = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: calls.append(1) or real(*a, **k))
    np.testing.assert_array_equal(_bin_index(x, edges), ref)
    assert calls
    monkeypatch.undo()
    with pytest.raises(ParameterError):
        _hist2d_counts(x, x, 16, ((-1e308, 1e308), (-1e308, 1e308)))


@pytest.mark.parametrize("value_range", [(0.0, 5e-324), (1e17, 1e17), (-1e300, 1e300)])
def test_degenerate_ranges_match_histogram2d(value_range):
    """A subnormal width, a collapsed range the ±0.5 widening cannot move
    (at 1e17 it rounds away) and a width near the float limit."""
    lo, hi = value_range
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5  # histogramdd's widening
    edges = np.linspace(lo, hi, 17)
    x = np.concatenate([_probe_points(edges, np.random.default_rng(1)), [0.0]])
    np.testing.assert_array_equal(
        _bin_index(x, edges), np.searchsorted(edges, x, side="right")
    )
    y = np.zeros_like(x)
    vr = (value_range, (-1.0, 1.0))
    H, _, _ = np.histogram2d(x, y, bins=(16, 3), range=vr)
    np.testing.assert_array_equal(_hist2d_counts(x, y, (16, 3), vr), H.astype(np.int64))


def test_numpy_integer_resolution_is_accepted():
    x = np.random.default_rng(2).uniform(0.0, 1.0, size=50)
    H, _, _ = np.histogram2d(x, x, bins=5, range=((0.0, 1.0), (0.0, 1.0)))
    for bins in (np.int64(5), (np.int64(5), np.int32(5))):
        counts = _hist2d_counts(x, x, bins, ((0.0, 1.0), (0.0, 1.0)))
        np.testing.assert_array_equal(counts, H.astype(np.int64))


def test_nonfinite_points_bin_like_searchsorted():
    edges = np.linspace(-1.0, 1.0, 9)
    x = np.array([np.nan, np.inf, -np.inf, 0.0, 1.0, -1.0])
    np.testing.assert_array_equal(
        _bin_index(x, edges), np.searchsorted(edges, x, side="right")
    )


def test_fast_path_settles_integer_coordinates_without_searchsorted(monkeypatch):
    """R-MAT and mesh coordinates bin exactly on the guess: no fallback."""
    monkeypatch.setattr(spmv_mod.np, "searchsorted", None)
    for model, nnz in (("mesh", 5 * 40 * 40 - 4 * 40), ("rmat", 8 * 2**10)):
        rows, cols, value_range = spmv_mod._spmv_points(64, model, 10, 8, 40, 0)
        assert _hist2d_counts(rows, cols, 64, value_range).sum() == nnz


@pytest.mark.parametrize(
    "value_range",
    [((1.0, 0.0), (0.0, 1.0)), ((0.0, np.inf), (0.0, 1.0)), ((0.0, 1.0), (-1e308, 1e308))],
)
def test_bad_range_is_a_parameter_error(value_range):
    x = np.zeros(3)
    with pytest.raises(ParameterError):
        _hist2d_counts(x, x, 4, value_range)
