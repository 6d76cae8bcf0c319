"""Sparse matrix–vector multiplication workloads (intro refs [1]–[3]).

The paper's first application class is 2D-decomposed sparse linear algebra:
assigning a rectangle of the sparse matrix to each processor makes its work
proportional to the nonzeros inside the rectangle.  The load matrix is
therefore the *nonzero density histogram* of a sparse matrix at a chosen
blocking resolution.

Two synthetic sparsity models:

* ``rmat`` — recursive R-MAT quadrant sampling (power-law degrees, the
  skewed web/social-network regime where load-aware partitioners shine);
* ``mesh`` — a 5-point-stencil mesh matrix (banded, near-uniform rows; the
  structured-PDE regime).

Each model builds its nonzeros in :func:`_spmv_points`, and one exact
binning (:func:`_hist2d_counts`, bit-identical to ``np.histogram2d``)
counts them.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError

__all__ = ["spmv_instance", "rmat_edges"]

_Bins = int | tuple[int, int]
_Range = tuple[tuple[float, float], tuple[float, float]]


def rmat_edges(
    scale: int,
    edge_factor: int = 8,
    *,
    probs: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """R-MAT edge list: ``edge_factor · 2**scale`` edges over ``2**scale`` vertices.

    Each edge picks one of the four matrix quadrants per bit level with
    probabilities ``(a, b, c, d)`` — the Graph500 generator, vectorized over
    all edges at once (one random draw per bit level).
    """
    if scale <= 0 or edge_factor <= 0:
        raise ParameterError("need scale > 0 and edge_factor > 0")
    a, b, c, d = probs
    if not np.isclose(a + b + c + d, 1.0):
        raise ParameterError("quadrant probabilities must sum to 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n_edges = edge_factor * (1 << scale)
    rows = np.zeros(n_edges, dtype=np.int64)
    cols = np.zeros(n_edges, dtype=np.int64)
    for _ in range(scale):
        # quadrant choice per bit level: P(col bit) = b + d, and the row bit
        # is drawn conditionally on the chosen column half
        col_bit = rng.uniform(size=n_edges) >= a + c
        r2 = rng.uniform(size=n_edges)
        row_bit = np.where(col_bit, r2 >= b / (b + d), r2 >= a / (a + c))
        rows <<= 1
        rows |= row_bit
        cols <<= 1
        cols |= col_bit
    return np.stack([rows, cols], axis=1)


def _spmv_points(
    n: int, model: str, scale: int, edge_factor: int, mesh_size: int | None, seed
) -> tuple[np.ndarray, np.ndarray, _Range]:
    """Nonzero ``(rows, cols, value_range)`` of one model."""
    if n <= 0:
        raise ParameterError("n must be positive")
    key = model.lower()
    if key == "rmat":
        edges = rmat_edges(scale, edge_factor, seed=seed)
        size = 1 << scale
        return edges[:, 0], edges[:, 1], ((0, size), (0, size))
    if key == "mesh":
        k = mesh_size if mesh_size is not None else 256
        if k <= 0:
            raise ParameterError("mesh_size must be positive")
        size = k * k
        idx = np.arange(size, dtype=np.int64)
        right = idx[idx % k != 0]  # cells with a left neighbour
        rows = (idx, idx[k:], idx[:-k], right, right - 1)
        cols = (idx, idx[k:] - k, idx[:-k] + k, right - 1, right)
        return np.concatenate(rows), np.concatenate(cols), ((0, size), (0, size))
    raise ParameterError(f"unknown model {model!r}; choose 'rmat' or 'mesh'")


def spmv_instance(
    n: int,
    *,
    model: str = "rmat",
    scale: int = 14,
    edge_factor: int = 8,
    mesh_size: int | None = None,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Nonzero-count load matrix of a synthetic sparse matrix at ``n × n`` blocks.

    ``model="rmat"`` histograms an R-MAT edge list (power-law skew, zeros in
    the tail quadrants); ``model="mesh"`` builds the 5-point stencil matrix
    of a ``mesh_size²`` grid (block-banded, near-uniform).
    """
    rows, cols, value_range = _spmv_points(n, model, scale, edge_factor, mesh_size, seed)
    return _hist2d_counts(rows, cols, n, value_range)


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, x, side="right")`` for ``np.linspace`` edges.

    The guess ``floor((x - lo) · n / (hi - lo))`` is off by at most a rounding
    step; two exact rounds against ``edges`` move it, and a point unsettled
    after them (a guess that overflowed) takes the ``searchsorted`` fallback.
    """
    n = len(edges) - 1
    if not np.all(edges[:-1] <= edges[1:]):  # a linspace that overflowed
        return np.searchsorted(edges, x, side="right")
    # b settles where pad[b] <= x < top[b]; the NaN cap is never <= x, so b
    # stays in [0, n + 1] (a NaN x guesses n + 1, where searchsorted sorts it)
    pad = np.concatenate(([-np.inf], edges, [np.nan]))
    top = pad[1:]
    # in place: every fresh temporary is one more freed array the heap may keep
    with np.errstate(all="ignore"):
        guess = np.subtract(x, edges[0])
        guess *= n / (edges[-1] - edges[0])
    guess += 1
    np.fmin(guess, n + 1, out=guess)
    b = np.fmax(guess, 0, out=guess).astype(np.int64)
    for _ in range(2):
        down, up = pad[b] > x, top[b] <= x
        if not (down.any() or up.any()):
            return b
        b += up
        b -= down
    bad = (pad[b] > x) | (top[b] <= x)
    b[bad] = np.searchsorted(edges, x[bad], side="right")
    return b


def _hist2d_counts(x: np.ndarray, y: np.ndarray, bins: _Bins, value_range: _Range) -> np.ndarray:
    """``np.histogram2d(x, y, bins, range=value_range)`` as int64, counted in
    one ``bincount`` (no float64 histogram, no int64 copy of it).

    Bins as ``np.histogram2d`` does: the same ``linspace`` edges (an empty
    range widened to ±0.5), the rightmost edge folded into the last bin,
    points outside the range dropped.
    """
    n1, n2 = (int(bins),) * 2 if np.ndim(bins) == 0 else (int(bins[0]), int(bins[1]))
    if n1 <= 0 or n2 <= 0:
        raise ParameterError("bins must be positive")
    axes = []
    for pts, n, (lo, hi) in ((x, n1, value_range[0]), (y, n2, value_range[1])):
        if not (np.isfinite(lo) and lo <= hi and np.isfinite(float(hi) - float(lo))):
            raise ParameterError(f"bin range [{lo}, {hi}] must be ordered, of finite width")
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, n + 1)
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        b = _bin_index(pts, edges)
        b -= pts == edges[-1]
        axes.append(b)
    bx, by = axes  # bins 0 and n + 1 lie outside the range
    if bx.size and not (min(bx.min(), by.min()) >= 1 and bx.max() <= n1 and by.max() <= n2):
        keep = (bx >= 1) & (bx <= n1) & (by >= 1) & (by <= n2)
        bx, by = bx[keep], by[keep]
    # flat row · n2 + col cell key of every counted point
    bx *= n2
    bx += by
    bx -= n2 + 1
    return np.bincount(bx, minlength=n1 * n2).reshape(n1, n2)
