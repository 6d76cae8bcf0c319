"""Projection and discretization of 3D mesh vertices to a 2D load matrix.

Matches the paper's SLAC construction: project the mesh onto a 2D plane and
histogram the vertices at a chosen granularity; each vertex contributes one
unit of computation.  The result is a sparse matrix containing zeros, so the
Δ = max/min ratio is undefined ("Notice that the matrix contains zeroes,
therefore Δ is undefined", §4.1).
"""

from __future__ import annotations

import numpy as np

from ...core.errors import ParameterError
from ..spmv import _hist2d_counts
from .cavity import CavityConfig, cavity_vertices

__all__ = ["project_vertices", "slac_instance"]


def project_vertices(
    vertices: np.ndarray,
    n: int = 512,
    *,
    axes: tuple[int, int] = (0, 1),
    n2: int | None = None,
) -> np.ndarray:
    """Histogram 3D vertices onto an ``n × n2`` grid along two axes.

    Parameters
    ----------
    vertices:
        ``(N, 3)`` finite coordinates, ``N > 0``.
    n, n2:
        Grid resolution (``n2`` defaults to ``n``) — the paper's
        "granularity of the discretization".
    axes:
        Which coordinate pair spans the projection plane (default: the side
        view ``(z, x)``).
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    if vertices.ndim != 2 or vertices.shape[1] != 3 or len(vertices) == 0:
        raise ParameterError("vertices must have shape (N, 3) with N > 0")
    if not np.isfinite(vertices).all():
        raise ParameterError("vertices must be finite")
    u = vertices[:, axes[0]]
    v = vertices[:, axes[1]]
    value_range = ((u.min(), u.max() + 1e-12), (v.min(), v.max() + 1e-12))
    return _hist2d_counts(u, v, (n, n if n2 is None else n2), value_range)


def slac_instance(
    n: int = 512, config: CavityConfig | None = None
) -> np.ndarray:
    """The SLAC substitute at resolution ``n × n`` (sparse, contains zeros)."""
    verts = cavity_vertices(config)
    return project_vertices(verts, n)

