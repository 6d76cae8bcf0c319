"""3D prefix sums: O(1) box loads for rectangular-volume partitioning.

The paper's introduction targets computations "located in a discrete, two or
three-dimensional space", and notes that "rectangles (and rectangular
volumes) are the most preferred shape"; its PIC-MAG data is a 3D simulation
accumulated to 2D.  This module extends the §2.1 prefix-sum substrate to
three dimensions so the volume algorithms (:mod:`repro.volume.algorithms`)
can query any axis-aligned box in O(1) by inclusion–exclusion over the 8
corners of ``Γ₃``.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ParameterError
from ..core.prefix import _as_int64

__all__ = ["PrefixSum3D", "as_load_volume"]


def as_load_volume(A: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a 3D load array to C-contiguous int64."""
    A = np.asarray(A)
    if A.ndim != 3:
        raise ParameterError(f"load volume must be 3D, got shape {A.shape}")
    if A.size == 0:
        raise ParameterError("load volume must be non-empty")
    return _as_int64(A, "load volume")


class PrefixSum3D:
    """3D prefix-sum array ``Γ₃`` with O(1) box loads.

    ``Γ₃`` has shape ``(n0+1, n1+1, n2+1)``; the load of the half-open box
    ``[a0,a1) × [b0,b1) × [c0,c1)`` is the signed sum of its 8 corners.
    """

    __slots__ = ("G", "n0", "n1", "n2")

    def __init__(self, A: np.ndarray):
        A = as_load_volume(A)
        G = np.zeros(tuple(s + 1 for s in A.shape), dtype=np.int64)
        np.cumsum(A, axis=0, out=G[1:, 1:, 1:])
        np.cumsum(G[1:, 1:, 1:], axis=1, out=G[1:, 1:, 1:])
        np.cumsum(G[1:, 1:, 1:], axis=2, out=G[1:, 1:, 1:])
        self.G = G
        self.n0, self.n1, self.n2 = A.shape

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape ``(n0, n1, n2)`` of the underlying load volume."""
        return (self.n0, self.n1, self.n2)

    @property
    def total(self) -> int:
        """Total load."""
        return int(self.G[-1, -1, -1])

    def load(self, a0: int, a1: int, b0: int, b1: int, c0: int, c1: int) -> int:
        """Load of the half-open box (8-corner inclusion–exclusion)."""
        G = self.G
        return int(
            G[a1, b1, c1]
            - G[a0, b1, c1]
            - G[a1, b0, c1]
            - G[a1, b1, c0]
            + G[a0, b0, c1]
            + G[a0, b1, c0]
            + G[a1, b0, c0]
            - G[a0, b0, c0]
        )

    def axis_prefix(
        self,
        axis: int,
        lo1: int,
        hi1: int,
        lo2: int,
        hi2: int,
    ) -> np.ndarray:
        """Prefix along ``axis`` restricted to the other-axes window.

        For ``axis == 0`` the window is ``[lo1, hi1) × [lo2, hi2)`` over
        axes (1, 2); the result has length ``n0 + 1`` — one vectorized
        4-corner inclusion–exclusion over views of ``Γ₃``.
        """
        G = self.G
        if axis == 0:
            return (
                G[:, hi1, hi2] - G[:, lo1, hi2] - G[:, hi1, lo2] + G[:, lo1, lo2]
            )
        if axis == 1:
            return (
                G[hi1, :, hi2] - G[lo1, :, hi2] - G[hi1, :, lo2] + G[lo1, :, lo2]
            )
        if axis == 2:
            return (
                G[hi1, hi2, :] - G[lo1, hi2, :] - G[hi1, lo2, :] + G[lo1, lo2, :]
            )
        raise ParameterError(f"axis must be 0, 1 or 2, got {axis}")

    def slab_matrix(self, axis: int, lo: int, hi: int) -> np.ndarray:
        """2D prefix of the slab ``[lo, hi)`` along ``axis``.

        Returns a 2D prefix array (same convention as
        :class:`~repro.core.prefix.PrefixSum2D.G`) of the slab's projection
        onto the remaining two axes — the bridge from 3D slabs to the 2D
        algorithms.
        """
        G = self.G
        if axis == 0:
            return G[hi, :, :] - G[lo, :, :]
        if axis == 1:
            return G[:, hi, :] - G[:, lo, :]
        if axis == 2:
            return G[:, :, hi] - G[:, :, lo]
        raise ParameterError(f"axis must be 0, 1 or 2, got {axis}")

    def max_element(self) -> int:
        """Largest single-cell load."""
        d = np.diff(np.diff(np.diff(self.G, axis=0), axis=1), axis=2)
        return int(d.max()) if d.size else 0
