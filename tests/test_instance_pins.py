"""sha256 pins of the generated SLAC and SpMV instances.

The digests were taken from the ``np.histogram2d`` binning these generators
used before the shared exact binning in :mod:`repro.instances.spmv`; any
drift in a generator or in the binning changes a byte and fails here, at
the resolutions the paper profile and the ``sparse_large`` benchmark build.
The CSR substrate of each 4096² instance digests (``instance_digest``) to a
pinned value too, equal to the dense ``matrix_digest`` of the same matrix.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.sparse import SparsePrefix2D
from repro.instances import slac_instance, spmv_instance
from repro.sweep.store import instance_digest

DENSE = {
    "slac-256": (
        lambda: slac_instance(256),
        "d9a6262d54b5cd74bcc9d35c42a22665c624bdc182e601331ad734f956cf7372",
    ),
    "slac-4096": (
        lambda: slac_instance(4096),
        "cd07b98c380df63b70fd2509d462773a703422792863a2592c5c1695099b6c21",
    ),
    "rmat-256": (
        lambda: spmv_instance(256, model="rmat", scale=14, edge_factor=8),
        "17f025e8e468b7749113a88550e4ef3ad288b1a384fbecb73dc0a95137ea5ea4",
    ),
    "rmat-4096": (
        lambda: spmv_instance(4096, model="rmat", scale=14, edge_factor=8),
        "a3b85f4e0e332368c22ed3d6dcc40e98f5de8d09cc122e60263e8d04d980b7f3",
    ),
    "mesh-4096": (
        lambda: spmv_instance(4096, model="mesh", mesh_size=512),
        "2af1e85b6c7a6bd0e6321afc6939ab2cc5918d6f35846932cf678628a5340de1",
    ),
}

# (digest, scale) of instance_digest over the CSR substrate: equal to the
# dense repro.sweep.store.matrix_digest of the same matrix
SPARSE = {
    "slac-4096": "5e7edb6bdee84b60d31c178b1c4d9751ad4b7c633e9d68145d32223dc838f1bd",
    "rmat-4096": "e611287dc4572d99253815aacb7f82bf7ebef59f80757213cf23fe5d9fa3f40a",
    "mesh-4096": "4149f23f73a297769daf27c6266a4bb7c5715331a392827e0c9a99b81c374b8d",
}


@pytest.mark.parametrize("name", sorted(DENSE))
def test_dense_instance_bytes_are_pinned(name):
    build, digest = DENSE[name]
    A = build()
    assert A.dtype == np.int64 and A.flags.c_contiguous
    assert hashlib.sha256(A.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(SPARSE))
def test_sparse_twin_digest_is_pinned(name):
    sub = SparsePrefix2D(DENSE[name][0]())
    assert instance_digest(sub) == (SPARSE[name], 1)
