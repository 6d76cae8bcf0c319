"""Partition (de)serialization: JSON-able dicts and .npz checkpoints.

A downstream application needs to ship the decomposition to every rank and
reload it across restarts; the rectangle representation is tiny ("their
compact representation", §1), so a partition round-trips through a plain
dict of ints.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .partition import Partition

__all__ = ["partition_to_dict", "partition_from_dict", "save_partition", "load_partition"]

_FORMAT = "repro-partition-v1"


def partition_to_dict(part: Partition) -> dict:
    """JSON-able representation: shape, method, rectangle coordinate rows.

    Structure metadata that is plain data (stripe cuts, grid cuts) is kept;
    callables and trees are dropped — the rectangles alone reconstruct the
    partition, only the O(log) indexer is lost.
    """
    meta = {}
    for key in ("stripe_cuts", "row_cuts", "col_cuts", "orientation", "iterations"):
        if key in part.meta:
            val = part.meta[key]
            if isinstance(val, np.ndarray):
                val = val.tolist()
            elif isinstance(val, (list, tuple)) and val and isinstance(val[0], np.ndarray):
                val = [v.tolist() for v in val]
            meta[key] = val
    return {
        "format": _FORMAT,
        "shape": list(part.shape),
        "method": part.method,
        "rects": part.coords().tolist(),
        "meta": meta,
    }


def partition_from_dict(data: dict) -> Partition:
    """Rebuild a partition from :func:`partition_to_dict` output."""
    if data.get("format") != _FORMAT:
        raise ParameterError(f"not a {_FORMAT} payload")
    return Partition(
        data["rects"],
        data["shape"],
        method=data.get("method", ""),
        meta=data.get("meta", {}),
    )


def save_partition(part: Partition, path: str | Path) -> Path:
    """Write a partition as JSON (``.json``) or NumPy archive (``.npz``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".npz":
        np.savez_compressed(
            path,
            coords=part.coords(),
            shape=np.array(part.shape, dtype=np.int64),
            method=np.array(part.method),
        )
    else:
        path.write_text(json.dumps(partition_to_dict(part)))
    return path


def load_partition(path: str | Path) -> Partition:
    """Read a partition written by :func:`save_partition`."""
    path = Path(path)
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as data:
            return Partition(data["coords"], data["shape"], method=str(data["method"]))
    return partition_from_dict(json.loads(path.read_text()))
