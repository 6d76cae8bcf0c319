"""``repro-partition`` — partition a load matrix from the command line.

The adoption path for a downstream user with a workload file::

    repro-partition load.npy -m 100 --method JAG-M-HEUR \
        --out partition.json --image partition.ppm --report

Accepts ``.npy`` (a 2D array) or ``.npz`` (first array, or ``--key``);
writes the partition as JSON/NPZ (:mod:`repro.core.serialize`), optionally a
PPM rendering, and prints the §2.1 metrics.
"""

from __future__ import annotations

import argparse
import sys
import zipfile
from pathlib import Path

import numpy as np

from .core.metrics import communication_volume, lower_bound, max_boundary
from .core.prefix import PrefixSum2D
from .core.registry import ALGORITHMS, partition_2d
from .core.render import ascii_render, save_ppm
from .core.serialize import save_partition

__all__ = ["main"]


def _load_matrix(path: Path, key: str | None) -> np.ndarray:
    if not path.exists():
        raise SystemExit(f"error: no such file: {path}")
    if path.suffix not in (".npy", ".npz"):
        raise SystemExit(f"error: unsupported input format {path.suffix!r} (.npy/.npz)")
    try:
        if path.suffix == ".npy":
            return np.load(path)
        with np.load(path) as data:
            if not data.files:
                raise SystemExit(f"error: {path} holds no arrays")
            name = key or data.files[0]
            if name not in data.files:
                raise SystemExit(
                    f"error: key {name!r} not in {path} (has {data.files})"
                )
            return np.asarray(data[name])
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        # truncated, garbage or pickled/object data (np.load refuses pickles)
        raise SystemExit(f"error: cannot read {path}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-partition",
        description="Partition a 2D load matrix into m rectangles "
        "(Saule, Baş, Çatalyürek; IPDPS 2011).",
    )
    parser.add_argument("input", type=Path, help="load matrix (.npy or .npz)")
    parser.add_argument("-m", "--processors", type=int, required=True)
    parser.add_argument(
        "--method",
        default="JAG-M-HEUR",
        help="algorithm name (see repro.ALGORITHMS); default JAG-M-HEUR",
    )
    parser.add_argument("--key", default=None, help="array name inside an .npz")
    parser.add_argument("--out", type=Path, default=None, help="write partition (.json/.npz)")
    parser.add_argument("--image", type=Path, default=None, help="write a PPM rendering")
    parser.add_argument("--ascii", action="store_true", help="print an ASCII rendering")
    parser.add_argument("--report", action="store_true", help="print metrics")
    args = parser.parse_args(argv)

    method = args.method.upper()
    if method not in ALGORITHMS:
        raise SystemExit(
            f"error: unknown method {args.method!r}; choose from {sorted(ALGORITHMS)}"
        )
    A = _load_matrix(args.input, args.key)
    try:
        pref = PrefixSum2D(A)
    except Exception as exc:  # invalid matrix: surface a clean CLI error
        raise SystemExit(f"error: invalid load matrix: {exc}")
    if args.processors <= 0:
        raise SystemExit("error: -m must be positive")

    part = partition_2d(pref, args.processors, method)
    part.validate()

    if args.report:
        print(f"matrix        : {pref.shape[0]} x {pref.shape[1]}, total load {pref.total:,}")
        print(f"method        : {method}")
        print(f"processors    : {args.processors}")
        print(f"max load      : {part.max_load(pref):,}")
        print(f"lower bound   : {lower_bound(pref, args.processors):,}")
        print(f"imbalance     : {part.imbalance(pref):.4%}")
        print(f"comm volume   : {communication_volume(part):,} edges")
        print(f"max boundary  : {max_boundary(part):,} edges")
    if args.ascii:
        print(ascii_render(part))
    if args.out is not None:
        path = save_partition(part, args.out)
        print(f"wrote {path}", file=sys.stderr)
    if args.image is not None:
        path = save_ppm(part, args.image, A=pref)
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
