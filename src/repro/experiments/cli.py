"""Command-line entry point: ``repro-experiments`` / ``python -m repro.experiments``.

Regenerates any subset of the paper's figures as text tables and CSV files::

    repro-experiments --figures fig07 fig12 --scale small --out results/
    repro-experiments --all --scale paper
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from .extensions import ALL_EXTENSIONS
from .figures import ALL_FIGURES
from .rawstore import use_raw_store
from .scale import _PROFILES, get_scale

ALL_RUNNABLE = {**ALL_FIGURES, **ALL_EXTENSIONS}

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the evaluation figures of 'Partitioning Spatially "
        "Located Computations using Rectangles' (IPDPS 2011).",
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        metavar="FIG",
        choices=sorted(ALL_RUNNABLE),
        help=f"figures to run ({', '.join(sorted(ALL_RUNNABLE))})",
    )
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument(
        "--scale",
        default="small",
        choices=tuple(_PROFILES),
        help="parameter profile (default: small)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write one CSV per figure into DIR",
    )
    parser.add_argument(
        "--gallery",
        type=Path,
        default=None,
        metavar="DIR",
        help="write the Figure 1/Figure 2 image gallery (PPM) into DIR",
    )
    parser.add_argument(
        "--raw-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="raw-result store: completed figure cells are flushed to DIR "
        "atomically and reused on the next run (incremental, resumable)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every raw cell cold (fresh results still refresh "
        "the raw store)",
    )
    args = parser.parse_args(argv)
    figs = sorted(ALL_RUNNABLE) if args.all else (args.figures or [])
    if not figs and args.gallery is None:
        parser.error("choose figures with --figures, run --all, or use --gallery")
    if args.force and args.raw_dir is None:
        parser.error("--force needs a raw store (--raw-dir)")
    # every setting below is scoped to this call and restored on return
    with ExitStack() as scope:
        store = None
        if args.raw_dir is not None:
            store = scope.enter_context(use_raw_store(args.raw_dir, force=args.force))
        if args.gallery is not None:
            from .gallery import make_gallery

            for path in make_gallery(args.gallery, get_scale(args.scale)):
                print(f"# wrote {path}", file=sys.stderr)
        scale = get_scale(args.scale)
        print(f"# scale profile: {scale.name}", file=sys.stderr)
        for fig in figs:
            before = store.counters() if store is not None else {}
            t0 = time.perf_counter()
            result = ALL_RUNNABLE[fig](scale)
            dt = time.perf_counter() - t0
            print(result.to_table())
            if store is not None:
                delta = {
                    k: v - before[k] for k, v in store.counters().items()
                }
                print(
                    f"# raw-store {fig}: "
                    + " ".join(f"{k}={delta[k]}" for k in ("hits", "misses", "invalid")),
                    file=sys.stderr,
                )
            print(f"# generated in {dt:.1f}s\n", file=sys.stderr)
            if args.out is not None:
                path = result.to_csv(args.out / f"{fig}.csv")
                print(f"# wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
