"""Kernel microbench: every registry kernel, ``reference`` vs ``numpy``.

``--kernels`` times every kernel in :data:`repro.perf.kernels.KERNELS` once
per backend on fixed seeded inputs, asserts the two backends' results
bit-identical, and writes ``BENCH_kernels.json`` at the repository root
(``--out`` to move it).  ``--min-speedup`` requires at least three kernels
to reach the threshold on the numpy backend.  Run via ``make bench-kernels``
/ ``make bench-kernels-smoke``.

Whole-partition identity across kernel backend, substrate and sweep-store
temperature is a pytest gate (``tests/test_backend_equality.py``), and the
end-to-end timings are the repo benchmark (``BENCHMARK.json``,
``benchmarks/e2e``).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


# ---------------------------------------------------------------------------
# kernel-registry family (--kernels)


@dataclass
class KernelBench:
    """One registry-kernel workload timed per backend (same call, same key)."""

    name: str
    call: Callable[[], Any]  # dispatches through the registry entry point
    key: Callable[[Any], Any]
    repeats: int = 5


def _registry_benches(tiny: bool) -> list[KernelBench]:
    """Fixed seeded workloads, one per registry kernel (plus the early-exit
    shape of ``probe_batch`` — satellite coverage for the compacted active
    set: candidates that die or finish in round one must cost one round)."""
    from repro.perf import kernels as K

    rng = np.random.default_rng(42)
    n = 8_000 if tiny else 60_000
    P = np.concatenate([[0], np.cumsum(rng.integers(1, 1_000, n))]).astype(np.int64)
    total = int(P[-1])
    m = 64
    curve_Bs = np.linspace(total // (2 * m), 2 * total // m, 256).astype(np.int64)
    # early-exit shape: half the candidates are infeasible at B=0 (stuck in
    # round one), half cover the whole array (done in round one) — the
    # lockstep loop must terminate after a single round either way
    exit_Bs = np.concatenate(
        [np.zeros(128, dtype=np.int64), np.full(128, total, dtype=np.int64)]
    )
    big_B = 8 * total // n
    m_cuts = n // 8  # dense-cut regime: hi - lo <= 16 * m engages the jump table

    # windowed scoring kernels: many windows of one memoized projection,
    # the access pattern of a hierarchical recursion level
    wins = sorted({tuple(sorted(rng.integers(0, n + 1, 2))) for _ in range(200)})
    wins = [(int(a), int(b)) for a, b in wins if b - a >= 2]
    orients = ((3, 5), (5, 3))

    S = 8
    n_multi = 1_000 if tiny else 4_000
    M = np.cumsum(rng.integers(0, 100, (S, n_multi)), axis=1)
    M = np.concatenate([np.zeros((S, 1), dtype=np.int64), M], axis=1).astype(np.int64)
    B_multi = int(M[:, -1].max()) // 12

    P_alloc = 96
    m_alloc = 2_048
    loads = rng.integers(1, 10_000, P_alloc).astype(np.int64)
    lt = int(loads.sum())
    q0 = -((-(m_alloc - P_alloc) * loads) // lt)
    np.maximum(q0, 1, out=q0)

    return [
        KernelBench(
            "probe_batch",
            lambda: K.probe_batch(P, m, curve_Bs),
            key=lambda out: out.tolist(),
        ),
        KernelBench(
            "probe_batch_early_exit",
            lambda: K.probe_batch(P, 512, exit_Bs),
            key=lambda out: out.tolist(),
        ),
        KernelBench(
            "min_parts",
            lambda: K.min_parts_batch(P, big_B),
            key=lambda parts: parts,
        ),
        KernelBench(
            "probe_cuts",
            lambda: K.probe_cuts(P, m_cuts, -(-total // m_cuts) + big_B),
            key=lambda cuts: None if cuts is None else cuts.tolist(),
        ),
        KernelBench(
            "weighted_cut",
            lambda: [K.weighted_cut_win(P, a, b, orients) for a, b in wins],
            key=lambda out: out,
        ),
        KernelBench(
            "relaxed_split",
            lambda: [K.relaxed_split_win(P, a, b, 64) for a, b in wins],
            key=lambda out: out,
        ),
        KernelBench(
            "alloc_tail",
            lambda: [K.alloc_tail(loads, q0, m_alloc) for _ in range(40)],
            key=lambda out: [q.tolist() for q in out],
        ),
        KernelBench(
            "probe_multi",
            # one (feasible, bound, cuts) walk per m: m = 4, 8 fail and prove
            # a lower bound, m = 16, 32 succeed and realise their cuts
            lambda: [K.probe_multi(M, mm, B_multi) for mm in (4, 8, 16, 32)],
            key=lambda out: out,
        ),
    ]


def _time_backends(bench: KernelBench, backends: list[str]) -> dict[str, tuple[float, Any]]:
    """Median-of-N per backend, all backends paired within each repeat.

    Rotating the backend order inside every repeat cancels ordering bias
    (slow clock drift would otherwise land on whichever backend runs
    second), and medians resist the scheduler-luck outliers a best-of floor
    rewards on a shared machine.
    """
    from repro.perf.config import use_perf_backend

    times: dict[str, list[float]] = {b: [] for b in backends}
    result: dict[str, Any] = {}
    for rep in range(bench.repeats):
        order = backends[rep % len(backends):] + backends[:rep % len(backends)]
        for backend in order:
            with use_perf_backend(backend):
                t0 = time.perf_counter()
                result[backend] = bench.call()
                times[backend].append(time.perf_counter() - t0)
    return {b: (statistics.median(times[b]), result[b]) for b in backends}


def run_kernels(profile: str, out_path: Path, min_speedup: float | None) -> int:
    """Per-backend kernel timings; cross-backend bit-identity is the gate."""
    from repro.perf.config import perf_backend

    tiny = profile == "tiny"
    backends = ["reference", "numpy"]
    print(f"# kernel registry: backends {backends} (default {perf_backend()!r})")

    rows = []
    failures = []
    for bench in _registry_benches(tiny):
        timed_results = _time_backends(bench, backends)
        ref_s, ref = timed_results["reference"]
        ref_key = bench.key(ref)
        identical = all(bench.key(r) == ref_key for _, r in timed_results.values())
        if not identical:
            failures.append(bench.name)
        numpy_s = timed_results["numpy"][0]
        row: dict[str, Any] = {
            "name": bench.name,
            "reference_s": round(ref_s, 6),
            "numpy_s": round(numpy_s, 6),
            "numpy_speedup": round(ref_s / numpy_s, 3) if numpy_s > 0 else float("inf"),
            "identical": identical,
        }
        rows.append(row)
        print(
            f"{bench.name:24s} ref {ref_s * 1e3:9.3f}ms  numpy {numpy_s * 1e3:9.3f}ms "
            f"({row['numpy_speedup']:6.2f}x)  {'ok' if identical else 'MISMATCH'}"
        )

    doc = {
        "schema": 1,
        "generated_by": "benchmarks/perf_regress.py --kernels",
        "profile": profile,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "benches": rows,
        "all_identical": not failures,
    }
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")
    if failures:
        print(f"FAIL: non-identical results: {', '.join(failures)}", file=sys.stderr)
        return 1
    if min_speedup is not None:
        fast = [r["name"] for r in rows if r["numpy_speedup"] >= min_speedup]
        if len(fast) < 3:
            print(
                f"FAIL: only {len(fast)} kernel(s) reach {min_speedup:.2f}x on the "
                f"numpy backend ({', '.join(fast) or 'none'}); need 3",
                file=sys.stderr,
            )
            return 1
        print(f"ok: {len(fast)} kernels at >= {min_speedup:.2f}x ({', '.join(fast)})")
    return 0


# ---------------------------------------------------------------------------
# driver


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--profile",
        choices=("small", "tiny"),
        default="small",
        help="instance sizes: 'small' (default, the committed baseline) or "
        "'tiny' (CI smoke; seconds)",
    )
    ap.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_kernels.json",
        help="output JSON path (default: BENCH_kernels.json at the repo root)",
    )
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless at least three kernels reach this numpy speedup",
    )
    ap.add_argument(
        "--kernels",
        action="store_true",
        help="run the kernel-registry family: every repro.perf.kernels "
        "kernel timed per backend (reference/numpy), asserting "
        "bit-identical results across backends",
    )
    args = ap.parse_args(argv)
    if not args.kernels:
        ap.error("choose a family: --kernels")
    return run_kernels(args.profile, args.out, args.min_speedup)


if __name__ == "__main__":
    raise SystemExit(main())
