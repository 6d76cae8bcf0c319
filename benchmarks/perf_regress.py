"""Perf-regression harness: before/after wall-clock of the optimized kernels.

Every optimized code path in the repo dispatches on
:func:`repro.perf.config.perf_enabled` and keeps the reference
implementation alive, so this harness can time the *same* entry points in
both modes, in one process, on fixed seeded instances — and assert the
partitions are bit-identical while it does so.

Benches come in three groups:

* ``kernel/*`` — the core kernels in isolation (projection cache, direct
  ndarray bisection, batched feasibility curve, jump-table greedy);
* ``fig_jagged/*`` — one jagged-family figure sweep (uniform instance,
  paper §4's m values at the small profile);
* ``fig_hier/*`` — one hierarchical-family figure sweep (peak instance).

Output is ``BENCH_core.json`` at the repository root (``--out`` to move
it): per-bench ``before_s`` / ``after_s`` / ``speedup`` / ``identical``
plus per-family aggregates.  Run via ``make bench-json`` (full) or ``make
bench-smoke`` (the ``tiny`` profile CI uses).  Exits non-zero if any bench
produced a non-identical result, or — with ``--min-speedup`` — if a figure
family misses the requested aggregate speedup.

``--sweep`` runs the *sweep* family instead: whole m-sweeps through
:func:`repro.sweep.sweep` (cross-call warm starts: monotone bound reuse,
heuristic witnesses, shared stripe memos) against the same sweep as per-m
cold calls, perf layer on in **both** modes so the measured delta is the
sweep engine alone.  Every (algorithm, m) cell is asserted bit-identical
to its cold call — that is the engine's contract — and
``BENCH_sweep.json`` is written.  Two store phases follow: the same
sweeps warm-started from a freshly populated on-disk fact store
(``store_families``: populate vs warm-from-disk vs cold timings, identity
gated per cell), and the hierarchical witness gate (``hier_witnesses``:
persisted node-decision facts must drop the warm run's ``cut_calls``
counter below cold while the rectangles stay bit-identical).  Run via
``make bench-sweep`` / ``make bench-sweep-smoke``.

``--kernels`` runs the *kernel-registry* family instead: every kernel in
:data:`repro.perf.kernels.KERNELS` is timed once per backend (``reference``
vs ``numpy`` vs — when the ``[perf]`` extra is installed — ``numba``) on
fixed seeded inputs, results are asserted bit-identical across backends,
and ``BENCH_kernels.json`` is written.  ``--min-speedup`` here requires at
least three kernels to reach the threshold on the numpy backend.  Run via
``make bench-kernels`` / ``make bench-kernels-smoke``.

``--figures`` runs the *figure-farm* family instead: a fast subset of the
experiment suite is regenerated three ways against the raw-result store
(:mod:`repro.experiments.rawstore`) — cold into an empty store, warm from
the fully populated store (must be all hits), and interrupted-then-resumed
(an :class:`~repro.experiments.rawstore.InterruptingRawStore` kills the
run after half the cell writes, then a fresh run over the same directory
finishes it).  The gate is byte-identity of the final CSVs across all
three runs; ``--min-speedup`` requires the aggregate warm regeneration to
beat cold by the given factor.  ``BENCH_FIGURES.json`` is written.  Run
via ``make bench-figures`` / the CI ``figures-smoke`` job.

``--sparse`` runs the *sparse-substrate* family instead: the ``large``
profile's instance generators build their CSR substrate
(:class:`repro.core.sparse.SparsePrefix2D`) from the triplet stream while
the dense twins densify, memory (tracemalloc build peak, resident substrate
bytes vs dense Γ bytes) and query/solver wall-clock are recorded for both,
and every query and every solver partition is asserted bit-identical across
substrates.  The spmv rows at the full profile run at 4096² and gate
``sparse_nbytes <= 10%`` of the dense Γ bytes; one ``--scale large``
raw-store cell runs end-to-end (cold compute, then warm hit) on the sparse
substrate.  ``BENCH_sparse.json`` is written.  Run via ``make bench-sparse``
/ ``make bench-sparse-smoke``.

``--dynamic`` runs the *dynamic* family instead: every repartitioning
policy of :mod:`repro.dynamic.policies` drives the BSP simulator over the
PIC-MAG snapshot stream (scenario driver
:meth:`repro.instances.pic.PICMagDataset.stream`), gated on run-to-run
determinism and on the extracted ``EveryK`` policy matching the legacy
``repartition_every`` knob bit-for-bit.  A second phase runs the
``WarmStarted`` policy with JAG-M-OPT against a persistent
:class:`repro.sweep.SweepStore`: cold, populate, then warm-from-disk —
gated on the warm run seeding from the store (``store_seeded > 0``), its
deterministic op count dropping below the populate run, and every
per-snapshot partition staying bit-identical to cold.
``BENCH_dynamic.json`` is written.  Run via ``make bench-dynamic`` /
``make bench-dynamic-smoke``.

``--check-identity`` re-scans every committed ``BENCH_*.json`` at the repo
root and exits non-zero if any row anywhere records ``identical: false`` —
the cheap CI gate that a stale or hand-edited baseline cannot sneak a
non-identical result past review.
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

from repro.core.prefix import PrefixSum2D  # noqa: E402
from repro.core.registry import partition_2d  # noqa: E402
from repro.instances import peak, uniform  # noqa: E402
from repro.oned.bisect import bisect_bottleneck, feasible_bottlenecks  # noqa: E402
from repro.oned.probe import min_parts  # noqa: E402
from repro.perf import min_parts_batch, perf_enabled, use_perf  # noqa: E402


@dataclass
class Bench:
    """One before/after measurement: same call, perf layer off vs on."""

    name: str
    family: str
    setup: Callable[[], Any]  # fresh state per repeat (not timed)
    call: Callable[[Any], Any]  # the timed entry point
    key: Callable[[Any], Any]  # comparable form of the result
    repeats: int = 3


def _time_pair(bench: Bench) -> tuple[float, float, Any, Any]:
    """Median-of-N of both modes, ref and perf paired within each repeat.

    Two sources of bias make the classic one-block-per-mode best-of
    unusable on the sub-millisecond figure rows, where the real effect is
    a few percent: slow clock-speed drift lands entirely on whichever mode
    runs second, and on a shared machine the minimum of a block measures
    scheduler luck rather than the code.  So every repeat runs both modes
    back to back (alternating which goes first to cancel ordering bias)
    and each mode reports its *median* repeat — a stable estimator whose
    noise the pairing applies to both sides equally.
    """
    times: dict[bool, list[float]] = {False: [], True: []}
    result: dict[bool, Any] = {False: None, True: None}
    for rep in range(bench.repeats):
        order = (False, True) if rep % 2 == 0 else (True, False)
        for enabled in order:
            with use_perf(enabled):
                state = bench.setup()
                t0 = time.perf_counter()
                result[enabled] = bench.call(state)
                times[enabled].append(time.perf_counter() - t0)
    return (
        statistics.median(times[False]),
        statistics.median(times[True]),
        result[False],
        result[True],
    )


# ---------------------------------------------------------------------------
# bench construction


def _partition_bench(
    name: str, family: str, A: np.ndarray, m: int, method: str, repeats: int
) -> Bench:
    return Bench(
        name=name,
        family=family,
        setup=lambda: PrefixSum2D(A),
        call=lambda pref: partition_2d(pref, m, method),
        key=lambda part: part.rects,
        repeats=repeats,
    )


def _kernel_benches(tiny: bool) -> list[Bench]:
    rng = np.random.default_rng(2024)
    n_proj = 96 if tiny else 256
    A = rng.integers(0, 100, (n_proj, n_proj))
    bands = [tuple(sorted(rng.integers(0, n_proj + 1, 2))) for _ in range(40)]
    bands = [(lo, hi) for lo, hi in bands if hi > lo]

    def proj_sweep(pref: PrefixSum2D) -> int:
        # every band queried several times: the access pattern of the
        # jagged/hierarchical recursions that the projection cache serves
        acc = 0
        for _ in range(6):
            for lo, hi in bands:
                acc ^= int(pref.axis_prefix(1, lo, hi)[-1])
                acc ^= len(pref.boundary_list(1, lo, hi))
        return acc

    n_1d = 20_000 if tiny else 100_000
    values = np.random.default_rng(7).integers(0, 1_000_000, n_1d)
    P = np.concatenate([[0], np.cumsum(values)]).astype(np.int64)
    m_1d = 16 if tiny else 64  # keeps n >= 512*m so the nd probe path engages

    # bottleneck low enough that the greedy crosses ~n/8 intervals: below
    # that the jump table's O(n) build doesn't amortize (measured crossover;
    # m_opt's scan sits far past it because its stripe prefixes are short)
    big_B = 8 * int(P[-1]) // n_1d

    # feasibility curve: many independent probe decisions against one prefix
    # — probe_batch's native shape (one chained searchsorted per greedy round
    # advances every candidate at once)
    total = int(P[-1])
    curve_Bs = np.linspace(total // (2 * m_1d), 2 * total // m_1d, 256).astype(np.int64)

    return [
        Bench(
            name="kernel/projection_cache",
            family="kernels",
            setup=lambda: PrefixSum2D(A),
            call=proj_sweep,
            key=lambda acc: acc,
            repeats=5,
        ),
        Bench(
            name="kernel/bisect_1d_nd_probe",
            family="kernels",
            setup=lambda: P,
            call=lambda Ps: bisect_bottleneck(Ps, m_1d),
            key=lambda B: B,
            repeats=5,
        ),
        Bench(
            name="kernel/probe_feasibility_curve",
            family="kernels",
            setup=lambda: P,
            call=lambda Ps: feasible_bottlenecks(Ps, m_1d, curve_Bs),
            key=lambda out: out.tolist(),
            repeats=5,
        ),
        Bench(
            name="kernel/min_parts_jump_table",
            family="kernels",
            setup=lambda: P,
            # dispatch by hand here: min_parts_batch is the perf twin of
            # min_parts (equality is asserted through the shared key)
            call=lambda Ps: (
                min_parts_batch(Ps, big_B) if perf_enabled() else min_parts(Ps, big_B)
            ),
            key=lambda parts: parts,
            repeats=5,
        ),
    ]


def _figure_benches(tiny: bool) -> list[Bench]:
    benches: list[Bench] = []

    # jagged family: uniform instance (paper §4.1), small-profile m values
    n_jag = 64 if tiny else 128
    A_jag = uniform(n_jag, 1.3, seed=0)
    heur_ms = (16, 36) if tiny else (16, 36, 64, 144)
    opt_ms = (16,) if tiny else (36, 144)
    for method in ("JAG-PQ-HEUR", "JAG-M-HEUR"):
        for m in heur_ms:
            # sub-millisecond rows: the per-mode best-of floor is a noisy
            # estimator at this scale (the true perf edge is a few percent),
            # so spend ~an extra half second on repeats to stabilize it
            benches.append(
                _partition_bench(
                    f"fig_jagged/{method}/m={m}", "jagged", A_jag, m, method, repeats=31
                )
            )
    for m in opt_ms:
        benches.append(
            _partition_bench(
                f"fig_jagged/JAG-M-OPT/m={m}", "jagged", A_jag, m, "JAG-M-OPT", repeats=1
            )
        )

    # hierarchical family: peak instance (paper Figs 3-5), m sweep
    n_hier = 128 if tiny else 512
    A_hier = peak(n_hier, seed=0)
    hier_ms = (16, 64) if tiny else (64, 144, 256, 400)
    for method in ("HIER-RB", "HIER-RELAXED"):
        for m in hier_ms:
            benches.append(
                _partition_bench(
                    f"fig_hier/{method}/m={m}", "hierarchical", A_hier, m, method, repeats=5
                )
            )
    return benches


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

    Same estimator rationale as :func:`_time_pair`: rotating the backend
    order inside every repeat cancels ordering bias, and medians resist the
    scheduler-luck outliers a best-of floor rewards.
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
    from repro.perf.kernels import numba_available

    tiny = profile == "tiny"
    has_numba = numba_available()
    backends = ["reference", "numpy"] + (["numba"] if has_numba else [])
    print(f"# kernel registry: backends {backends} (default {perf_backend()!r})")
    if has_numba:
        # compile outside the timed region: @njit is lazy and the first call
        # per kernel pays the jit; a warmup pass keeps rows comparable
        from repro.perf.config import use_perf_backend

        with use_perf_backend("numba"):
            for bench in _registry_benches(True):
                bench.call()

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
            "numba_s": None,
            "numba_speedup": None,
            "identical": identical,
        }
        msg = (
            f"{bench.name:24s} ref {ref_s * 1e3:9.3f}ms  numpy {numpy_s * 1e3:9.3f}ms "
            f"({row['numpy_speedup']:6.2f}x)"
        )
        if has_numba:
            numba_s = timed_results["numba"][0]
            row["numba_s"] = round(numba_s, 6)
            row["numba_speedup"] = (
                round(ref_s / numba_s, 3) if numba_s > 0 else float("inf")
            )
            msg += f"  numba {numba_s * 1e3:9.3f}ms ({row['numba_speedup']:6.2f}x)"
        rows.append(row)
        print(f"{msg}  {'ok' if identical else 'MISMATCH'}")

    doc = {
        "schema": 1,
        "generated_by": "benchmarks/perf_regress.py --kernels",
        "profile": profile,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "numba_available": has_numba,
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
# sweep family


def _rects_key(part: Any) -> list[tuple[int, int, int, int]]:
    return sorted((r.r0, r.r1, r.c0, r.c1) for r in part.rects)


#: the paper's Fig. 7 comparison shape: orientation variants plus the
#: best-of entry, heuristics before exact solvers.  This is where the sweep
#: engine's warmth bites hardest — the best-of entries re-solve orientations
#: the single-orientation entries already solved, and the exact-hit short
#: circuit plus recorded witnesses make those re-solves nearly free, while
#: cold per-m calls pay each of them twice.
_SWEEP_TRIO = [
    "JAG-M-HEUR-HOR",
    "JAG-M-HEUR-VER",
    "JAG-M-HEUR",
    "JAG-M-OPT-HOR",
    "JAG-M-OPT-VER",
    "JAG-M-OPT",
]


def _sweep_configs(tiny: bool) -> list[tuple[str, np.ndarray, list[str], tuple[int, ...]]]:
    """(family, matrix, algorithms, m_values) per swept figure setting.

    ``sweep_fig7`` is the paper's Fig. 7 shape on a uniform instance (the
    full variant comparison); ``sweep_exact`` keeps only the exact-solver
    variants on a peak instance, so the aggregate isolates the warm-start
    machinery on the solver the paper's runtime story centers on.
    """
    exact_trio = ["JAG-M-OPT-HOR", "JAG-M-OPT-VER", "JAG-M-OPT"]
    if tiny:
        ms = (9, 16, 36)
        return [
            ("sweep_fig7", uniform(64, 1.3, seed=0), _SWEEP_TRIO, ms),
            ("sweep_exact", peak(64, seed=0), exact_trio, ms),
        ]
    ms = (16, 36, 64, 144)
    return [
        ("sweep_fig7", uniform(128, 1.3, seed=0), _SWEEP_TRIO, ms),
        ("sweep_exact", peak(128, seed=0), exact_trio, ms),
    ]


def run_sweep(profile: str, out_path: Path, min_speedup: float | None) -> int:
    """Whole-sweep warm starts vs per-m cold calls; identity is the gate."""
    import tempfile

    from repro.perf.counters import op_counters
    from repro.sweep import sweep, use_sweep

    tiny = profile == "tiny"
    repeats = 3 if tiny else 2
    rows = []
    families: dict[str, dict[str, float]] = {}
    failures = []
    cold_keys: dict[tuple[str, str, int], Any] = {}
    with use_perf(True):
        for fam, A, names, ms in _sweep_configs(tiny):
            warm_s = float("inf")
            res = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                out = sweep(A, names, ms)
                dt = time.perf_counter() - t0
                if dt < warm_s:
                    warm_s, res = dt, out
            assert res is not None
            cold_total = 0.0
            fam_identical = True
            for name in names:
                for m in sorted(set(ms), reverse=True):
                    cold_s = float("inf")
                    ref = None
                    for _ in range(repeats):
                        t0 = time.perf_counter()
                        # the cold baseline a user without the engine pays:
                        # one public call per (algorithm, m), fresh prefix
                        ref = partition_2d(A, m, name)
                        cold_s = min(cold_s, time.perf_counter() - t0)
                    assert ref is not None
                    cold_keys[(fam, name, m)] = _rects_key(ref)
                    identical = _rects_key(res[(name, m)]) == cold_keys[(fam, name, m)]
                    fam_identical = fam_identical and identical
                    if not identical:
                        failures.append(f"{fam}/{name}/m={m}")
                    cold_total += cold_s
                    rows.append(
                        {
                            "name": f"{fam}/{name}/m={m}",
                            "family": fam,
                            "cold_s": round(cold_s, 6),
                            "identical": identical,
                        }
                    )
                    print(
                        f"{fam}/{name}/m={m:<4d} cold {cold_s * 1e3:9.2f}ms  "
                        f"{'ok' if identical else 'MISMATCH'}"
                    )
            speedup = cold_total / warm_s if warm_s > 0 else float("inf")
            families[fam] = {
                "cold_total_s": round(cold_total, 6),
                "warm_sweep_s": round(warm_s, 6),
                "speedup": round(speedup, 3),
                "identical": fam_identical,
            }
            print(
                f"-- {fam:12s} cold total {cold_total * 1e3:9.2f}ms -> "
                f"sweep {warm_s * 1e3:9.2f}ms  {speedup:6.2f}x"
            )

    # warm-from-disk: a first sweep populates the persistent fact store, a
    # second run (fresh prefixes, facts only from disk) must be both faster
    # than the cold per-m baseline and bit-identical to it
    store_families: dict[str, dict[str, float]] = {}
    with use_perf(True), tempfile.TemporaryDirectory() as tmp:
        for fam, A, names, ms in _sweep_configs(tiny):
            spath = Path(tmp) / f"{fam}.json"
            t0 = time.perf_counter()
            sweep(A, names, ms, store=spath)
            populate_s = time.perf_counter() - t0
            disk_s = float("inf")
            res = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                out = sweep(A, names, ms, store=spath)
                dt = time.perf_counter() - t0
                if dt < disk_s:
                    disk_s, res = dt, out
            assert res is not None
            fam_identical = True
            for name in names:
                for m in sorted(set(ms)):
                    if _rects_key(res[(name, m)]) != cold_keys[(fam, name, m)]:
                        fam_identical = False
                        failures.append(f"store/{fam}/{name}/m={m}")
            cold_total = families[fam]["cold_total_s"]
            speedup = cold_total / disk_s if disk_s > 0 else float("inf")
            store_families[fam] = {
                "populate_s": round(populate_s, 6),
                "warm_disk_s": round(disk_s, 6),
                "cold_total_s": cold_total,
                "speedup": round(speedup, 3),
                "identical": fam_identical,
            }
            print(
                f"-- store {fam:12s} populate {populate_s * 1e3:9.2f}ms, "
                f"warm-from-disk {disk_s * 1e3:9.2f}ms vs cold "
                f"{cold_total * 1e3:9.2f}ms  {speedup:6.2f}x  "
                f"{'ok' if fam_identical else 'MISMATCH'}"
            )

    # hierarchical witness consumption: persisted node-decision facts must
    # remove cut-kernel work on a warm run (the op-counter drop is
    # deterministic) while the rectangles stay bit-identical
    hier_rows = []
    n_hier = 64 if tiny else 128
    m_hier = 16 if tiny else 64
    A_hier = peak(n_hier, seed=0)
    with use_perf(True), tempfile.TemporaryDirectory() as tmp:
        spath = Path(tmp) / "hier.json"
        for name in ("HIER-RB", "HIER-RELAXED"):
            with op_counters() as ops:
                ref = partition_2d(PrefixSum2D(A_hier), m_hier, name)
            cold_calls = int(ops.get("cut_calls", 0))
            with use_sweep(store=spath):
                partition_2d(PrefixSum2D(A_hier), m_hier, name)
            with use_sweep(store=spath):
                with op_counters() as ops:
                    warm = partition_2d(PrefixSum2D(A_hier), m_hier, name)
            warm_calls = int(ops.get("cut_calls", 0))
            identical = _rects_key(warm) == _rects_key(ref)
            dropped = warm_calls < cold_calls
            if not identical:
                failures.append(f"hier_witness/{name}")
            if not dropped:
                failures.append(f"hier_witness/{name} (no cut_calls drop)")
            hier_rows.append(
                {
                    "name": f"hier_witness/{name}/m={m_hier}",
                    "cold_cut_calls": cold_calls,
                    "warm_cut_calls": warm_calls,
                    "identical": identical and dropped,
                }
            )
            print(
                f"hier_witness/{name}/m={m_hier}  cut_calls {cold_calls} -> "
                f"{warm_calls}  {'ok' if identical and dropped else 'MISMATCH'}"
            )

    doc = {
        "schema": 1,
        "generated_by": "benchmarks/perf_regress.py --sweep",
        "profile": profile,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "benches": rows,
        "families": families,
        "store_families": store_families,
        "hier_witnesses": hier_rows,
        "all_identical": not failures,
    }
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")
    if failures:
        print(f"FAIL: non-identical results: {', '.join(failures)}", file=sys.stderr)
        return 1
    if min_speedup is not None:
        for fam, agg in families.items():
            if agg["speedup"] < min_speedup:
                print(
                    f"FAIL: {fam} sweep speedup {agg['speedup']:.2f}x "
                    f"< {min_speedup:.2f}x",
                    file=sys.stderr,
                )
                return 1
    return 0


# ---------------------------------------------------------------------------
# figure-farm family: cold vs warm vs interrupted-then-resumed raw store

#: fast subset of the experiment suite — covers the batched-grid path
#: (fig03/fig04), the use_sweep per-cell path (fig05, fig13), the cached
#: runtime metric (fig06), kwargs-scoped cells (fig09, ext3) and the
#: combined-stream digest (ext2); the slow PIC sweeps are left out so the
#: committed small-profile run stays minutes, not hours
FIGURE_BENCH_IDS = ("fig03", "fig04", "fig05", "fig06", "fig09", "fig13", "ext2", "ext3")


def run_figures(profile: str, out_path: Path, min_speedup: float | None) -> int:
    """Cold/warm/resume figure regeneration; CSV byte-identity is the gate."""
    import tempfile

    from repro.experiments import ALL_EXTENSIONS, ALL_FIGURES, get_scale
    from repro.experiments.rawstore import (
        InterruptingRawStore,
        RawStore,
        SimulatedInterrupt,
        use_raw_store,
    )

    runnable = {**ALL_FIGURES, **ALL_EXTENSIONS}
    sc = get_scale(profile)
    rows = []
    failures = []
    cold_total = 0.0
    warm_total = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for fig in FIGURE_BENCH_IDS:
            fn = runnable[fig]
            cold_dir = Path(tmp) / f"{fig}-cold"
            resume_dir = Path(tmp) / f"{fig}-resume"

            store = RawStore(cold_dir)
            with use_raw_store(None, store=store):
                t0 = time.perf_counter()
                cold_csv = fn(sc).csv_bytes()
                cold_s = time.perf_counter() - t0
            cells = store.misses

            warm_s = float("inf")
            warm_csv = None
            warm_misses = 0
            for _ in range(3):
                store = RawStore(cold_dir)
                with use_raw_store(None, store=store):
                    t0 = time.perf_counter()
                    csv_bytes = fn(sc).csv_bytes()
                    dt = time.perf_counter() - t0
                warm_misses += store.misses
                if dt < warm_s:
                    warm_s, warm_csv = dt, csv_bytes
            identical = warm_csv == cold_csv and warm_misses == 0

            # kill the run after half its cell writes land, then resume
            # over the same directory: the flushed half must be reused and
            # the final CSV must match the uninterrupted run byte for byte
            interrupted = InterruptingRawStore(
                resume_dir, abort_after=max(1, cells // 2)
            )
            aborted = False
            try:
                with use_raw_store(None, store=interrupted):
                    fn(sc)
            except SimulatedInterrupt:
                aborted = True
            resumer = RawStore(resume_dir)
            with use_raw_store(None, store=resumer):
                t0 = time.perf_counter()
                resume_csv = fn(sc).csv_bytes()
                resume_s = time.perf_counter() - t0
            if fig == "fig06":
                # wall-clock cells: fresh timings in resume_dir legitimately
                # differ from cold_dir's, so the contract is that a warm
                # replay over the resumed store reproduces the resumed run
                replay = RawStore(resume_dir)
                with use_raw_store(None, store=replay):
                    replay_csv = fn(sc).csv_bytes()
                resume_identical = (
                    aborted
                    and resumer.hits > 0
                    and replay.misses == 0
                    and replay_csv == resume_csv
                )
            else:
                resume_identical = (
                    aborted and resume_csv == cold_csv and resumer.hits > 0
                )

            if not identical:
                failures.append(f"{fig} (warm)")
            if not resume_identical:
                failures.append(f"{fig} (resume)")
            cold_total += cold_s
            warm_total += warm_s
            speedup = cold_s / warm_s if warm_s > 0 else float("inf")
            rows.append(
                {
                    "name": fig,
                    "family": "figures",
                    "cells": cells,
                    "cold_s": round(cold_s, 6),
                    "warm_s": round(warm_s, 6),
                    "resume_s": round(resume_s, 6),
                    "speedup": round(speedup, 3),
                    "resumed_hits": resumer.hits,
                    "identical": identical and resume_identical,
                }
            )
            print(
                f"{fig:6s} cells {cells:3d}  cold {cold_s * 1e3:9.2f}ms -> warm "
                f"{warm_s * 1e3:8.2f}ms ({speedup:6.2f}x)  resume "
                f"{resume_s * 1e3:8.2f}ms  "
                f"{'ok' if identical and resume_identical else 'MISMATCH'}"
            )

    agg_speedup = cold_total / warm_total if warm_total > 0 else float("inf")
    doc = {
        "schema": 1,
        "generated_by": "benchmarks/perf_regress.py --figures",
        "profile": profile,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "benches": rows,
        "families": {
            "figures": {
                "cold_total_s": round(cold_total, 6),
                "warm_total_s": round(warm_total, 6),
                "speedup": round(agg_speedup, 3),
                "identical": not failures,
            }
        },
        "all_identical": not failures,
    }
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")
    print(
        f"-- figures aggregate cold {cold_total * 1e3:9.2f}ms -> warm "
        f"{warm_total * 1e3:9.2f}ms  {agg_speedup:6.2f}x"
    )
    if failures:
        print(f"FAIL: non-identical CSVs: {', '.join(failures)}", file=sys.stderr)
        return 1
    if min_speedup is not None and agg_speedup < min_speedup:
        print(
            f"FAIL: warm figure regeneration {agg_speedup:.2f}x < "
            f"{min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# sparse-substrate family (--sparse)


def _sparse_cases(tiny: bool) -> list[tuple[str, int, Callable[[], Any], Callable[[], Any], bool]]:
    """``(name, n, dense_builder, sparse_builder, mem_gate)`` per instance.

    ``mem_gate`` rows enforce the acceptance bound: the CSR substrate's
    resident bytes must stay at or below 10% of the dense Γ bytes.  The
    SLAC projection is denser (several-percent fill), so it records its
    ratio without gating it — the gate is the spmv story.
    """
    from repro.instances import slac_instance
    from repro.instances.mesh.project import slac_sparse
    from repro.instances.spmv import spmv_instance, spmv_sparse

    if tiny:
        return [
            (
                "spmv_rmat",
                512,
                lambda: spmv_instance(512, model="rmat", scale=12, edge_factor=2, seed=0),
                lambda: spmv_sparse(512, model="rmat", scale=12, edge_factor=2, seed=0),
                True,
            ),
            (
                "spmv_mesh",
                256,
                lambda: spmv_instance(256, model="mesh", mesh_size=256),
                lambda: spmv_sparse(256, model="mesh", mesh_size=256),
                True,
            ),
        ]
    return [
        (
            "spmv_rmat",
            4096,
            lambda: spmv_instance(4096, model="rmat", scale=14, edge_factor=8, seed=0),
            lambda: spmv_sparse(4096, model="rmat", scale=14, edge_factor=8, seed=0),
            True,
        ),
        (
            "spmv_mesh",
            4096,
            lambda: spmv_instance(4096, model="mesh", mesh_size=512),
            lambda: spmv_sparse(4096, model="mesh", mesh_size=512),
            True,
        ),
        (
            "slac",
            4096,
            lambda: slac_instance(4096),
            lambda: slac_sparse(4096),
            False,
        ),
    ]


def run_sparse(profile: str, out_path: Path) -> int:
    """Sparse vs dense substrate: memory, wall-clock, and bit-identity.

    Three row groups: per-instance *substrate* rows (build peak + resident
    bytes + query timings, every query asserted equal), per-(instance,
    algorithm) *solver* rows (partition wall-clock on both substrates,
    rectangles asserted bit-identical), and one ``--scale large`` raw-store
    cell resolved cold then warm on the sparse substrate.
    """
    import tempfile
    import tracemalloc

    from repro.core.sparse import SparsePrefix2D
    from repro.experiments import get_scale
    from repro.experiments.figures import _imb_cell
    from repro.experiments.rawstore import RawStore, digest_prefix, use_raw_store
    from repro.sweep.store import instance_digest

    tiny = profile == "tiny"
    m_solver = 9 if tiny else 64
    solver_algos = ("JAG-M-HEUR", "HIER-RB", "RECT-NICOL")
    rng = np.random.default_rng(99)
    sub_rows = []
    solver_rows = []
    failures = []

    with use_perf(True):
        for name, n, dense_builder, sparse_builder, mem_gate in _sparse_cases(tiny):
            tracemalloc.start()
            try:
                t0 = time.perf_counter()
                sub = sparse_builder()
                build_sparse_s = time.perf_counter() - t0
                _, build_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            t0 = time.perf_counter()
            A = dense_builder()
            pref = PrefixSum2D(A)
            build_dense_s = time.perf_counter() - t0
            dense_bytes = pref.nbytes

            is_sparse = isinstance(sub, SparsePrefix2D)
            identical = is_sparse and instance_digest(sub) == instance_digest(pref)

            # query workload: random rectangles + random stripe projections
            k = 128 if tiny else 512
            rr = np.sort(rng.integers(0, n + 1, size=(k, 2)), axis=1)
            cc = np.sort(rng.integers(0, n + 1, size=(k, 2)), axis=1)
            coords = np.column_stack([rr, cc])
            bands = np.sort(rng.integers(0, n + 1, size=(16, 2)), axis=1)
            bands = [(int(lo), int(hi)) for lo, hi in bands if hi > lo]

            t0 = time.perf_counter()
            loads_sparse = sub.rect_loads(coords)
            proj_sparse = [sub.axis_prefix(1, lo, hi, reuse=False) for lo, hi in bands]
            query_sparse_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            loads_dense = pref.rect_loads(coords)
            proj_dense = [pref.axis_prefix(1, lo, hi, reuse=False) for lo, hi in bands]
            query_dense_s = time.perf_counter() - t0
            identical = (
                identical
                and bool(np.array_equal(loads_sparse, loads_dense))
                and all(np.array_equal(s, d) for s, d in zip(proj_sparse, proj_dense))
            )
            mem_ratio = sub.nbytes / dense_bytes
            gate_ok = (not mem_gate) or mem_ratio <= 0.10
            if not identical:
                failures.append(f"substrate/{name} (queries)")
            if not gate_ok:
                failures.append(f"substrate/{name} (memory {mem_ratio:.3f} > 0.10)")
            sub_rows.append(
                {
                    "name": f"substrate/{name}",
                    "n": n,
                    "nnz": int(sub.nnz) if is_sparse else None,
                    "density": round(float(sub.density), 6) if is_sparse else None,
                    "sparse_nbytes": int(sub.nbytes),
                    "dense_gamma_bytes": int(dense_bytes),
                    "mem_ratio": round(mem_ratio, 6),
                    "mem_gated": mem_gate,
                    "build_sparse_s": round(build_sparse_s, 6),
                    "build_peak_bytes": int(build_peak),
                    "build_dense_s": round(build_dense_s, 6),
                    "query_sparse_s": round(query_sparse_s, 6),
                    "query_dense_s": round(query_dense_s, 6),
                    "identical": identical and gate_ok,
                }
            )
            print(
                f"substrate/{name:10s} n={n:5d} nnz={sub.nnz if is_sparse else '-':>8} "
                f"mem {sub.nbytes / 2**20:7.2f}MiB / {dense_bytes / 2**20:7.2f}MiB "
                f"({mem_ratio:6.1%})  build {build_sparse_s:6.2f}s/{build_dense_s:6.2f}s  "
                f"{'ok' if identical and gate_ok else 'MISMATCH'}"
            )

            for algo in solver_algos:
                t0 = time.perf_counter()
                part_dense = partition_2d(pref, m_solver, algo)
                solve_dense_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                part_sparse = partition_2d(sub, m_solver, algo)
                solve_sparse_s = time.perf_counter() - t0
                same = _rects_key(part_sparse) == _rects_key(part_dense)
                if not same:
                    failures.append(f"solver/{name}/{algo}")
                solver_rows.append(
                    {
                        "name": f"solver/{name}/{algo}/m={m_solver}",
                        "sparse_s": round(solve_sparse_s, 6),
                        "dense_s": round(solve_dense_s, 6),
                        "identical": same,
                    }
                )
                print(
                    f"solver/{name}/{algo}/m={m_solver}  sparse "
                    f"{solve_sparse_s * 1e3:9.2f}ms  dense {solve_dense_s * 1e3:9.2f}ms  "
                    f"{'ok' if same else 'MISMATCH'}"
                )

        # one `--scale large` cell end-to-end through the raw store: the
        # sparse-substrate instance the profile exists for, resolved cold
        # (computed, flushed) then warm (served from disk, no recompute)
        sc = get_scale("large")
        from repro.instances.spmv import spmv_sparse as _spmv_sparse

        t0 = time.perf_counter()
        pref_large = _spmv_sparse(sc.n_spmv, model="rmat", seed=0)
        build_large_s = time.perf_counter() - t0
        dig = digest_prefix(pref_large)
        with tempfile.TemporaryDirectory() as tmp:
            cold_store = RawStore(Path(tmp) / "large")
            with use_raw_store(None, store=cold_store):
                t0 = time.perf_counter()
                v_cold = _imb_cell(sc.name, dig, "JAG-M-HEUR", 16, pref_large)
                cold_s = time.perf_counter() - t0
            warm_store = RawStore(Path(tmp) / "large")
            with use_raw_store(None, store=warm_store):
                t0 = time.perf_counter()
                v_warm = _imb_cell(sc.name, dig, "JAG-M-HEUR", 16, pref_large)
                warm_s = time.perf_counter() - t0
        cell_ok = (
            isinstance(pref_large, SparsePrefix2D)
            and v_warm == v_cold
            and warm_store.misses == 0
            and warm_store.hits >= 1
        )
        if not cell_ok:
            failures.append("raw_store/large_cell")
        large_cell = {
            "name": "raw_store/large/spmv_rmat/JAG-M-HEUR/m=16",
            "n": sc.n_spmv,
            "scale": sc.name,
            "build_s": round(build_large_s, 6),
            "cold_s": round(cold_s, 6),
            "warm_s": round(warm_s, 6),
            "value": float(v_cold),
            "identical": cell_ok,
        }
        print(
            f"raw_store/large n={sc.n_spmv} cold {cold_s * 1e3:9.2f}ms -> warm "
            f"{warm_s * 1e3:8.2f}ms  {'ok' if cell_ok else 'MISMATCH'}"
        )

    doc = {
        "schema": 1,
        "generated_by": "benchmarks/perf_regress.py --sparse",
        "profile": profile,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "substrates": sub_rows,
        "solvers": solver_rows,
        "raw_store_cell": large_cell,
        "all_identical": not failures,
    }
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# dynamic family: repartitioning policies over a PIC snapshot stream


def _dynamic_stream(tiny: bool):
    """(scale, [(iteration, PrefixSum2D), ...]) of the PIC scenario driver."""
    from repro.experiments.scale import get_scale
    from repro.instances.pic import PICMagDataset

    sc = get_scale("tiny" if tiny else "small")
    ds = PICMagDataset(
        sc.pic, period=sc.pic_period, max_iteration=sc.pic_max_iteration
    )
    return sc, list(ds.stream())


def _counting_partitioner(solver):
    """Wrap a solver; records per-call wall seconds and rectangle keys."""
    seconds: list[float] = []
    rects: list[Any] = []

    def run(pref, m):
        t0 = time.perf_counter()
        part = solver(pref, m)
        seconds.append(time.perf_counter() - t0)
        rects.append(_rects_key(part))
        return part

    return run, seconds, rects


def run_dynamic(profile: str, out_path: Path) -> int:
    """Policy comparison + warm-started solve gates over the PIC stream."""
    import tempfile

    from repro.dynamic import (
        EveryK,
        ImbalanceTriggered,
        IncrementalJagged,
        MigrationBudgeted,
        WarmStarted,
    )
    from repro.perf.counters import op_counters
    from repro.runtime import BSPSimulator
    from repro.sweep import SweepStore

    tiny = profile == "tiny"
    sc, snaps = _dynamic_stream(tiny)
    m = sc.m_fig11
    failures: list[str] = []

    def heur(pref, m):
        return partition_2d(pref, m, "JAG-M-HEUR")

    # -- phase 1: policy comparison, gated on determinism and on the
    # extracted EveryK matching the legacy repartition_every knob ----------
    legacy = BSPSimulator(m, heur, repartition_every=1).run(
        snaps, steps_per_snapshot=sc.pic_period
    )
    policy_rows = []
    policies = [
        ("every-1", lambda: EveryK(1)),
        ("static", lambda: EveryK(0)),
        ("imbalance-0.1", lambda: ImbalanceTriggered(0.1)),
        ("budgeted-h5", lambda: MigrationBudgeted()),
        ("incremental-0.1", lambda: IncrementalJagged(m, threshold=0.1)),
    ]
    for pname, make in policies:
        runs = []
        for _ in range(2):  # two full runs: the determinism gate
            solver, solve_s, _rects = _counting_partitioner(heur)
            t0 = time.perf_counter()
            rep = BSPSimulator(m, solver, policy=make()).run(
                snaps, steps_per_snapshot=sc.pic_period
            )
            wall = time.perf_counter() - t0
            runs.append((rep, solve_s, wall))
        (rep, solve_s, wall), (rep2, _, _) = runs
        deterministic = rep.steps == rep2.steps
        identical = deterministic
        if pname == "every-1":
            identical = identical and rep.steps == legacy.steps
            if rep.steps != legacy.steps:
                failures.append("policy/every-1 (legacy mismatch)")
        if not deterministic:
            failures.append(f"policy/{pname} (non-deterministic)")
        policy_rows.append(
            {
                "name": f"policy/{pname}",
                "policy": pname,
                "m": m,
                "snapshots": len(snaps),
                "sim_total_s": rep.total_time,
                "sim_compute_s": rep.compute_time,
                "sim_comm_s": rep.comm_time,
                "sim_migration_s": rep.migration_time,
                "repartitions": rep.repartitions,
                "mean_imbalance": rep.mean_imbalance,
                "solves": len(solve_s),
                "solver_wall_s": round(sum(solve_s), 6),
                "wall_s": round(wall, 6),
                "identical": identical,
            }
        )
        print(
            f"policy/{pname:16s} sim {rep.total_time:10.3f}s  "
            f"repart {rep.repartitions:3d}/{len(snaps)}  "
            f"solves {len(solve_s):3d}  wall {wall * 1e3:8.1f}ms  "
            f"{'ok' if identical else 'MISMATCH'}"
        )

    # -- phase 2: warm-started solves over a persistent sweep store -------
    # the same stream is run three times with JAG-M-OPT: cold (no engine),
    # populating a fresh store, then warm from disk.  Gates: the warm run
    # seeds from the store (hits > 0), its op count drops below the populate
    # run (deterministic), and every per-snapshot partition is bit-identical
    # across all three runs.
    m_warm = 6 if tiny else 16

    def opt(pref, mm):
        return partition_2d(pref, mm, "JAG-M-OPT")

    warm_doc: dict[str, Any]
    with use_perf(True), tempfile.TemporaryDirectory() as tmp:
        spath = Path(tmp) / "dynamic-store.json"

        solver, cold_s, cold_rects = _counting_partitioner(opt)
        with op_counters() as ops:
            BSPSimulator(m_warm, solver).run(snaps)
        cold_ops = sum(ops.values())

        solver, pop_s, pop_rects = _counting_partitioner(opt)
        with op_counters() as ops:
            BSPSimulator(
                m_warm, solver, policy=WarmStarted(store=SweepStore(spath))
            ).run(snaps)
        pop_ops = sum(ops.values())

        store = SweepStore(spath)  # fresh object: counts this run's seeding
        solver, warm_s, warm_rects = _counting_partitioner(opt)
        with op_counters() as ops:
            BSPSimulator(m_warm, solver, policy=WarmStarted(store=store)).run(
                snaps
            )
        warm_ops = sum(ops.values())

        identical = cold_rects == pop_rects == warm_rects
        if not identical:
            failures.append("warm/rects (not bit-identical to cold)")
        if store.seeded == 0:
            failures.append("warm/store (no seeded instances on warm run)")
        if not warm_ops < pop_ops:
            failures.append("warm/ops (no op-count drop on warm run)")
        warm_doc = {
            "name": f"warm/JAG-M-OPT/m={m_warm}",
            "algo": "JAG-M-OPT",
            "m": m_warm,
            "snapshots": len(snaps),
            "store_seeded": store.seeded,
            "cold_ops": cold_ops,
            "populate_ops": pop_ops,
            "warm_ops": warm_ops,
            "cold_solver_s": round(sum(cold_s), 6),
            "populate_solver_s": round(sum(pop_s), 6),
            "warm_solver_s": round(sum(warm_s), 6),
            "per_snapshot_cold_s": [round(t, 6) for t in cold_s],
            "per_snapshot_warm_s": [round(t, 6) for t in warm_s],
            "identical": identical
            and store.seeded > 0
            and warm_ops < pop_ops,
        }
        print(
            f"warm/JAG-M-OPT/m={m_warm}  seeded {store.seeded}  "
            f"ops {pop_ops} -> {warm_ops}  solver "
            f"{sum(pop_s) * 1e3:8.1f}ms -> {sum(warm_s) * 1e3:8.1f}ms  "
            f"{'ok' if warm_doc['identical'] else 'MISMATCH'}"
        )

    doc = {
        "schema": 1,
        "generated_by": "benchmarks/perf_regress.py --dynamic",
        "profile": profile,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "policies": policy_rows,
        "warm": warm_doc,
        "all_identical": not failures,
    }
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# committed-baseline identity gate


def check_identity(root: Path = REPO_ROOT) -> int:
    """Scan committed ``BENCH_*.json`` for any ``identical: false`` row."""
    bad: list[str] = []

    def scan(node: Any, where: str) -> None:
        if isinstance(node, dict):
            if node.get("identical") is False:
                bad.append(f"{where} ({node.get('name', '?')})")
            for key, val in node.items():
                scan(val, f"{where}.{key}")
        elif isinstance(node, list):
            for i, val in enumerate(node):
                scan(val, f"{where}[{i}]")

    files = sorted(root.glob("BENCH_*.json"))
    if not files:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 2
    for path in files:
        scan(json.loads(path.read_text()), path.name)
    if bad:
        for entry in bad:
            print(f"FAIL: identical=false at {entry}", file=sys.stderr)
        return 1
    print(f"ok: {len(files)} baseline(s), every row identical")
    return 0


# ---------------------------------------------------------------------------
# driver


def run(profile: str, out_path: Path, min_speedup: float | None) -> int:
    tiny = profile == "tiny"
    benches = _kernel_benches(tiny) + _figure_benches(tiny)

    rows = []
    failures = []
    for bench in benches:
        before_s, after_s, ref, opt = _time_pair(bench)
        identical = bench.key(ref) == bench.key(opt)
        if not identical:
            failures.append(bench.name)
        speedup = before_s / after_s if after_s > 0 else float("inf")
        rows.append(
            {
                "name": bench.name,
                "family": bench.family,
                "before_s": round(before_s, 6),
                "after_s": round(after_s, 6),
                "speedup": round(speedup, 3),
                "identical": identical,
            }
        )
        print(
            f"{bench.name:42s} {before_s * 1e3:9.2f}ms -> {after_s * 1e3:9.2f}ms "
            f"{speedup:6.2f}x  {'ok' if identical else 'MISMATCH'}"
        )

    families: dict[str, dict[str, float]] = {}
    for fam in sorted({r["family"] for r in rows}):
        fam_rows = [r for r in rows if r["family"] == fam]
        b = sum(r["before_s"] for r in fam_rows)
        a = sum(r["after_s"] for r in fam_rows)
        families[fam] = {
            "before_s": round(b, 6),
            "after_s": round(a, 6),
            "speedup": round(b / a, 3) if a > 0 else float("inf"),
        }
        print(f"-- {fam:15s} aggregate {b * 1e3:9.2f}ms -> {a * 1e3:9.2f}ms  {b / a:6.2f}x")

    doc = {
        "schema": 1,
        "generated_by": "benchmarks/perf_regress.py",
        "profile": profile,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "benches": rows,
        "families": families,
        "all_identical": not failures,
    }
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")

    if failures:
        print(f"FAIL: non-identical results: {', '.join(failures)}", file=sys.stderr)
        return 1
    if min_speedup is not None:
        for fam in ("jagged", "hierarchical"):
            got = families[fam]["speedup"]
            if got < min_speedup:
                print(
                    f"FAIL: {fam} aggregate speedup {got:.2f}x < {min_speedup:.2f}x",
                    file=sys.stderr,
                )
                return 1
    return 0


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
        default=None,
        help="output JSON path (default: the family's BENCH_*.json at the "
        "repo root)",
    )
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the jagged and hierarchical figure aggregates reach "
        "this speedup (e.g. 2.0)",
    )
    ap.add_argument(
        "--sweep",
        action="store_true",
        help="run the sweep family instead: repro.sweep.sweep() m-sweeps vs "
        "per-m cold calls, asserting bit-identical rectangles per cell",
    )
    ap.add_argument(
        "--kernels",
        action="store_true",
        help="run the kernel-registry family instead: every repro.perf.kernels "
        "kernel timed per backend (reference/numpy/numba), asserting "
        "bit-identical results across backends",
    )
    ap.add_argument(
        "--figures",
        action="store_true",
        help="run the figure-farm family instead: a fast figure subset "
        "regenerated cold / warm / interrupted-then-resumed against the raw "
        "store, asserting byte-identical CSVs",
    )
    ap.add_argument(
        "--sparse",
        action="store_true",
        help="run the sparse-substrate family instead: CSR vs dense Γ memory "
        "and wall-clock on the large-profile instances, asserting "
        "bit-identical queries and partitions across substrates",
    )
    ap.add_argument(
        "--dynamic",
        action="store_true",
        help="run the dynamic family instead: repartitioning policies over "
        "the PIC snapshot stream (determinism + legacy-knob identity gates) "
        "plus warm-started per-snapshot solves from a persistent sweep store "
        "(seed/op-drop/bit-identity gates)",
    )
    ap.add_argument(
        "--check-identity",
        action="store_true",
        help="scan committed BENCH_*.json baselines and fail on any "
        "`identical: false` row (no benches are run)",
    )
    args = ap.parse_args(argv)
    if args.check_identity:
        return check_identity()
    if args.dynamic:
        out = args.out or REPO_ROOT / "BENCH_dynamic.json"
        return run_dynamic(args.profile, out)
    if args.sparse:
        out = args.out or REPO_ROOT / "BENCH_sparse.json"
        return run_sparse(args.profile, out)
    if args.kernels:
        out = args.out or REPO_ROOT / "BENCH_kernels.json"
        return run_kernels(args.profile, out, args.min_speedup)
    if args.sweep:
        out = args.out or REPO_ROOT / "BENCH_sweep.json"
        return run_sweep(args.profile, out, args.min_speedup)
    if args.figures:
        out = args.out or REPO_ROOT / "BENCH_FIGURES.json"
        return run_figures(args.profile, out, args.min_speedup)
    out = args.out or REPO_ROOT / "BENCH_core.json"
    return run(args.profile, out, args.min_speedup)


if __name__ == "__main__":
    raise SystemExit(main())
