"""The four workloads of the end-to-end benchmark.

Each workload is a fixed set of ops; one *pass* runs every op once, in an
order drawn from ``--seed`` and the pass number.  ``run.py`` repeats passes
in a closed loop with one client (the next op starts only after the
previous one returns), in cycles of one *cold* pass, which starts from
empty on-disk stores, and *warm* passes, which reuse what the cold pass
wrote, as a user re-running the same job would.

The seed only orders the ops: every seed runs the same set of ops on the
same instances, so run-to-run spread measures the machine, not the inputs.
Each pass takes a fresh order.  Ops whose cost depends on the ops before
them (the solves that share a substrate's projection memo) keep one fixed
order among themselves, so that no op's cost depends on the draw.

Every pass returns a *fingerprint* of its outputs, keyed by op, not by
position.  A warm pass must reproduce the cold pass before it exactly, a
cold pass must reproduce pass 0 (wall-clock cells aside), and pass 0 must
match ``golden.json`` at any seed.  Per-op output checks run outside
the timed region and report through :meth:`Ops.fail`.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

#: the six heuristics of the paper's Figures 12-14
HEURISTICS = (
    "RECT-UNIFORM",
    "RECT-NICOL",
    "JAG-PQ-HEUR",
    "JAG-M-HEUR",
    "HIER-RB",
    "HIER-RELAXED",
)


class HostSpeed:
    """The speed of the shared host, sampled between ops.

    The host's speed drifts by tens of percent over seconds to minutes, with
    the load its other tenants put on the shared cores and caches, and the
    drift outlasts a run.  A fixed reference kernel that does not touch the
    library (a numpy prefix grid, a binary search, an interpreted loop and a
    sort, about 1 ms) is timed between ops at most every ``INTERVAL_S``,
    best of three.  :meth:`speed` over an interval is ``NOMINAL_S`` (the
    kernel's usual time on a 2-vCPU Xeon VM) over the kernel's median time
    within ``WINDOW_S`` of it; a time multiplied by it is the time at the
    nominal host speed.  On 20 solve_mix runs this cut the run-to-run spread
    of a single pass's time from 11% to 4%, and of the summed per-op bests
    from 5.7% to 2.6%; while the host is calm it adds a few percent of
    noise of its own.
    """

    NOMINAL_S = 1.15e-3
    INTERVAL_S = 0.2
    WINDOW_S = 0.5

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._grid = rng.integers(0, 1000, size=(256, 256))
        self._keys = np.sort(rng.integers(0, 10**9, size=20000))
        self._probe = rng.integers(0, 10**9, size=2000)
        self.times: list[float] = []
        self.walls: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> int:
        grid = np.cumsum(np.cumsum(self._grid, axis=0), axis=1)
        np.searchsorted(self._keys, self._probe)
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        sorted(range(3000), key=lambda x: -x)
        return int(grid[-1, -1]) + acc

    def sample(self) -> float:
        """Time the kernel if the last sample is old; the seconds spent."""
        t0 = perf_counter()
        if t0 - self._last < self.INTERVAL_S:
            return 0.0
        walls = []
        for _ in range(3):
            t = perf_counter()
            self._kernel()
            walls.append(perf_counter() - t)
        self._last = perf_counter()
        self.times.append((t0 + self._last) / 2)
        self.walls.append(min(walls))
        return self._last - t0

    def speed(self, t0: float, t1: float) -> float:
        """Nominal over measured kernel time around ``[t0, t1]``; the
        nearest sample when none lies within the window."""
        lo = bisect.bisect_left(self.times, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + self.WINDOW_S)
        if lo == hi:
            before, after = max(lo - 1, 0), min(lo, len(self.times) - 1)
            lo = before if t0 - self.times[before] <= self.times[after] - t1 else after
            hi = lo + 1
        return self.NOMINAL_S / float(np.median(self.walls[lo:hi]))


class Ops:
    """Op timing and failure accounting for one pass.

    ``latencies`` maps each sampled op's key to its wall time; ``spans``
    holds ``(start, seconds, key or None)`` of every op, sampled or not.
    ``untimed_s`` is the time spent in output checks and the benchmark's own
    housekeeping (host-speed samples included); the runner subtracts it from
    the pass's wall time.
    """

    def __init__(self, tracer: Any = None, host: HostSpeed | None = None) -> None:
        self.tracer = tracer
        self.host = host
        self.latencies: dict[str, float] = {}
        self.spans: list[tuple[float, float, str | None]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.untimed_s = 0.0
        self._t0 = 0.0

    def begin(self) -> None:
        if self.host is not None:
            self.untimed_s += self.host.sample()
        if self.tracer is not None:
            self.tracer.begin_op()
        self._t0 = perf_counter()

    def end(self, key: str, sample: bool = True) -> None:
        dt = perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.end_op(key)
        self.attempted += 1
        self.spans.append((self._t0, dt, key if sample else None))
        if sample:
            self.latencies[key] = dt

    def call(self, key: str, fn: Callable[..., Any], *args: Any, sample: bool = True) -> Any:
        """Run one timed op; ``sample=False`` keeps it out of the latency sample."""
        self.begin()
        try:
            return fn(*args)
        finally:
            self.end(key, sample)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)

    def count(self, name: str, n: int) -> None:
        if self.tracer is not None:
            self.tracer.count(name, n)


def check_partition(ops: Ops, key: str, part: Any, pref: Any, m: int) -> int | None:
    """Validate one partition; its exact Lmax, or None after a failure."""
    from repro.core.errors import InvalidPartitionError

    t0 = perf_counter()
    try:
        part.validate()
    except InvalidPartitionError as exc:
        ops.fail(f"{key}: invalid partition: {exc}")
        return None
    else:
        lmax = part.max_load(pref)
        if part.m != m:
            ops.fail(f"{key}: {part.m} rectangles for m={m}")
        elif lmax * m < pref.total:  # Lmax >= ceil(total / m), exactly
            ops.fail(f"{key}: Lmax {lmax} below ceil({pref.total}/{m})")
        return lmax
    finally:
        ops.untimed_s += perf_counter() - t0


def _take(items: list, fraction: float, least: int = 1) -> list:
    """The first ``fraction`` of ``items`` (at least ``least``)."""
    if fraction >= 1.0:
        return items
    return items[: max(least, int(round(len(items) * fraction)))]


def _shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


# ----------------------------------------------------------------------
# the PIC-MAG stream shared by three workloads
# ----------------------------------------------------------------------
def pic_dataset() -> Any:
    """The small-profile PIC-MAG dataset, backed by ``$REPRO_CACHE``."""
    from repro.experiments.scale import get_scale
    from repro.instances.pic import PICMagDataset

    sc = get_scale("small")
    return PICMagDataset(sc.pic, period=sc.pic_period, max_iteration=sc.pic_max_iteration)


def pic_digests() -> dict[str, str]:
    """SHA-256 of every snapshot (shape, dtype and C-order bytes)."""
    out = {}
    for it, A in pic_dataset().snapshots():
        h = hashlib.sha256(f"{A.shape}|{A.dtype}|".encode())
        h.update(np.ascontiguousarray(A).tobytes())
        out[str(it)] = h.hexdigest()
    return out


class Workload:
    """Base: ``setup`` (timed, repeatable), ``run_pass`` (timed ops)."""

    name = ""
    #: whether passes write on-disk stores (a cold pass then differs from a warm one)
    stores = False
    #: passes per cycle: one cold pass, then warm passes that replay it
    cycle = 1
    #: seconds one cycle takes, checks included, at the nominal host speed
    #: (see ``HostSpeed``); sets how many cycles a run of ``--seconds`` makes
    cycle_s: float

    def __init__(self, seed: int, workdir: Path, fraction: float = 1.0) -> None:
        self.seed = seed
        self.workdir = workdir
        self.fraction = fraction
        self.gen_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed scaffolding the output checks need."""

    def reset_stores(self) -> None:
        """Empty the on-disk stores the passes write (before a cold pass)."""

    def pass_rng(self, k: int) -> np.random.Generator:
        """The generator that orders pass ``k``'s ops."""
        return np.random.default_rng([self.seed, k])

    def run_pass(self, ops: Ops, k: int) -> dict[str, Any]:
        raise NotImplementedError

    def golden_view(self, fp: dict[str, Any]) -> dict[str, Any]:
        """The JSON part of a fingerprint that ``golden.json`` pins."""
        return fp

    def repeatable(self, fp: dict[str, Any]) -> dict[str, Any]:
        """The part of a fingerprint every cold pass must reproduce."""
        return fp


class SolveMix(Workload):
    """One-shot ``partition_2d(raw_matrix, m, algo)`` requests."""

    name = "solve_mix"
    cycle_s = 5.0
    M_VALUES = (16, 36, 64, 144, 256, 400, 1024)
    PIC_ITERATIONS = (5000, 12500, 20000, 30000)

    def setup(self) -> None:
        from repro.instances import diagonal, multi_peak, peak, slac_instance, uniform

        t0 = perf_counter()
        pool: dict[str, np.ndarray] = {}
        for s in range(2):
            pool[f"peak{s}"] = peak(256, seed=s)
            pool[f"multipeak{s}"] = multi_peak(128, seed=s)
            pool[f"diagonal{s}"] = diagonal(512, seed=s)
            pool[f"uniform{s}"] = uniform(256, 1.2, seed=s)
        pool["slac"] = slac_instance(256)
        ds = pic_dataset()
        for it in self.PIC_ITERATIONS:
            pool[f"pic{it}"] = ds.snapshot(it)
        self.gen_s = perf_counter() - t0
        self.pool = pool
        requests = [(inst, algo, m) for inst in pool for algo in HEURISTICS for m in self.M_VALUES]
        self.requests = _take(requests, self.fraction)

    def prepare_checks(self) -> None:
        from repro.core.prefix import PrefixSum2D

        self.prefs = {inst: PrefixSum2D(A) for inst, A in self.pool.items()}

    def run_pass(self, ops: Ops, k: int) -> dict[str, Any]:
        from repro.core.registry import partition_2d

        fp: dict[str, Any] = {}
        for inst, algo, m in _shuffled(self.pass_rng(k), self.requests):
            key = f"{inst}/{algo}/{m}"
            part = ops.call(key, partition_2d, self.pool[inst], m, algo)
            fp[key] = check_partition(ops, key, part, self.prefs[inst], m)
        return fp


class StreamDynamic(Workload):
    """Six repartitioning policies over the PIC-MAG snapshot stream."""

    name = "stream_dynamic"
    stores = True
    cycle = 2
    cycle_s = 1.75
    POLICIES = ("every-1", "static", "imbalance-0.1", "budgeted-h5", "incremental-0.1", "warm-opt")

    def setup(self) -> None:
        from repro.experiments.scale import get_scale

        sc = get_scale("small")
        t0 = perf_counter()
        snaps = list(pic_dataset().snapshots())
        self.gen_s = perf_counter() - t0
        self.snaps = _take(snaps, self.fraction, least=2)
        self.steps_per_snapshot = sc.pic_period
        self.m = sc.m_fig11
        self.store_path = self.workdir / "sweep-store.json"

    def reset_stores(self) -> None:
        self.store_path.unlink(missing_ok=True)

    def _policy(self, name: str) -> tuple[Any, str, int]:
        """``(policy object, solver, m)`` for one named policy."""
        from repro.dynamic import (
            EveryK,
            ImbalanceTriggered,
            IncrementalJagged,
            MigrationBudgeted,
            WarmStarted,
        )
        from repro.sweep import SweepStore

        m = self.m
        if name == "warm-opt":
            self._store = SweepStore(self.store_path)
            return WarmStarted(EveryK(1), store=self._store), "JAG-M-OPT", 16
        policy = {
            "every-1": lambda: EveryK(1),
            "static": lambda: EveryK(0),
            "imbalance-0.1": lambda: ImbalanceTriggered(0.1),
            "budgeted-h5": lambda: MigrationBudgeted(),
            "incremental-0.1": lambda: IncrementalJagged(m, threshold=0.1),
        }[name]()
        return policy, "JAG-M-HEUR", m

    def _steps(self, ops: Ops, name: str) -> Iterator[tuple[int, np.ndarray]]:
        """The snapshot stream; one op per simulated step."""
        for it, A in self.snaps:
            ops.begin()
            try:
                yield it, A
            finally:
                ops.end(f"{name}/{it}")

    def run_pass(self, ops: Ops, k: int) -> dict[str, Any]:
        from repro.core.registry import partition_2d
        from repro.runtime import BSPSimulator

        fp: dict[str, Any] = {}
        for name in _shuffled(self.pass_rng(k), list(self.POLICIES)):
            policy, algo, m = self._policy(name)
            if ops.tracer is not None:
                from tracing import wrap_policy

                wrap_policy(ops.tracer, policy)
            solved: list[tuple[Any, Any]] = []

            def partitioner(pref: Any, mm: int, algo: str = algo) -> Any:
                part = partition_2d(pref, mm, algo)
                solved.append((part, pref))
                return part

            rep = BSPSimulator(m, partitioner, policy=policy).run(
                self._steps(ops, name), steps_per_snapshot=self.steps_per_snapshot
            )
            for i, (part, pref) in enumerate(solved):
                check_partition(ops, f"{name}/solve{i}", part, pref, m)
            ops.count("dynamic.repartitions", rep.repartitions)
            if name == "warm-opt":
                ops.count("sweep.store.seeded", self._store.seeded)
            fp[f"{name}@{len(self.snaps)}"] = (rep.total_time, tuple(rep.steps))
        return fp

    def golden_view(self, fp: dict[str, Any]) -> dict[str, Any]:
        return {key: total for key, (total, _) in fp.items()}


class FigureFarm(Workload):
    """All figures and extensions: cold into a fresh raw store, then replays."""

    name = "figure_farm"
    stores = True
    #: a warm replay costs ~3% of a cold build, so five per cycle add little
    #: run time and give each figure's warm latency five samples
    cycle = 6
    cycle_s = 11.0
    #: figures whose CSVs hold wall-clock cells: a cold pass re-measures them,
    #: a warm pass must replay them byte for byte
    TIMING_FIGURES = ("fig06",)

    def setup(self) -> None:
        from repro.experiments.cli import ALL_RUNNABLE

        t0 = perf_counter()
        for _ in pic_dataset().snapshots():
            pass
        self.gen_s = perf_counter() - t0
        self.figures = _take(list(ALL_RUNNABLE), self.fraction)

    def reset_stores(self) -> None:
        from repro.experiments.rawstore import RawStore

        root = self.workdir / "raw-store"
        shutil.rmtree(root, ignore_errors=True)
        self.store = RawStore(root)

    def run_pass(self, ops: Ops, k: int) -> dict[str, Any]:
        from repro.experiments.cli import ALL_RUNNABLE
        from repro.experiments.rawstore import use_raw_store
        from repro.experiments.scale import get_scale

        sc = get_scale("small")
        before = self.store.counters()
        fp: dict[str, Any] = {}
        with use_raw_store(None, store=self.store):
            for name in _shuffled(self.pass_rng(k), self.figures):
                misses = self.store.misses
                res = ops.call(name, ALL_RUNNABLE[name], sc)
                t0 = perf_counter()
                fp[name] = hashlib.sha256(res.csv_bytes()).hexdigest()
                if self.store.misses > misses:
                    # computing cells leaves cyclic garbage (prefix/transpose
                    # pairs); collect it so the memory peak is one figure's,
                    # not an accident of when the collector last ran
                    gc.collect()
                ops.untimed_s += perf_counter() - t0
        for key, val in self.store.counters().items():
            ops.count(f"experiments.rawstore.{key}", val - before[key])
        return fp

    def golden_view(self, fp: dict[str, Any]) -> dict[str, Any]:
        return {k: v for k, v in fp.items() if k not in self.TIMING_FIGURES}

    repeatable = golden_view


class SparseLarge(Workload):
    """Solve sessions on 4096² instances over both the CSR and the dense substrate."""

    name = "sparse_large"
    cycle_s = 3.6
    N = 4096
    M_VALUES = (16, 64, 256)

    def setup(self) -> None:
        from repro.instances import slac_instance
        from repro.instances.spmv import spmv_instance

        self.inputs = None  # free the previous set-up's matrices first
        makers = {
            "rmat": lambda: spmv_instance(
                self.N, model="rmat", scale=14, edge_factor=8, seed=0
            ),
            "mesh": lambda: spmv_instance(self.N, model="mesh", mesh_size=512),
            "slac": lambda: slac_instance(self.N),
        }
        names = _take(list(makers), self.fraction)
        t0 = perf_counter()
        self.inputs = {name: makers[name]() for name in names}
        self.gen_s = perf_counter() - t0
        self.sessions = [(inst, sub) for inst in names for sub in ("sparse", "dense")]
        solves = [(algo, m) for algo in HEURISTICS for m in self.M_VALUES]
        self.solves = _take(solves, self.fraction, 2)

    def run_pass(self, ops: Ops, k: int) -> dict[str, Any]:
        from repro.core.prefix import PrefixSum2D
        from repro.core.registry import partition_2d
        from repro.core.sparse import SparsePrefix2D

        fp: dict[str, Any] = {}
        # the solves of a session share the substrate's projection memo, so
        # an op's cost depends on the solves before it: they run in one fixed
        # order, and only the sessions, which share nothing, are shuffled
        for inst, sub in _shuffled(self.pass_rng(k), self.sessions):
            build = SparsePrefix2D if sub == "sparse" else PrefixSum2D
            view = ops.call(f"{inst}/{sub}/build", build, self.inputs[inst], sample=False)
            for algo, m in self.solves:
                key = f"{inst}/{sub}/{algo}/{m}"
                part = ops.call(key, partition_2d, view, m, algo)
                fp[key] = check_partition(ops, key, part, view, m)
            # a dense Γ and its cached transpose form a reference cycle; collect
            # it now (untimed) so sessions never overlap in memory
            t0 = perf_counter()
            del view
            gc.collect()
            ops.untimed_s += perf_counter() - t0
        for key, lmax in fp.items():
            dense = fp.get(key.replace("/sparse/", "/dense/"))
            if "/sparse/" in key and dense != lmax:
                ops.fail(f"{key}: CSR Lmax {lmax} != dense Lmax {dense}")
        return fp

    def golden_view(self, fp: dict[str, Any]) -> dict[str, Any]:
        return {k.replace("/sparse/", "/"): v for k, v in fp.items() if "/sparse/" in k}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SolveMix, StreamDynamic, FigureFarm, SparseLarge)
}
