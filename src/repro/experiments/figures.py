"""Reproduction of every evaluation figure of the paper (Figures 3–14).

Each ``figNN_*`` function regenerates the series of the corresponding figure
(workload, parameter sweep, baselines) and returns a
:class:`~repro.experiments.harness.FigureResult`.  Figures 1–2 of the paper
are illustrations, not results, and the paper contains no numbered result
tables — Figures 3–14 are the complete evaluation.

All functions accept ``scale`` (``"small"`` default, ``"paper"`` for the
paper's sizes — see :mod:`repro.experiments.scale`) and are deterministic.
"""

from __future__ import annotations


from ..core.prefix import PrefixSum2D
from ..core.registry import ALGORITHMS
from ..instances import diagonal, multi_peak, peak, slac_instance, uniform
from ..instances.pic import PICMagDataset
from ..jagged.m_heur import jag_m_heur
from ..sweep import use_sweep
from ..sweep.state import canonical_scope
from ..theory.bounds import theorem3_ratio
from .harness import FigureResult, timed
# pmap has no caller here, but benchmarks/e2e/tracing.py patches figures.pmap
from .pool import pmap, pmap_batched  # noqa: F401
from .rawstore import (
    MISS,
    RawStore,
    cell as raw_cell,
    current_raw_store,
    digest_matrix,
    digest_prefix,
)
from .scale import Scale, get_scale

__all__ = [
    "fig03_hier_rb_variants",
    "fig04_hier_relaxed_variants",
    "fig05_hier_relaxed_diagonal",
    "fig06_runtime",
    "fig07_jagged_vs_m",
    "fig08_jagged_vs_iteration",
    "fig09_stripe_count",
    "fig10_hier_diagonal",
    "fig11_hier_vs_iteration",
    "fig12_all_vs_iteration",
    "fig13_all_vs_m",
    "fig14_slac",
    "ALL_FIGURES",
]

#: the heuristic set of Figures 12–14
HEURISTICS = (
    "RECT-UNIFORM",
    "RECT-NICOL",
    "JAG-PQ-HEUR",
    "JAG-M-HEUR",
    "HIER-RB",
    "HIER-RELAXED",
)


def _pic_dataset(sc: Scale) -> PICMagDataset:
    return PICMagDataset(
        sc.pic, period=sc.pic_period, max_iteration=sc.pic_max_iteration
    )


#: instance families the averaged synthetic figures draw from, named by a
#: picklable ``(family, n)`` spec so the per-seed cells can run in pool workers
_INSTANCE_FAMILIES = {
    "peak": peak,
    "multi_peak": multi_peak,
}


def _imbalance_cell(payload) -> tuple[int, float]:
    """One seeded (instance, algorithm, m) cell: ``(Lmax, Lavg)``.

    Top-level and driven by a picklable payload so ``repro-experiments
    --jobs N`` can fan the cells of a figure out over the worker pool.
    """
    family, n, seed, algo, m, kw = payload
    A = _INSTANCE_FAMILIES[family](n, seed=seed)
    pref = PrefixSum2D(A)
    part = ALGORITHMS[algo](pref, m, **kw)
    return part.max_load(pref), pref.total / m


def _avg_imbalance_grid(
    spec: tuple[str, int],
    seeds: int,
    grid: list[tuple[str, int, dict]],
    profile: str | None = None,
) -> list[float]:
    """Paper's synthetic-dataset metric for every ``(algo, m)`` of a sweep.

    The metric of one grid entry is ``sum_I Lmax(I) / sum_I Lavg(I) - 1``
    over the seeded instances ``I`` of ``spec`` (the instance family and
    size, e.g. ``("peak", 1024)``).  A figure sweep has ``len(grid) × seeds``
    sub-millisecond cells, so the whole grid goes through one
    :func:`~repro.experiments.pool.pmap_batched` call, which amortizes pool
    dispatch over whole chunks; the reduction below runs per grid entry in
    seed order, so the floats are bit-identical for any worker count.

    With an ambient raw store (and a ``profile`` name to key under), the
    parent resolves every per-seed cell against the store first, ships only
    the misses — in chunks, flushing each chunk's results before the next
    dispatch, so an interrupted run resumes from the flushed cells — and
    reassembles in payload order, keeping the reduction bit-identical.
    """
    payloads = [
        (spec[0], spec[1], s, algo, m, kw)
        for algo, m, kw in grid
        for s in range(seeds)
    ]
    store = current_raw_store()
    if store is None or profile is None:
        cells = pmap_batched(_imbalance_cell, payloads)
    else:
        family, n = spec
        digests = [
            digest_matrix(_INSTANCE_FAMILIES[family](n, seed=s)) for s in range(seeds)
        ]
        keys = [
            RawStore.make_key(
                profile=profile,
                digest=digests[s],
                algo=algo,
                m=m,
                scope=canonical_scope(kw),
                metric="lmax_lavg",
            )
            for _, _, s, algo, m, kw in payloads
        ]
        cells = [store.load(k) for k in keys]
        miss_idx = [i for i, v in enumerate(cells) if v is MISS]
        chunk = max(8, seeds * 2)
        for start in range(0, len(miss_idx), chunk):
            idxs = miss_idx[start : start + chunk]
            fresh = pmap_batched(_imbalance_cell, [payloads[i] for i in idxs])
            for i, (lmax, lavg) in zip(idxs, fresh):
                val = [int(lmax), float(lavg)]
                store.store(keys[i], val)
                cells[i] = val
    out = []
    for c in range(len(grid)):
        block = cells[c * seeds : (c + 1) * seeds]
        lmax_sum = sum(lmax for lmax, _ in block)
        lavg_sum = 0.0
        for _, lavg in block:
            lavg_sum += lavg
        out.append(lmax_sum / lavg_sum - 1.0)
    return out


def _imb_cell(profile: str, dig: str, algo: str, m: int, pref) -> float:
    """One raw-store-resolved imbalance cell of a registry algorithm."""
    return raw_cell(
        profile,
        dig,
        algo,
        m,
        lambda: float(ALGORITHMS[algo](pref, m).imbalance(pref)),
    )


# ----------------------------------------------------------------------
# Figure 3 — HIER-RB variants on Peak
# ----------------------------------------------------------------------
def fig03_hier_rb_variants(scale=None) -> FigureResult:
    """HIER-RB LOAD/DIST/HOR/VER on a Peak instance, imbalance vs m (Fig 3).

    Paper: 1024×1024 Peak; load imbalance grows with m and the -LOAD variant
    achieves the overall best balance.
    """
    sc = get_scale(scale)
    res = FigureResult(
        "fig03",
        f"HIER-RB variants on {sc.n_peak}x{sc.n_peak} Peak",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}; paper: 1024x1024, m up to 10,000",
    )
    # the whole (m × variant) grid ships to the pool in one batched call;
    # the per-cell reduction order matches the serial loops exactly
    grid = [
        (f"HIER-RB-{variant}", m, {})
        for m in sc.m_values
        for variant in ("LOAD", "DIST", "HOR", "VER")
    ]
    vals = _avg_imbalance_grid(("peak", sc.n_peak), sc.seeds, grid, sc.name)
    for (algo, m, _), v in zip(grid, vals):
        res.add(algo, m, v)
    return res


# ----------------------------------------------------------------------
# Figure 4 — HIER-RELAXED variants on Multi-peak
# ----------------------------------------------------------------------
def fig04_hier_relaxed_variants(scale=None) -> FigureResult:
    """HIER-RELAXED LOAD/DIST/HOR/VER on Multi-peak, imbalance vs m (Fig 4).

    Paper: 512×512 multi-peak (3 peaks), 10 instances; -LOAD is best overall;
    -HOR/-VER improve past ~2,000 processors and converge towards -LOAD.
    """
    sc = get_scale(scale)
    res = FigureResult(
        "fig04",
        f"HIER-RELAXED variants on {sc.n_multipeak}x{sc.n_multipeak} Multi-peak",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}; paper: 512x512, 10 instances",
    )
    grid = [
        (f"HIER-RELAXED-{variant}", m, {})
        for m in sc.m_values
        for variant in ("LOAD", "DIST", "HOR", "VER")
    ]
    vals = _avg_imbalance_grid(("multi_peak", sc.n_multipeak), sc.seeds, grid, sc.name)
    for (algo, m, _), v in zip(grid, vals):
        res.add(algo, m, v)
    return res


# ----------------------------------------------------------------------
# Figure 5 — HIER-RELAXED variants on Diagonal (convergence of HOR/VER)
# ----------------------------------------------------------------------
def fig05_hier_relaxed_diagonal(scale=None) -> FigureResult:
    """HIER-RELAXED variants on Diagonal, imbalance vs m (Fig 5).

    Paper: 4096×4096 diagonal; shows where the -VER/-HOR variants start
    improving and converge to -LOAD.
    """
    sc = get_scale(scale)
    A = diagonal(sc.n_diagonal, seed=0)
    pref = PrefixSum2D(A)
    res = FigureResult(
        "fig05",
        f"HIER-RELAXED variants on {sc.n_diagonal}x{sc.n_diagonal} Diagonal",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}; paper: 4096x4096",
    )
    dig = digest_prefix(pref)
    with use_sweep():  # warm starts across the m sweep (bit-identical)
        for m in sc.m_values:
            for variant in ("LOAD", "DIST", "HOR", "VER"):
                algo = f"HIER-RELAXED-{variant}"
                res.add(algo, m, _imb_cell(sc.name, dig, algo, m, pref))
    return res


# ----------------------------------------------------------------------
# Figure 6 — execution time of every algorithm on Uniform
# ----------------------------------------------------------------------
def fig06_runtime(scale=None) -> FigureResult:
    """Runtime of the algorithms on Uniform Δ=1.2, seconds vs m (Fig 6).

    Paper: 512×512, Δ = 1.2.  Expected ordering: RECT-UNIFORM fastest, then
    HIER-RB, the jagged heuristics, RECT-NICOL, HIER-RELAXED, with
    JAG-PQ-OPT much slower and JAG-M-OPT off the chart (15 minutes at 961
    processors in the paper's C++).
    """
    sc = get_scale(scale)
    A = uniform(sc.n_uniform, 1.2, seed=0)
    pref = PrefixSum2D(A)
    res = FigureResult(
        "fig06",
        f"Runtime on {sc.n_uniform}x{sc.n_uniform} Uniform (delta=1.2)",
        "m",
        "seconds",
        notes=f"scale={sc.name}; paper: 512x512 C++ timings — compare ordering, not values",
    )
    # deliberately NOT routed through use_sweep(): this figure *times* the
    # algorithms, and warm starts would measure the sweep engine instead of
    # the per-call costs the paper reports.  Timings are raw *measurements*:
    # once a cell is in the raw store it is replayed verbatim (like any
    # recorded experiment), keyed by the measurement protocol (repeats)
    def _timing(algo: str, m: int, repeats: int) -> float:
        return raw_cell(
            sc.name,
            dig,
            algo,
            m,
            lambda: float(timed(ALGORITHMS[algo], pref, m, repeats=repeats)[0]),
            metric="runtime_s",
            repeats=repeats,
        )

    dig = digest_prefix(pref)
    for m in sc.m_values:
        for name in HEURISTICS:
            # best of 3: one-shot wall clocks of millisecond heuristics are
            # noisy under concurrent load
            res.add(name, m, _timing(name, m, 3))
        if m <= sc.m_cap_pq_opt:
            res.add("JAG-PQ-OPT", m, _timing("JAG-PQ-OPT", m, 1))
        if m <= sc.m_cap_m_opt:
            res.add("JAG-M-OPT", m, _timing("JAG-M-OPT", m, 1))
    return res


# ----------------------------------------------------------------------
# Figure 7 — jagged methods on PIC-MAG, iteration 30,000
# ----------------------------------------------------------------------
def fig07_jagged_vs_m(scale=None) -> FigureResult:
    """Jagged partitioning on the PIC-MAG snapshot at iter 30,000 (Fig 7).

    Expected: JAG-PQ-HEUR ≈ JAG-PQ-OPT ("almost no room for improvement for
    the P×Q heuristic"); JAG-M-HEUR always at least as good; JAG-M-OPT (run
    while affordable) far better still — ~1% vs ~6% at 1,000 processors.
    """
    sc = get_scale(scale)
    ds = _pic_dataset(sc)
    A = ds.snapshot(sc.pic_fig7_iteration)
    pref = PrefixSum2D(A)
    res = FigureResult(
        "fig07",
        f"Jagged methods on PIC-MAG iter={sc.pic_fig7_iteration}",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}; JAG-M-OPT capped at m={sc.m_cap_m_opt} "
        "(paper caps at 1,000: 'runtime becomes prohibitive')",
    )
    dig = digest_prefix(pref)
    with use_sweep():  # heuristic witnesses seed the exact solvers per m,
        # and exact bounds transfer across the m sweep (bit-identical)
        for m in sc.m_values:
            for name in ("JAG-PQ-HEUR", "JAG-M-HEUR"):
                res.add(name, m, _imb_cell(sc.name, dig, name, m, pref))
            if m <= sc.m_cap_pq_opt:
                res.add("JAG-PQ-OPT", m, _imb_cell(sc.name, dig, "JAG-PQ-OPT", m, pref))
            if m <= sc.m_cap_m_opt:
                res.add("JAG-M-OPT", m, _imb_cell(sc.name, dig, "JAG-M-OPT", m, pref))
    return res


# ----------------------------------------------------------------------
# Figure 8 — jagged methods across PIC-MAG iterations
# ----------------------------------------------------------------------
def fig08_jagged_vs_iteration(scale=None) -> FigureResult:
    """Jagged methods over the PIC-MAG run at fixed m (Fig 8).

    Paper: m = 6,400; P×Q methods sit at a flat ~18% while the m-way
    heuristic varies between ~2.5% and ~16% — always below.
    """
    sc = get_scale(scale)
    ds = _pic_dataset(sc)
    m = sc.m_fig8
    res = FigureResult(
        "fig08",
        f"Jagged methods on PIC-MAG, m={m}",
        "iteration",
        "load imbalance",
        notes=f"scale={sc.name}; paper: m=6,400, snapshots every 500 iterations",
    )
    for it, A in ds.snapshots():
        pref = PrefixSum2D(A)
        dig = digest_prefix(pref)
        with use_sweep():  # per snapshot: the heuristic witness seeds the
            # exact solver's upper bound at this m (bit-identical)
            for name in ("JAG-PQ-HEUR", "JAG-PQ-OPT", "JAG-M-HEUR"):
                if name == "JAG-PQ-OPT" and m > sc.m_cap_pq_opt:
                    continue
                res.add(name, it, _imb_cell(sc.name, dig, name, m, pref))
    return res


# ----------------------------------------------------------------------
# Figure 9 — stripe-count sweep for JAG-M-HEUR vs Theorem 3
# ----------------------------------------------------------------------
def fig09_stripe_count(scale=None) -> FigureResult:
    """Impact of the number of stripes P in JAG-M-HEUR (Fig 9).

    Paper: 514×514 Uniform Δ=1.2, m=800; the measured imbalance follows the
    shape of the Theorem 3 worst-case guarantee, with steps synchronized with
    integral n1/P values.
    """
    sc = get_scale(scale)
    A = uniform(sc.n_fig9, 1.2, seed=0)
    pref = PrefixSum2D(A)
    m = sc.m_fig9
    delta = 1.2
    res = FigureResult(
        "fig09",
        f"JAG-M-HEUR stripe count on {sc.n_fig9}x{sc.n_fig9} Uniform (delta=1.2), m={m}",
        "P",
        "load imbalance",
        notes=f"scale={sc.name}; paper: 514x514, m=800, P in [2, 300]",
    )
    dig = digest_prefix(pref)
    for P in sc.fig9_stripes:
        if P >= m or P >= pref.n1:
            continue
        v = raw_cell(
            sc.name,
            dig,
            "JAG-M-HEUR",
            m,
            lambda P=P: float(
                jag_m_heur(pref, m, num_stripes=P, orientation="hor").imbalance(pref)
            ),
            num_stripes=P,
            orientation="hor",
        )
        res.add("JAG-M-HEUR variable P", P, v)
        res.add(
            "m-way jagged guarantee (Thm 3)",
            P,
            theorem3_ratio(delta, P, m, pref.n1, pref.n2) - 1.0,
        )
    return res


# ----------------------------------------------------------------------
# Figure 10 — hierarchical methods on Diagonal
# ----------------------------------------------------------------------
def fig10_hier_diagonal(scale=None) -> FigureResult:
    """HIER-RB vs HIER-RELAXED on Diagonal, imbalance vs m (Fig 10).

    Paper: 4096×4096 diagonal; HIER-RELAXED clearly better than HIER-RB.
    """
    sc = get_scale(scale)
    A = diagonal(sc.n_diagonal, seed=0)
    pref = PrefixSum2D(A)
    res = FigureResult(
        "fig10",
        f"Hierarchical methods on {sc.n_diagonal}x{sc.n_diagonal} Diagonal",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}; paper: 4096x4096",
    )
    dig = digest_prefix(pref)
    with use_sweep():  # warm starts across the m sweep (bit-identical)
        for m in sc.m_values:
            res.add("HIER-RB", m, _imb_cell(sc.name, dig, "HIER-RB", m, pref))
            res.add(
                "HIER-RELAXED", m, _imb_cell(sc.name, dig, "HIER-RELAXED", m, pref)
            )
    return res


# ----------------------------------------------------------------------
# Figure 11 — hierarchical methods across PIC-MAG iterations
# ----------------------------------------------------------------------
def fig11_hier_vs_iteration(scale=None) -> FigureResult:
    """Hierarchical methods over the PIC-MAG run at fixed m (Fig 11).

    Paper: m = 400; HIER-RELAXED is "highly unstable" across iterations
    while HIER-RB stays comparatively flat.
    """
    sc = get_scale(scale)
    ds = _pic_dataset(sc)
    m = sc.m_fig11
    res = FigureResult(
        "fig11",
        f"Hierarchical methods on PIC-MAG, m={m}",
        "iteration",
        "load imbalance",
        notes=f"scale={sc.name}; paper: m=400",
    )
    for it, A in ds.snapshots():
        pref = PrefixSum2D(A)
        dig = digest_prefix(pref)
        res.add("HIER-RB", it, _imb_cell(sc.name, dig, "HIER-RB", m, pref))
        res.add("HIER-RELAXED", it, _imb_cell(sc.name, dig, "HIER-RELAXED", m, pref))
    return res


# ----------------------------------------------------------------------
# Figure 12 — all heuristics across PIC-MAG iterations
# ----------------------------------------------------------------------
def fig12_all_vs_iteration(scale=None) -> FigureResult:
    """All heuristics over the PIC-MAG run at large fixed m (Fig 12).

    Paper: m = 9,216; RECT-UNIFORM 30–45%, RECT-NICOL ≈ JAG-PQ-HEUR ≈ 28%,
    HIER-RB 20–30%, HIER-RELAXED mostly 8–9%, JAG-M-HEUR best (5–8%) in all
    but two iterations.
    """
    sc = get_scale(scale)
    ds = _pic_dataset(sc)
    m = sc.m_fig12
    res = FigureResult(
        "fig12",
        f"All heuristics on PIC-MAG, m={m}",
        "iteration",
        "load imbalance",
        notes=f"scale={sc.name}; paper: m=9,216",
    )
    for it, A in ds.snapshots():
        pref = PrefixSum2D(A)
        dig = digest_prefix(pref)
        for name in HEURISTICS:
            res.add(name, it, _imb_cell(sc.name, dig, name, m, pref))
    return res


# ----------------------------------------------------------------------
# Figure 13 — all heuristics vs m at PIC-MAG iteration 20,000
# ----------------------------------------------------------------------
def fig13_all_vs_m(scale=None) -> FigureResult:
    """All heuristics on the PIC-MAG snapshot at iter 20,000 vs m (Fig 13).

    Paper: HIER-RELAXED generally best here, JAG-M-HEUR close (its weak spots
    stem from the √m stripe-count choice).
    """
    sc = get_scale(scale)
    ds = _pic_dataset(sc)
    A = ds.snapshot(sc.pic_fig13_iteration)
    pref = PrefixSum2D(A)
    res = FigureResult(
        "fig13",
        f"All heuristics on PIC-MAG iter={sc.pic_fig13_iteration}",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}",
    )
    dig = digest_prefix(pref)
    with use_sweep():  # warm starts across the m sweep (bit-identical)
        for m in sc.m_values:
            for name in HEURISTICS:
                res.add(name, m, _imb_cell(sc.name, dig, name, m, pref))
    return res


# ----------------------------------------------------------------------
# Figure 14 — all heuristics on the sparse SLAC mesh
# ----------------------------------------------------------------------
def fig14_slac(scale=None) -> FigureResult:
    """All heuristics on the SLAC instance vs m (Fig 14).

    Paper: 512×512 projected mesh with many zeros; "most algorithms get a
    high load imbalance.  Only the hierarchical partitioning algorithms
    manage to keep the imbalance low and HIER-RELAXED gets a lower imbalance
    than HIER-RB."

    At the ``large`` profile the instance (4096²) is built straight from the
    projected-vertex triplet stream onto the sparse CSR substrate — same
    digest, bit-identical cells, never a dense O(n²) allocation.
    """
    sc = get_scale(scale)
    if sc.name == "large":
        from ..instances.mesh.project import slac_sparse

        pref = slac_sparse(sc.n_slac)
    else:
        A = slac_instance(sc.n_slac)
        pref = PrefixSum2D(A)
    res = FigureResult(
        "fig14",
        f"All heuristics on SLAC {sc.n_slac}x{sc.n_slac}",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}; sparse instance (zeros), delta undefined",
    )
    dig = digest_prefix(pref)
    with use_sweep():  # warm starts across the m sweep (bit-identical)
        for m in sc.m_values:
            for name in HEURISTICS:
                res.add(name, m, _imb_cell(sc.name, dig, name, m, pref))
    return res


#: figure id -> callable, in paper order
ALL_FIGURES = {
    "fig03": fig03_hier_rb_variants,
    "fig04": fig04_hier_relaxed_variants,
    "fig05": fig05_hier_relaxed_diagonal,
    "fig06": fig06_runtime,
    "fig07": fig07_jagged_vs_m,
    "fig08": fig08_jagged_vs_iteration,
    "fig09": fig09_stripe_count,
    "fig10": fig10_hier_diagonal,
    "fig11": fig11_hier_vs_iteration,
    "fig12": fig12_all_vs_iteration,
    "fig13": fig13_all_vs_m,
    "fig14": fig14_slac,
}
