"""Extension experiments beyond the paper's figures (its §5 future work).

* :func:`ext1_comm_volume` — "investigate the effect of these different
  partitioning schemes in communication cost": communication volume (grid
  edges crossing owners) of every heuristic vs m on the PIC-MAG snapshot.
* :func:`ext2_migration_tradeoff` — "taking into account data migration
  costs in dynamic applications": imbalance vs migrated load for full
  repartitioning vs :class:`repro.dynamic.IncrementalJagged` at several
  thresholds, over the PIC-MAG run.
* :func:`ext3_stripe_autotuning` — the Theorem 4 / auto stripe count of
  JAG-M-HEUR against the paper's √m default (the Figure 13 weak spots).
* :func:`ext4_volume_3d` — the 2D algorithms' 3D lifts on a 3D PIC-like
  load volume.
* :func:`ext5_registry_coverage` — every registry entry the paper's figures
  leave out (exact methods, orientation variants, §3.4 spiral schemes) on a
  tiny common instance, so the raw-cell coverage test
  (``tests/test_registry.py::test_raw_cells_cover_every_entry``) holds: no
  registered algorithm goes unmeasured.
* :func:`ext6_spmv_sparse` — the intro's spmv use case ([1]–[3]) at the
  profile's histogram resolution; at the ``large`` profile the instance
  builds on the sparse CSR substrate straight from the edge stream (4096²,
  never densified) — the substrate the tentpole exists for.
* :func:`ext7_policy_comparison` — "integrate the proposed algorithms in a
  real dynamic application and study their end-to-end effects": cumulative
  simulated BSP time (compute + communication + migration) of the
  repartitioning policies of :mod:`repro.dynamic.policies` over the PIC-MAG
  run.

All return :class:`~repro.experiments.harness.FigureResult` like the paper
figures; ``tests/test_paper_claims.py`` checks the ext1–ext4 shape claims on
their committed CSVs.
"""

from __future__ import annotations

import numpy as np

from ..core.metrics import communication_volume, migration_volume
from ..core.prefix import PrefixSum2D
from ..core.registry import ALGORITHMS
from ..dynamic import (
    EveryK,
    ImbalanceTriggered,
    IncrementalJagged,
    MigrationBudgeted,
)
from ..instances import peak
from ..jagged.m_heur import jag_m_heur
from ..runtime import BSPSimulator
from ..volume import PrefixSum3D, vol_hier_rb, vol_jag_m_heur, vol_uniform
from .figures import HEURISTICS, _imb_cell, _pic_dataset
from .harness import FigureResult
from .rawstore import cell as raw_cell
from .rawstore import combine_digests, digest_matrix, digest_prefix
from .scale import get_scale

__all__ = [
    "ext1_comm_volume",
    "ext2_migration_tradeoff",
    "ext3_stripe_autotuning",
    "ext4_volume_3d",
    "ext5_registry_coverage",
    "ext6_spmv_sparse",
    "ext7_policy_comparison",
    "ALL_EXTENSIONS",
]


def ext1_comm_volume(scale=None) -> FigureResult:
    """Communication volume of every heuristic vs m (PIC-MAG snapshot)."""
    sc = get_scale(scale)
    ds = _pic_dataset(sc)
    A = ds.snapshot(sc.pic_fig13_iteration)
    pref = PrefixSum2D(A)
    res = FigureResult(
        "ext1",
        f"Communication volume on PIC-MAG iter={sc.pic_fig13_iteration}",
        "m",
        "crossing edges",
        notes=f"scale={sc.name}; §5 extension (not a paper figure)",
    )
    dig = digest_prefix(pref)
    for m in sc.m_values:
        for name in HEURISTICS:
            v = raw_cell(
                sc.name,
                dig,
                name,
                m,
                lambda name=name, m=m: int(
                    communication_volume(ALGORITHMS[name](pref, m))
                ),
                metric="comm_volume",
            )
            res.add(name, m, v)
    return res


def ext2_migration_tradeoff(scale=None) -> FigureResult:
    """Imbalance/migration trade-off of incremental repartitioning."""
    sc = get_scale(scale)
    ds = _pic_dataset(sc)
    m = sc.m_fig8
    res = FigureResult(
        "ext2",
        f"Migration vs imbalance over the PIC-MAG run, m={m}",
        "threshold",
        "value",
        notes=f"scale={sc.name}; series: total migrated load (fraction of "
        "total work moved per step) and mean imbalance",
    )
    snaps = [PrefixSum2D(A) for _, A in ds.snapshots()]
    # one cell per threshold: the value is a function of the whole snapshot
    # stream, so the instance coordinate is the combined stream digest
    sig = combine_digests(digest_prefix(p) for p in snaps)

    def _series(thr: float) -> list:
        inc = IncrementalJagged(m, threshold=thr)
        prev = None
        migration = 0
        imbs = []
        for pref in snaps:
            part = inc.step(pref)
            if prev is not None:
                migration += migration_volume(prev, part, pref)
            prev = part
            imbs.append(part.imbalance(pref))
        total_work = sum(p.total for p in snaps)
        return [
            float(migration / total_work),
            float(np.mean(imbs)),
            int(inc.full_repartitions),
        ]

    for thr in (0.0, 0.05, 0.1, 0.2, 0.4):
        migrated, mean_imb, full = raw_cell(
            sc.name,
            sig,
            "INC-JAGGED",
            m,
            lambda thr=thr: _series(thr),
            metric="migration_series",
            threshold=thr,
        )
        res.add("migrated fraction", thr, migrated)
        res.add("mean imbalance", thr, mean_imb)
        res.add("full repartitions", thr, full)
    return res


def ext3_stripe_autotuning(scale=None) -> FigureResult:
    """JAG-M-HEUR stripe-count policies: √m vs Theorem 4 vs auto sweep."""
    sc = get_scale(scale)
    ds = _pic_dataset(sc)
    A = ds.snapshot(sc.pic_fig13_iteration)
    pref = PrefixSum2D(A)
    res = FigureResult(
        "ext3",
        f"JAG-M-HEUR stripe policies on PIC-MAG iter={sc.pic_fig13_iteration}",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}; Theorem 4 uses the measured delta",
    )
    dig = digest_prefix(pref)
    for m in sc.m_values:
        for policy in ("sqrt", "theorem4", "auto"):
            v = raw_cell(
                sc.name,
                dig,
                "JAG-M-HEUR",
                m,
                lambda policy=policy, m=m: float(
                    jag_m_heur(pref, m, num_stripes=policy).imbalance(pref)
                ),
                num_stripes=policy,
            )
            res.add(policy, m, v)
    return res


def ext4_volume_3d(scale=None) -> FigureResult:
    """3D lifts (VOL-UNIFORM / VOL-JAG-M-HEUR / VOL-HIER-RB) on a 3D blob."""
    sc = get_scale(scale)
    n = max(16, sc.pic.grid // 4)
    i, j, k = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    A = (
        1000
        + 5000
        * np.exp(
            -(
                ((i - 0.3 * n) ** 2 + (j - 0.6 * n) ** 2 + (k - 0.5 * n) ** 2)
                / (2 * (0.15 * n) ** 2)
            )
        )
    ).astype(np.int64)
    pref = PrefixSum3D(A)
    res = FigureResult(
        "ext4",
        f"3D partitioning of a {n}^3 load volume",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}; rectangular volumes (paper §1)",
    )
    dig = digest_matrix(A)
    for m in sc.m_values:
        for name, fn in (
            ("VOL-UNIFORM", vol_uniform),
            ("VOL-JAG-M-HEUR", vol_jag_m_heur),
            ("VOL-HIER-RB", vol_hier_rb),
        ):
            v = raw_cell(
                sc.name,
                dig,
                name,
                m,
                lambda fn=fn, m=m: float(fn(pref, m).imbalance(pref)),
            )
            res.add(name, m, v)
    return res


#: registry entries no paper figure reaches (test_raw_cells_cover_every_entry
#: needs a raw cell for each): the exact methods the paper caps or omits, the
#: §3.4 spiral schemes, and the explicit orientation variants of the jagged
#: algorithms (§4.1; the figures use the -BEST default)
_UNCOVERED_ENTRIES = (
    "HIER-OPT",
    "SPIRAL-RELAXED",
    "SPIRAL-OPT",
    "JAG-PQ-HEUR-HOR",
    "JAG-PQ-HEUR-VER",
    "JAG-PQ-HEUR-BEST",
    "JAG-PQ-OPT-HOR",
    "JAG-PQ-OPT-VER",
    "JAG-PQ-OPT-BEST",
    "JAG-M-HEUR-HOR",
    "JAG-M-HEUR-VER",
    "JAG-M-HEUR-BEST",
    "JAG-M-OPT-HOR",
    "JAG-M-OPT-VER",
    "JAG-M-OPT-BEST",
)


def ext5_registry_coverage(scale=None) -> FigureResult:
    """Imbalance of every otherwise-unexercised registry entry vs m.

    Closes the registry↔experiments coverage gap that
    ``test_raw_cells_cover_every_entry`` guards: the exact methods (HIER-OPT
    and the jagged -OPT variants are exponential-ish in cost, so the figures
    cap or skip them), the §3.4 spiral schemes, and the explicit
    -HOR/-VER/-BEST orientations all run on one tiny Peak instance.
    Doubles as a sanity check: every exact method must beat or match its
    heuristic on the common instance (asserted in ``tests/test_experiments.py``).
    """
    sc = get_scale(scale)
    n = min(sc.n_peak, 20)  # exact DPs: keep the common instance tiny
    pref = PrefixSum2D(peak(n, seed=0))
    res = FigureResult(
        "ext5",
        f"Registry coverage sweep on {n}x{n} Peak",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}; entries no paper figure exercises",
    )
    dig = digest_prefix(pref)
    for m in (2, 4, 6):
        for name in _UNCOVERED_ENTRIES:
            res.add(name, m, _imb_cell(sc.name, dig, name, m, pref))
    return res


def ext6_spmv_sparse(scale=None) -> FigureResult:
    """All heuristics on the R-MAT spmv nonzero histogram vs m.

    The intro's first application class (2D-decomposed sparse linear
    algebra, refs [1]–[3]) at the profile's ``n_spmv`` blocking resolution.
    At the ``large`` profile the 4096² histogram is built straight from the
    edge stream onto the sparse CSR substrate
    (:func:`repro.instances.spmv.spmv_sparse` — O(nnz) memory, digest-equal
    to the densified instance, so raw-store cells transfer across
    substrates); the other profiles densify as before.
    """
    sc = get_scale(scale)
    if sc.name == "large":
        from ..instances.spmv import spmv_sparse

        pref = spmv_sparse(sc.n_spmv, model="rmat", seed=0)
    else:
        from ..instances.spmv import spmv_instance

        pref = PrefixSum2D(spmv_instance(sc.n_spmv, model="rmat", seed=0))
    res = FigureResult(
        "ext6",
        f"All heuristics on R-MAT spmv {sc.n_spmv}x{sc.n_spmv}",
        "m",
        "load imbalance",
        notes=f"scale={sc.name}; §1 spmv use case (not a paper figure)",
    )
    dig = digest_prefix(pref)
    for m in sc.m_values:
        for name in HEURISTICS:
            res.add(name, m, _imb_cell(sc.name, dig, name, m, pref))
    return res


def ext7_policy_comparison(scale=None) -> FigureResult:
    """End-to-end simulated BSP cost of the repartitioning policies (§5).

    Each policy drives :class:`repro.runtime.BSPSimulator` over the whole
    PIC-MAG snapshot stream with the JAG-M-HEUR solver at ``m_fig11``
    processors; the figure plots cumulative simulated time (compute +
    communication + migration, default :class:`~repro.runtime.CostModel`)
    against iteration.  One raw-store cell per policy, keyed by the combined
    stream digest — the per-step series is cached, the cumulative sum is
    recomputed at plot time.
    """
    sc = get_scale(scale)
    ds = _pic_dataset(sc)
    m = sc.m_fig11
    snaps = [(it, PrefixSum2D(A)) for it, A in ds.snapshots()]
    sig = combine_digests(digest_prefix(p) for _, p in snaps)
    res = FigureResult(
        "ext7",
        f"Repartitioning policies over the PIC-MAG run, m={m}",
        "iteration",
        "cumulative simulated time (s)",
        notes=f"scale={sc.name}; JAG-M-HEUR solver, default cost model, "
        f"steps_per_snapshot={sc.pic_period}; §5 extension (not a paper "
        "figure)",
    )
    solver = ALGORITHMS["JAG-M-HEUR"]
    policies = {
        "every-1": lambda: EveryK(1),
        "static": lambda: EveryK(0),
        "imbalance-0.1": lambda: ImbalanceTriggered(0.1),
        "budgeted-h5": lambda: MigrationBudgeted(),
        "incremental-0.1": lambda: IncrementalJagged(m, threshold=0.1),
    }

    def _series(make) -> list:
        rep = BSPSimulator(m, solver, policy=make()).run(
            snaps, steps_per_snapshot=sc.pic_period
        )
        return [
            [float(s.total_time) for s in rep.steps],
            [int(s.repartitioned) for s in rep.steps],
        ]

    for pname, make in policies.items():
        times, _reparts = raw_cell(
            sc.name,
            sig,
            "JAG-M-HEUR",
            m,
            lambda make=make: _series(make),
            metric="policy_sim",
            policy=pname,
        )
        cum = 0.0
        for (it, _), t in zip(snaps, times):
            cum += t
            res.add(pname, it, cum)
    return res


#: extension id -> callable
ALL_EXTENSIONS = {
    "ext1": ext1_comm_volume,
    "ext2": ext2_migration_tradeoff,
    "ext3": ext3_stripe_autotuning,
    "ext4": ext4_volume_3d,
    "ext5": ext5_registry_coverage,
    "ext6": ext6_spmv_sparse,
    "ext7": ext7_policy_comparison,
}
