"""The paper's figure claims, checked on the committed figure CSVs.

Each ``figNN_*`` / ``extN_*`` function below states one ordering claim
about one :class:`FigureResult` and fails with an ``AssertionError`` when
the data contradicts it.  The figure claims are the paper's (§4, and the
journal version, arXiv 1104.2566); the ``ext*`` claims are shape checks of
this reproduction's extension experiments.

The tests apply every claim to the CSVs ``make figures`` commits: the small
profile under ``benchmarks/results/`` and the paper profile under
``benchmarks/results/paper/`` (figures only).  ``make figures-check``
proves the committed small-profile CSVs are what the code computes today,
so nothing is recomputed here and fig06 reads committed timings rather
than the wall clock.

Comparisons are exact.  The only slacks are the paper-shape tolerances
declared below, each once, with its reason.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ALL_EXTENSIONS, ALL_FIGURES, FigureResult

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
PROFILES = {"small": RESULTS, "paper": RESULTS / "paper"}

#: fig03/fig04: the paper calls the -LOAD variant the best "overall", not at
#: every m; its mean imbalance may exceed the best variant's by this much
VARIANT_MEAN_SLACK = 0.05
#: fig06: the timings are single wall-clock runs at millisecond scale, so
#: "JAG-PQ-OPT ≫ every heuristic" is checked as "at least this fraction of
#: the slowest heuristic's time" at the largest m
FIG06_OPT_FACTOR = 0.5
#: fig07: JAG-M-HEUR is "at least as good as" the P×Q methods, but its
#: ⌈√m⌉ stripe count makes single points jump (the stripe-count artefact
#: of fig09/fig13); per m it may lose to JAG-PQ-HEUR by this much imbalance,
#: on aggregate not at all
FIG07_POINT_SLACK = 0.02
#: ext1: stripe structures keep boundaries short (§1), so their
#: communication volume stays within this factor of the uniform grid's ...
EXT1_STRIPE_FACTOR = 2.0
#: ... and the hierarchical trees within one order of magnitude of it
EXT1_ANY_FACTOR = 10.0
#: ext1: additive cells on both bounds, so a zero-volume grid baseline does
#: not demand zero volume of every method
EXT1_BASE_SLACK = 1


def _means(res: FigureResult) -> dict[str, float]:
    return {name: np.mean([y for _, y in pts]) for name, pts in res.series.items()}


def _by_x(res: FigureResult) -> dict[float, dict[str, float]]:
    rows: dict[float, dict[str, float]] = {}
    for name, pts in res.series.items():
        for x, y in pts:
            rows.setdefault(x, {})[name] = y
    return rows


def _points(res: FigureResult, name: str) -> dict[float, float]:
    return dict(res.series[name])


# ----------------------------------------------------------------------
# the claims
# ----------------------------------------------------------------------
def fig03_load_variant_best_on_aggregate(res):
    means = _means(res)
    assert means["HIER-RB-LOAD"] <= min(means.values()) + VARIANT_MEAN_SLACK, means


def fig04_load_variant_best_on_aggregate(res):
    means = _means(res)
    assert means["HIER-RELAXED-LOAD"] <= min(means.values()) + VARIANT_MEAN_SLACK, means


def fig05_plots_the_four_variants(res):
    assert set(res.series) == {f"HIER-RELAXED-{v}" for v in ("LOAD", "DIST", "HOR", "VER")}


def fig06_rect_uniform_fastest_at_largest_m(res):
    times = _by_x(res)[max(res.xs())]
    assert times["RECT-UNIFORM"] == min(times.values()), times


def fig06_pq_opt_slower_than_heuristics_at_largest_m(res):
    times = _by_x(res)[max(res.xs())]
    heur_max = max(t for name, t in times.items() if "OPT" not in name)
    assert times["JAG-PQ-OPT"] >= FIG06_OPT_FACTOR * heur_max, times


def fig07_m_heur_near_pq_heur_at_every_m(res):
    pq, mh = _points(res, "JAG-PQ-HEUR"), _points(res, "JAG-M-HEUR")
    for m, y in mh.items():
        assert y <= pq[m] + FIG07_POINT_SLACK, (m, y, pq[m])


def fig07_m_heur_beats_pq_heur_on_aggregate(res):
    means = _means(res)
    assert means["JAG-M-HEUR"] <= means["JAG-PQ-HEUR"], means


def fig07_m_opt_dominates_m_heur(res):
    mh = _points(res, "JAG-M-HEUR")
    for m, y in res.series["JAG-M-OPT"]:
        assert y <= mh[m], (m, y, mh[m])


def fig07_m_opt_dominates_pq_opt(res):
    po = _points(res, "JAG-PQ-OPT")
    for m, y in res.series["JAG-M-OPT"]:
        assert y <= po[m], (m, y, po[m])


def fig07_pq_opt_dominates_pq_heur(res):
    pq = _points(res, "JAG-PQ-HEUR")
    for m, y in res.series["JAG-PQ-OPT"]:
        assert y <= pq[m], (m, y, pq[m])


def fig08_m_heur_beats_pq_heur_on_aggregate(res):
    means = _means(res)
    assert means["JAG-M-HEUR"] <= means["JAG-PQ-HEUR"], means


def fig08_pq_opt_dominates_pq_heur(res):
    pq = _points(res, "JAG-PQ-HEUR")
    for it, y in res.series["JAG-PQ-OPT"]:
        assert y <= pq[it], (it, y, pq[it])


def fig09_m_heur_within_theorem3_guarantee(res):
    guar = _points(res, "m-way jagged guarantee (Thm 3)")
    for P, y in res.series["JAG-M-HEUR variable P"]:
        assert y <= guar[P], (P, y, guar[P])


def fig09_guarantee_rises_in_its_tail(res):
    """The right arm of the U-shape Theorem 4 analyses."""
    guar = _points(res, "m-way jagged guarantee (Thm 3)")
    tail = sorted(guar)[-3:]
    assert guar[tail[0]] <= guar[tail[-1]], {P: guar[P] for P in tail}


def fig10_relaxed_beats_rb_on_aggregate(res):
    means = _means(res)
    assert means["HIER-RELAXED"] <= means["HIER-RB"], means


def fig11_plots_both_hierarchical_methods(res):
    assert set(res.series) == {"HIER-RB", "HIER-RELAXED"}
    assert all(np.isfinite(y) for pts in res.series.values() for _, y in pts)


def fig12_rect_uniform_worst_on_aggregate(res):
    means = _means(res)
    assert means["RECT-UNIFORM"] == max(means.values()), means


def fig12_m_heur_beats_stripe_methods_on_aggregate(res):
    means = _means(res)
    assert means["JAG-M-HEUR"] <= means["JAG-PQ-HEUR"], means
    assert means["JAG-M-HEUR"] <= means["RECT-NICOL"], means


def fig13_load_aware_beat_rect_uniform_on_aggregate(res):
    means = _means(res)
    for name in ("RECT-NICOL", "JAG-PQ-HEUR", "JAG-M-HEUR", "HIER-RB", "HIER-RELAXED"):
        assert means[name] <= means["RECT-UNIFORM"], (name, means)


def fig14_hierarchical_beat_stripe_methods_on_aggregate(res):
    means = _means(res)
    hier_best = min(means["HIER-RB"], means["HIER-RELAXED"])
    for name in ("RECT-UNIFORM", "RECT-NICOL", "JAG-PQ-HEUR"):
        assert hier_best <= means[name], (name, means)


def fig14_relaxed_beats_rb_on_aggregate(res):
    means = _means(res)
    assert means["HIER-RELAXED"] <= means["HIER-RB"], means


def ext1_stripe_comm_near_uniform_grid(res):
    for m, row in _by_x(res).items():
        bound = EXT1_STRIPE_FACTOR * row["RECT-UNIFORM"] + EXT1_BASE_SLACK
        assert row["JAG-M-HEUR"] <= bound and row["JAG-PQ-HEUR"] <= bound, (m, row)


def ext1_comm_within_order_of_magnitude(res):
    for m, row in _by_x(res).items():
        bound = EXT1_ANY_FACTOR * row["RECT-UNIFORM"] + EXT1_BASE_SLACK
        assert max(row.values()) <= bound, (m, row)


def ext2_migration_falls_with_threshold(res):
    mig = _points(res, "migrated fraction")
    thresholds = sorted(mig)
    for a, b in zip(thresholds, thresholds[1:]):
        assert mig[b] <= mig[a], (a, b, mig)


def ext3_auto_never_loses_to_sqrt(res):
    """The auto sweep contains ⌈√m⌉ stripes, so it cannot lose at any m."""
    sqrt_, auto = _points(res, "sqrt"), _points(res, "auto")
    for m, y in sqrt_.items():
        assert auto[m] <= y, (m, auto[m], y)


def ext3_auto_beats_sqrt_on_aggregate(res):
    means = _means(res)
    assert means["auto"] <= means["sqrt"], means


def ext4_load_aware_volumes_beat_uniform_on_aggregate(res):
    means = _means(res)
    assert means["VOL-JAG-M-HEUR"] <= means["VOL-UNIFORM"], means
    assert means["VOL-HIER-RB"] <= means["VOL-UNIFORM"], means


CLAIMS = [
    fig03_load_variant_best_on_aggregate,
    fig04_load_variant_best_on_aggregate,
    fig05_plots_the_four_variants,
    fig06_rect_uniform_fastest_at_largest_m,
    fig06_pq_opt_slower_than_heuristics_at_largest_m,
    fig07_m_heur_near_pq_heur_at_every_m,
    fig07_m_heur_beats_pq_heur_on_aggregate,
    fig07_m_opt_dominates_m_heur,
    fig07_m_opt_dominates_pq_opt,
    fig07_pq_opt_dominates_pq_heur,
    fig08_m_heur_beats_pq_heur_on_aggregate,
    fig08_pq_opt_dominates_pq_heur,
    fig09_m_heur_within_theorem3_guarantee,
    fig09_guarantee_rises_in_its_tail,
    fig10_relaxed_beats_rb_on_aggregate,
    fig11_plots_both_hierarchical_methods,
    fig12_rect_uniform_worst_on_aggregate,
    fig12_m_heur_beats_stripe_methods_on_aggregate,
    fig13_load_aware_beat_rect_uniform_on_aggregate,
    fig14_hierarchical_beat_stripe_methods_on_aggregate,
    fig14_relaxed_beats_rb_on_aggregate,
    ext1_stripe_comm_near_uniform_grid,
    ext1_comm_within_order_of_magnitude,
    ext2_migration_falls_with_threshold,
    ext3_auto_never_loses_to_sqrt,
    ext3_auto_beats_sqrt_on_aggregate,
    ext4_load_aware_volumes_beat_uniform_on_aggregate,
]


def _fig(claim) -> str:
    return claim.__name__.split("_", 1)[0]


def _committed(profile: str, fig: str) -> FigureResult:
    return FigureResult.from_csv(PROFILES[profile] / f"{fig}.csv", fig=fig)


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("profile", "claim"),
    [
        pytest.param(profile, claim, id=f"{profile}-{claim.__name__}")
        for profile in PROFILES
        for claim in CLAIMS
        if profile == "small" or _fig(claim) in ALL_FIGURES
    ],
)
def test_claim(profile, claim):
    claim(_committed(profile, _fig(claim)))


@pytest.mark.parametrize(
    ("profile", "fig"),
    [("small", fig) for fig in sorted({**ALL_FIGURES, **ALL_EXTENSIONS})]
    + [("paper", fig) for fig in sorted(ALL_FIGURES)],
    ids=lambda v: v,
)
def test_committed_csv_loads(profile, fig):
    res = _committed(profile, fig)
    assert res.series and all(res.series.values()), fig


def _swap_heuristics(rows):
    i, j = rows[0].index("JAG-M-HEUR"), rows[0].index("JAG-PQ-HEUR")
    rows[0][i], rows[0][j] = rows[0][j], rows[0][i]


def _raise_above_guarantee(rows):
    i = rows[0].index("JAG-M-HEUR variable P")
    j = rows[0].index("m-way jagged guarantee (Thm 3)")
    rows[1][i] = repr(float(rows[1][j]) + 0.01)


#: a CSV edit that contradicts one claim: (figure, edit, claim it must fail)
MUTANTS = {
    "fig07-swapped-heuristics": ("fig07", _swap_heuristics, fig07_m_heur_near_pq_heur_at_every_m),
    "fig09-above-guarantee": (
        "fig09",
        _raise_above_guarantee,
        fig09_m_heur_within_theorem3_guarantee,
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
@pytest.mark.parametrize("profile", PROFILES)
def test_mutated_csv_fails_its_claim(tmp_path, profile, mutant):
    fig, edit, claim = MUTANTS[mutant]
    with (PROFILES[profile] / f"{fig}.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    path = tmp_path / f"{fig}.csv"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(AssertionError):
        claim(FigureResult.from_csv(path))
