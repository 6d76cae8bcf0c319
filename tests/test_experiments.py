"""Tests for the experiment harness, scale profiles, figure functions, CLI."""

import re

import numpy as np
import pytest

from repro.core.errors import ParameterError
from repro.experiments import ALL_FIGURES, FigureResult, get_scale
from repro.experiments.cli import main
from repro.experiments.scale import PAPER, SMALL, TINY, Scale


class TestScale:
    def test_default_is_small(self):
        assert get_scale(None) is SMALL

    def test_by_name(self):
        assert get_scale("small") is SMALL
        assert get_scale("paper") is PAPER
        assert get_scale(TINY) is TINY
        with pytest.raises(ValueError):
            get_scale("huge")

    @pytest.mark.parametrize("name", [3, "huge", "large"])
    def test_malformed_scale_is_a_parameter_error(self, name):
        with pytest.raises(ParameterError, match=r"scale must be one of \['paper', 'small', 'tiny'\]"):
            get_scale(name)

    def test_paper_profile_matches_paper_numbers(self):
        assert PAPER.n_uniform == 512
        assert PAPER.n_diagonal == 4096
        assert PAPER.n_fig9 == 514 and PAPER.m_fig9 == 800
        assert PAPER.m_fig8 == 6400 and PAPER.m_fig12 == 9216
        assert PAPER.pic_period == 500 and PAPER.pic_max_iteration == 33_500
        assert PAPER.m_cap_m_opt <= 1024  # "prohibitive" beyond 1,000 (§4.4)


class TestFigureResult:
    def test_add_and_table(self):
        r = FigureResult("figX", "demo", "m", "imbalance")
        r.add("A", 4, 0.5)
        r.add("A", 9, 0.25)
        r.add("B", 4, 0.75)
        table = r.to_table()
        assert "figX" in table and "A" in table and "B" in table
        assert "0.5000" in table and "-" in table  # missing B@9 rendered as -

    def test_csv_roundtrip(self, tmp_path):
        r = FigureResult("figY", "demo", "m", "y")
        r.add("s", 1, 0.125)
        path = r.to_csv(tmp_path / "figY.csv")
        text = path.read_text()
        assert text.splitlines()[0] == "m,s"
        assert "0.125" in text

    def test_csv_roundtrip_bitexact_with_missing(self, tmp_path):
        from repro.experiments.harness import MISSING

        r = FigureResult("figZ", "demo", "m", "y")
        r.add("A", 4, 1 / 3)  # non-terminating binary fraction: repr must round-trip
        r.add("A", 9, 0.0073615436187954)
        r.add("B", 4, 2.5)  # B has no point at x=9 -> MISSING cell
        path = r.to_csv(tmp_path / "figZ.csv")
        assert MISSING in path.read_text().splitlines()[2].split(",")
        back = FigureResult.from_csv(path, fig="figZ")
        assert back.series == r.series  # bit-identical floats, absent cell absent
        assert back.xlabel == "m"

    def test_missing_sentinel_shared_by_table_and_csv(self, tmp_path):
        from repro.experiments.harness import MISSING

        r = FigureResult("figW", "demo", "m", "y")
        r.add("A", 1, 0.5)
        r.add("B", 2, 0.5)
        # same sentinel renders the A@2 / B@1 holes in both formats
        assert MISSING in r.to_table()
        cells = {
            c
            for line in r.to_csv(tmp_path / "w.csv").read_text().splitlines()[1:]
            for c in line.split(",")
        }
        assert MISSING in cells

    @pytest.mark.parametrize(
        ("text", "where"),
        [
            ("", ""),
            ("m,A,B\r\n2.0,0.75\r\n", ":2:"),  # short row: B@2 must not read as missing
            ("m,A,B\r\n2.0,0.75,0.5\r\n4.0,0.5,0.25,0.125\r\n", ":3:"),  # long row
            ("m,A\r\n2.0,\r\n", ":2:"),  # empty cell is not the MISSING sentinel
            ("m,A\r\n2.0,abc\r\n", ":2:"),
            ("m,A\r\nx,0.5\r\n", ":2:"),
        ],
        ids=["empty", "short-row", "long-row", "blank-cell", "text-cell", "text-x"],
    )
    def test_from_csv_rejects_empty(self, tmp_path, text, where):
        p = tmp_path / "bad.csv"
        p.write_text(text, newline="")
        with pytest.raises(ValueError, match=re.escape(f"{p}{where}")):
            FigureResult.from_csv(p)

    def test_xs_sorted_union(self):
        r = FigureResult("f", "t", "x", "y")
        r.add("a", 5, 1)
        r.add("b", 2, 1)
        r.add("a", 2, 1)
        assert r.xs() == [2.0, 5.0]


@pytest.mark.parametrize("fig", sorted(ALL_FIGURES))
def test_every_figure_runs_tiny(fig):
    result = ALL_FIGURES[fig](TINY)
    assert isinstance(result, FigureResult)
    assert result.fig == fig
    assert result.series, f"{fig} produced no series"
    for name, pts in result.series.items():
        assert pts, f"{fig}/{name} is empty"
        for _, y in pts:
            assert np.isfinite(y)
    # imbalance figures are non-negative; runtime figure is positive
    if fig != "fig06":
        assert all(y >= -1e-9 for pts in result.series.values() for _, y in pts)


class TestFigureSemantics:
    def test_fig07_mopt_capped(self):
        r = ALL_FIGURES["fig07"](TINY)
        xs_mopt = [x for x, _ in r.series["JAG-M-OPT"]]
        assert max(xs_mopt) <= TINY.m_cap_m_opt
        assert "JAG-PQ-HEUR" in r.series and "JAG-M-HEUR" in r.series

    def test_fig08_iterations_axis(self):
        r = ALL_FIGURES["fig08"](TINY)
        xs = [x for x, _ in r.series["JAG-M-HEUR"]]
        assert xs == [0, 100, 200, 300]

    def test_fig09_has_guarantee_series(self):
        r = ALL_FIGURES["fig09"](TINY)
        assert any("guarantee" in k for k in r.series)
        meas = dict(r.series["JAG-M-HEUR variable P"])
        guar = dict(r.series["m-way jagged guarantee (Thm 3)"])
        for P, v in meas.items():
            assert v <= guar[P] + 1e-9  # measured within the worst-case bound

    def test_fig12_contains_all_heuristics(self):
        r = ALL_FIGURES["fig12"](TINY)
        assert set(r.series) == {
            "RECT-UNIFORM",
            "RECT-NICOL",
            "JAG-PQ-HEUR",
            "JAG-M-HEUR",
            "HIER-RB",
            "HIER-RELAXED",
        }


class TestCli:
    def test_requires_figures(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_runs_figure(self, capsys, monkeypatch, tmp_path):
        # run the smallest real profile figure through the CLI
        monkeypatch.setattr(
            "repro.experiments.cli.ALL_RUNNABLE", {"fig05": lambda sc: _tiny_fig()}
        )
        rc = main(["--figures", "fig05", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert (tmp_path / "fig05.csv").exists()


def _tiny_fig():
    r = FigureResult("fig05", "demo", "m", "y")
    r.add("s", 1, 0.5)
    return r


class TestDeterminism:
    def test_figures_deterministic(self):
        """Re-running an experiment yields bit-identical series."""
        a = ALL_FIGURES["fig05"](TINY)
        b = ALL_FIGURES["fig05"](TINY)
        assert a.series == b.series

    def test_timed_helper(self):
        from repro.experiments.harness import timed

        dt, out = timed(sum, range(1000))
        assert out == sum(range(1000))
        assert dt >= 0.0

    def test_timed_repeats(self):
        from repro.experiments.harness import timed

        calls = []
        dt, out = timed(lambda: calls.append(1) or len(calls), repeats=3)
        assert len(calls) == 3
        assert out == 1  # result of the *first* call
        assert dt >= 0.0
        with pytest.raises(ValueError):
            timed(sum, range(10), repeats=0)


class TestExtensions:
    def test_ext5_covers_registry_gaps(self):
        """ext5 runs every otherwise-unexercised registry entry, so the raw
        cells cover the registry (test_raw_cells_cover_every_entry)."""
        from repro.experiments.extensions import _UNCOVERED_ENTRIES, ext5_registry_coverage

        r = ext5_registry_coverage(TINY)
        assert set(r.series) == set(_UNCOVERED_ENTRIES)
        for pts in r.series.values():
            assert [x for x, _ in pts] == [2.0, 4.0, 6.0]

    def test_ext5_exact_beats_heuristic(self):
        """Each exact method ≤ its heuristic on ext5's common instance."""
        from repro.core.prefix import PrefixSum2D
        from repro.core.registry import ALGORITHMS
        from repro.experiments.extensions import ext5_registry_coverage
        from repro.instances import peak

        r = ext5_registry_coverage(TINY)
        s = {name: dict(pts) for name, pts in r.series.items()}
        pref = PrefixSum2D(peak(min(TINY.n_peak, 20), seed=0))
        for m in (2, 4, 6):
            for o in ("HOR", "VER", "BEST"):
                assert s[f"JAG-PQ-OPT-{o}"][m] <= s[f"JAG-PQ-HEUR-{o}"][m] + 1e-12
                assert s[f"JAG-M-OPT-{o}"][m] <= s[f"JAG-M-HEUR-{o}"][m] + 1e-12
            assert s["SPIRAL-OPT"][m] <= s["SPIRAL-RELAXED"][m] + 1e-12
            hier_rb = ALGORITHMS["HIER-RB"](pref, m).imbalance(pref)
            assert s["HIER-OPT"][m] <= hier_rb + 1e-12


class TestGallery:
    def test_make_gallery(self, tmp_path):
        from repro.experiments.gallery import make_gallery

        paths = make_gallery(tmp_path, TINY, n=24, m=5)
        assert len(paths) == 11  # 5 partition classes + 6 instance classes
        for p in paths:
            data = p.read_bytes()
            assert data.startswith(b"P6")
        names = {p.name for p in paths}
        assert "fig1_m_jagged.ppm" in names and "fig2_pic_mag.ppm" in names

    def test_gallery_via_cli(self, tmp_path):
        from repro.experiments.cli import main as cli_main

        rc = cli_main(["--gallery", str(tmp_path / "g")])
        assert rc == 0
        assert len(list((tmp_path / "g").glob("*.ppm"))) == 11
