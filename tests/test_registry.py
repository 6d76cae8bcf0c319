"""Tests for the algorithm registry and the partition_2d entry point."""

import importlib
import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import ALGORITHMS, algorithm_names, lower_bound, partition_2d
from repro.core.errors import ParameterError
from repro.core.prefix import prefix_2d

from .conftest import load_matrices

REPO_ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = (REPO_ROOT / "docs" / "algorithms.md").read_text(encoding="utf-8")

#: small enough for HIER-OPT's exhaustive DP
tiny_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 40),
)

#: every exported solver entry point that takes a processor count, by module
M_ENTRY_POINTS = {
    name: f"repro.{module}"
    for module, names in [
        ("hierarchical", "hier_opt hier_opt_bottleneck hier_rb hier_relaxed"),
        ("jagged", "jag_m_heur jag_m_opt jag_m_opt_bottleneck jag_m_opt_dp_bottleneck"),
        ("jagged", "jag_pq_heur jag_pq_opt"),
        ("rectilinear", "rect_nicol rect_opt rect_uniform uniform_cuts"),
        ("spiral", "spiral_opt spiral_opt_bottleneck spiral_relaxed"),
    ]
    for name in names.split()
}

FAST_NAMES = [
    "RECT-UNIFORM",
    "RECT-NICOL",
    "JAG-PQ-HEUR",
    "JAG-M-HEUR",
    "HIER-RB",
    "HIER-RELAXED",
]


class TestRegistry:
    def test_paper_names_present(self):
        for name in FAST_NAMES + ["JAG-PQ-OPT", "JAG-M-OPT", "HIER-OPT"]:
            assert name in ALGORITHMS

    def test_variant_names_present(self):
        assert "JAG-M-HEUR-BEST" in ALGORITHMS
        assert "JAG-PQ-OPT-VER" in ALGORITHMS
        assert "HIER-RB-DIST" in ALGORITHMS
        assert "HIER-RELAXED-LOAD" in ALGORITHMS

    def test_algorithm_names_listing(self):
        names = algorithm_names()
        assert "JAG-M-OPT" in names and "HIER-OPT" in names
        fast = algorithm_names(heuristics_only=True)
        assert "JAG-M-OPT" not in fast and set(FAST_NAMES) == set(fast)

    def test_unknown_raises(self, rng):
        with pytest.raises(ParameterError):
            partition_2d(rng.integers(1, 5, (4, 4)), 2, "MAGIC")

    @pytest.mark.parametrize("m", [2.5, True, "3", 0], ids=repr)
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_malformed_m_is_a_parameter_error(self, rng, name, m):
        with pytest.raises(ParameterError, match="m must be an integer >= 1"):
            partition_2d(rng.integers(1, 5, (4, 4)), m, name)

    @pytest.mark.parametrize("m", [True, 2.5, "3", 0, -1], ids=repr)
    @pytest.mark.parametrize("name", sorted(M_ENTRY_POINTS))
    def test_malformed_m_is_a_parameter_error_at_every_entry_point(self, name, m):
        fn = getattr(importlib.import_module(M_ENTRY_POINTS[name]), name)
        arg = 8 if name == "uniform_cuts" else prefix_2d(np.arange(1, 65).reshape(8, 8))
        with pytest.raises(ParameterError, match="must be an integer >= 1"):
            fn(arg, m)

    @pytest.mark.parametrize("value", [None, 5, b"hor"], ids=repr)
    @pytest.mark.parametrize(
        "name, key",
        [("hier_rb", "variant"), ("hier_relaxed", "variant")]
        + [(n, "orientation") for n in ("jag_m_heur", "jag_m_opt", "jag_pq_heur", "jag_pq_opt")],
    )
    def test_non_string_choice_is_a_parameter_error(self, name, key, value):
        fn = getattr(importlib.import_module(M_ENTRY_POINTS[name]), name)
        with pytest.raises(ParameterError, match=f"{key} must be one of"):
            fn(np.arange(1, 17).reshape(4, 4), 4, **{key: value})

    def test_numpy_integer_m_is_accepted(self, rng):
        A = rng.integers(1, 5, (6, 6))
        assert partition_2d(A, np.int64(4)).rects == partition_2d(A, 4).rects

    def test_case_insensitive(self, rng):
        A = rng.integers(1, 5, (6, 6))
        p = partition_2d(A, 4, "jag-m-heur")
        assert p.m == 4

    def test_kwargs_forwarded(self, rng):
        A = rng.integers(1, 5, (12, 12))
        p = partition_2d(A, 6, "JAG-M-HEUR-HOR", num_stripes=2)
        assert len(p.meta["stripe_cuts"]) == 3

    def test_hier_variant_dispatch(self, rng):
        A = rng.integers(1, 5, (8, 8))
        p = partition_2d(A, 4, "HIER-RB-HOR")
        assert p.method == "HIER-RB-HOR"


class TestAllAlgorithmsContract:
    @given(A=load_matrices, m=st.integers(1, 8), name=st.sampled_from(FAST_NAMES))
    @settings(max_examples=60, deadline=None)
    def test_valid_and_bounded(self, A, m, name):
        """Every algorithm returns a valid m-partition respecting the LB."""
        p = partition_2d(A, m, name)
        assert p.m == m
        p.validate()
        assert p.max_load(A) >= lower_bound(A, m) - (1 if A.sum() == 0 else 0)

    @given(A=load_matrices, m=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_exact_algorithms_dominate(self, A, m):
        """Class inclusions: LB <= M-OPT <= PQ-OPT <= PQ-HEUR (same best orientation)."""
        lb = lower_bound(A, m)
        mo = partition_2d(A, m, "JAG-M-OPT").max_load(A)
        po = partition_2d(A, m, "JAG-PQ-OPT").max_load(A)
        ph = partition_2d(A, m, "JAG-PQ-HEUR").max_load(A)
        assert lb <= mo + (1 if A.sum() == 0 else 0)
        assert mo <= po <= ph

    @given(A=tiny_matrices, m=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_hierarchical_contains_m_way_jagged(self, A, m):
        """Class inclusion: an m-way jagged partition is hierarchical (its
        stripes are cut off one by one, then each stripe), so HIER-OPT <=
        JAG-M-OPT, whichever orientation wins."""
        ho = partition_2d(A, m, "HIER-OPT").max_load(A)
        assert ho <= partition_2d(A, m, "JAG-M-OPT").max_load(A)


_CITATION_RE = re.compile(r"§|\bSection\s+\d|\bTheorem\s+\d|\bFigure\s+\d|\b§?\d\.\d")
#: ``O(...)`` claims, one paren nesting level deep (``O(m log max(n1, n2))``)
_CLAIM_RE = re.compile(r"O\((?:[^()]|\([^()]*\))*\)")


def _claims(text: str) -> set[str]:
    """The ``O(...)`` claims in ``text``, normalized typographically.

    Case, backticks, whitespace, multiplication signs and superscripts are
    cosmetic (``O(n·m)`` == ``O(N * M)``, ``O(m²)`` == ``O(m^2)``); another
    variable or factor is a real difference.
    """
    out = set()
    for claim in _CLAIM_RE.findall(text):
        claim = claim.lower().replace("`", "")
        for ch in "·×* \t\n":
            claim = claim.replace(ch, "")
        out.add(claim.replace("²", "^2").replace("³", "^3"))
    return out


@pytest.mark.parametrize(
    "text, claims",
    [
        ("`O(N * M)` per pass", {"o(nm)"}),
        ("O(n·m) or O(n×m)", {"o(nm)"}),
        ("O(m²) and O(n³ m)", {"o(m^2)", "o(n^3m)"}),
        ("runs in O(m² log max(n1, n2)) overall", {"o(m^2logmax(n1,n2))"}),
    ],
    ids=["typography", "multiplication-signs", "superscripts", "nested-parens"],
)
def test_claim_normalization(text, claims):
    assert _claims(text) == claims


def entry_claims(name: str) -> set[str]:
    """The complexity claims of an entry's implementation and its module."""
    impl = inspect.unwrap(ALGORITHMS[name])
    doc = inspect.getdoc(impl) or ""
    module_doc = inspect.getdoc(sys.modules[impl.__module__]) or ""
    return _claims(doc + "\n" + module_doc)


def check_entry(name: str) -> None:
    """Assert that the entry's implementation cites the paper, returns a
    Partition, and is in ``docs/algorithms.md`` with every complexity claim
    it makes."""
    impl = inspect.unwrap(ALGORITHMS[name])
    doc = inspect.getdoc(impl) or ""
    assert _CITATION_RE.search(doc), f"{impl.__qualname__} cites no paper section"
    ret = impl.__annotations__.get("return")
    assert getattr(ret, "__name__", ret) == "Partition"
    assert re.sub(r"-(HOR|VER|BEST|LOAD|DIST)$", "", name) in CATALOGUE
    assert entry_claims(name) - _claims(CATALOGUE) == set()


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_entry_is_cited_typed_and_catalogued(name):
    check_entry(name)


def test_raw_cells_cover_every_entry():
    """Every entry has a measured cell in the committed ``raw/`` store."""
    algos = {
        json.loads(p.read_text(encoding="utf-8"))["key"]["algo"]
        for p in REPO_ROOT.glob("raw/*/*.json")
    }
    assert set(ALGORITHMS) - algos == set()
