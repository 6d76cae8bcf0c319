"""Tests for the repro-lint static-analysis subsystem (RPL001–RPL005,
RPL007, RPL008, RPL010, RPL011, RPL100).

Each rule is exercised both ways: a fixture snippet that must trigger it and
the idiomatic equivalent that must stay silent, plus the suppression syntax.
The config-registry rule (RPL011) additionally runs on synthetic project
trees.  A smoke test asserts the linter exits 0 on the repo's own source
tree — the property CI enforces.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.core.partition import Partition
from repro.lint import check_registry, lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.engine import FileContext, LintResult, Violation
from repro.lint.flowrules import ConfigRegistryRule, check_env_reads
from repro.lint.reporters import json_report, text_report

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_snippet(tmp_path: Path, package: str, source: str) -> LintResult:
    """Write ``source`` under a directory named ``package`` and lint it."""
    pkg = tmp_path / package
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "snippet.py").write_text(source, encoding="utf-8")
    return lint_paths([pkg])


def codes(result: LintResult) -> list[str]:
    return [v.rule for v in result.violations]


def make_ctx(rel: str, source: str) -> FileContext:
    """A parsed FileContext for a file that need not exist on disk."""
    return FileContext(Path(rel), rel, source)


class TestRPL001PrefixSum:
    def test_slice_sum_triggers(self, tmp_path):
        res = lint_snippet(tmp_path, "jagged", "total = A[r0:r1, c0:c1].sum()\n")
        assert codes(res) == ["RPL001"]

    def test_np_sum_over_slice_triggers(self, tmp_path):
        res = lint_snippet(tmp_path, "oned", "import numpy as np\nt = np.sum(P[lo:hi])\n")
        assert codes(res) == ["RPL001"]

    def test_accumulation_loop_triggers(self, tmp_path):
        src = "total = 0\nfor i in range(r0, r1):\n    total += A[i]\n"
        res = lint_snippet(tmp_path, "spiral", src)
        assert codes(res) == ["RPL001"]

    def test_prefix_query_is_silent(self, tmp_path):
        res = lint_snippet(tmp_path, "jagged", "total = pref.load(r0, r1, c0, c1)\n")
        assert codes(res) == []

    def test_name_receiver_sum_is_silent(self, tmp_path):
        # summing a small derived vector (stripe loads) is not a slice re-scan
        res = lint_snippet(tmp_path, "jagged", "total = int(loads.sum())\n")
        assert codes(res) == []

    def test_outside_hot_packages_is_silent(self, tmp_path):
        res = lint_snippet(tmp_path, "experiments", "total = A[r0:r1].sum()\n")
        assert codes(res) == []

    def test_suppression(self, tmp_path):
        src = "total = A[r0:r1].sum()  # repro-lint: disable=RPL001\n"
        res = lint_snippet(tmp_path, "jagged", src)
        assert codes(res) == []
        assert [v.rule for v in res.suppressed] == ["RPL001"]


class TestRPL002HalfOpen:
    def test_plus_one_slice_triggers(self, tmp_path):
        res = lint_snippet(tmp_path, "oned", "window = P[lo : hi + 1]\n")
        assert codes(res) == ["RPL002"]

    def test_minus_one_slice_triggers(self, tmp_path):
        res = lint_snippet(tmp_path, "core", "window = P[lo - 1 : hi]\n")
        assert codes(res) == ["RPL002"]

    def test_inclusive_range_triggers(self, tmp_path):
        res = lint_snippet(tmp_path, "rectilinear", "xs = list(range(lo, hi + 1))\n")
        assert codes(res) == ["RPL002"]

    def test_inclusive_compare_triggers(self, tmp_path):
        res = lint_snippet(tmp_path, "hierarchical", "ok = x <= hi\n")
        assert codes(res) == ["RPL002"]

    def test_half_open_idioms_are_silent(self, tmp_path):
        src = "window = P[lo:hi]\nxs = list(range(lo, hi))\nok = lo <= x < hi\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == []

    def test_suppression(self, tmp_path):
        src = "window = P[lo : hi + 1]  # prefix window # repro-lint: disable=RPL002\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == []
        assert [v.rule for v in res.suppressed] == ["RPL002"]


class TestRPL003IntegerLoad:
    def test_float_cast_triggers(self, tmp_path):
        res = lint_snippet(tmp_path, "oned", "b = float(total)\n")
        assert codes(res) == ["RPL003"]

    def test_true_division_on_load_triggers(self, tmp_path):
        res = lint_snippet(tmp_path, "jagged", "ratio = loads / q\n")
        assert codes(res) == ["RPL003"]

    def test_float_dtype_triggers(self, tmp_path):
        res = lint_snippet(tmp_path, "volume", "import numpy as np\nx = np.float64(3)\n")
        assert codes(res) == ["RPL003"]

    def test_exact_idioms_are_silent(self, tmp_path):
        src = (
            "from fractions import Fraction\n"
            "q = -((-loads) // total)\n"
            "r = Fraction(int(total), 3)\n"
            "inf = float('inf')\n"
            "mid = (lo + hi) // 2\n"
        )
        res = lint_snippet(tmp_path, "jagged", src)
        assert codes(res) == []

    def test_file_level_suppression(self, tmp_path):
        src = (
            "# repro-lint: disable-file=RPL003 — speeds are fractional by design\n"
            "t = total / speeds\n"
            "b = float(total)\n"
        )
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == []
        assert len(res.suppressed) == 2

    def test_line_suppression(self, tmp_path):
        src = "avg = total / m  # repro-lint: disable=RPL003\n"
        res = lint_snippet(tmp_path, "volume", src)
        assert codes(res) == []


class TestRPL005NoInputMutation:
    def test_subscript_write_triggers(self, tmp_path):
        src = "def algo(A, m):\n    A[0, 0] = 5\n    return m\n"
        res = lint_snippet(tmp_path, "core", src)
        assert codes(res) == ["RPL005"]

    def test_augassign_triggers(self, tmp_path):
        src = "def algo(A, m):\n    A += 1\n    return m\n"
        res = lint_snippet(tmp_path, "jagged", src)
        assert codes(res) == ["RPL005"]

    def test_mutator_method_triggers(self, tmp_path):
        src = "def algo(A, m):\n    A.sort()\n    return m\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL005"]

    def test_out_keyword_triggers(self, tmp_path):
        src = "import numpy as np\ndef algo(A, m):\n    np.clip(A, 0, 9, out=A)\n    return m\n"
        res = lint_snippet(tmp_path, "volume", src)
        assert codes(res) == ["RPL005"]

    def test_copy_then_modify_is_silent(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def algo(A, m):\n"
            "    B = A.copy()\n"
            "    B[0, 0] = 5\n"
            "    A = np.asarray(A)\n"  # rebinding the local name is fine
            "    return B\n"
        )
        res = lint_snippet(tmp_path, "core", src)
        assert codes(res) == []

    def test_functions_without_A_are_silent(self, tmp_path):
        src = "def helper(B, m):\n    B[0] = 1\n    return m\n"
        res = lint_snippet(tmp_path, "core", src)
        assert codes(res) == []

    def test_suppression(self, tmp_path):
        src = "def algo(A, m):\n    A[0] = 1  # repro-lint: disable=RPL005\n    return m\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == []


class TestRPL004Registry:
    DOCS = "RECT-GOOD is documented here."

    @staticmethod
    def _good(A, m) -> Partition:
        """Implements §3.1 of the paper."""
        raise NotImplementedError

    def test_compliant_registry_is_silent(self):
        assert check_registry({"RECT-GOOD": self._good}, self.DOCS) == []

    def test_variant_suffix_resolves_to_base_doc_entry(self):
        assert check_registry({"RECT-GOOD-HOR": self._good}, self.DOCS) == []

    def test_non_callable_triggers(self):
        out = check_registry({"RECT-GOOD": 42}, self.DOCS)
        assert [v.rule for v in out] == ["RPL004"]

    def test_missing_citation_triggers(self):
        def algo(A, m) -> Partition:
            """No citation at all."""

        out = check_registry({"RECT-GOOD": algo}, self.DOCS)
        assert any("cites no paper section" in v.message for v in out)

    def test_missing_docstring_triggers(self):
        def algo(A, m) -> Partition:
            pass

        out = check_registry({"RECT-GOOD": algo}, self.DOCS)
        assert any("no docstring" in v.message for v in out)

    def test_wrong_return_annotation_triggers(self):
        def algo(A, m) -> int:
            """Implements §3.1."""
            return 0

        out = check_registry({"RECT-GOOD": algo}, self.DOCS)
        assert any("Partition return" in v.message for v in out)

    def test_missing_docs_entry_triggers(self):
        out = check_registry({"RECT-UNLISTED": self._good}, self.DOCS)
        assert any("missing from docs" in v.message for v in out)

    def test_unwraps_registry_wrappers(self):
        def impl(A, m) -> Partition:
            """Implements §3.2."""
            raise NotImplementedError

        def wrapper(A, m, **kw):
            return impl(A, m, **kw)

        wrapper.__wrapped__ = impl
        assert check_registry({"RECT-GOOD": wrapper}, self.DOCS) == []


class TestRPL007Coverage:
    """RPL007: every ALGORITHMS entry reached by some experiments module."""

    REGISTRY_STUB = '"""Stub registry."""\n\nALGORITHMS = {}\n'

    def _lint_tree(self, tmp_path: Path, experiments_src: str | None) -> list:
        """Lint a tmp tree shaped like the repo (registry + experiments)."""
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (core / "registry.py").write_text(self.REGISTRY_STUB, encoding="utf-8")
        if experiments_src is not None:
            exp = tmp_path / "repro" / "experiments"
            exp.mkdir()
            (exp / "figs.py").write_text(experiments_src, encoding="utf-8")
        res = lint_paths([tmp_path / "repro"])
        return [v for v in res.violations if v.rule == "RPL007"]

    @staticmethod
    def _names_tuple(names) -> str:
        body = "\n".join(f"    {n!r}," for n in sorted(names))
        return f"COVERED = (\n{body}\n)\n"

    def test_full_string_coverage_is_silent(self, tmp_path):
        from repro.core.registry import ALGORITHMS

        out = self._lint_tree(tmp_path, self._names_tuple(ALGORITHMS))
        assert out == []

    def test_uncovered_entry_is_flagged(self, tmp_path):
        from repro.core.registry import ALGORITHMS

        covered = [n for n in ALGORITHMS if n != "HIER-OPT"]
        out = self._lint_tree(tmp_path, self._names_tuple(covered))
        assert len(out) == 1
        assert "'HIER-OPT'" in out[0].message
        assert out[0].line == 3  # anchored at the ALGORITHMS assignment

    def test_empty_experiments_flags_every_entry(self, tmp_path):
        from repro.core.registry import ALGORITHMS

        out = self._lint_tree(tmp_path, "x = 1\n")
        assert len(out) == len(ALGORITHMS)

    def test_fstring_prefix_covers_variants(self, tmp_path):
        from repro.core.registry import ALGORITHMS

        covered = [n for n in ALGORITHMS if not n.startswith("HIER-RB-")]
        src = self._names_tuple(covered) + 'name = f"HIER-RB-{variant}"\n'
        assert self._lint_tree(tmp_path, src) == []

    def test_implementation_reference_covers_entry(self, tmp_path):
        from repro.core.registry import ALGORITHMS

        covered = [n for n in ALGORITHMS if n != "JAG-PQ-HEUR"]
        src = self._names_tuple(covered) + "part = jag_pq_heur(pref, m)\n"
        assert self._lint_tree(tmp_path, src) == []

    def test_docstring_mention_does_not_count(self, tmp_path):
        from repro.core.registry import ALGORITHMS

        covered = [n for n in ALGORITHMS if n != "HIER-OPT"]
        src = '"""Covers \'HIER-OPT\' only in prose."""\n' + self._names_tuple(covered)
        out = self._lint_tree(tmp_path, src)
        assert len(out) == 1
        assert "'HIER-OPT'" in out[0].message

    def test_without_experiments_package_is_silent(self, tmp_path):
        assert self._lint_tree(tmp_path, None) == []

    def test_repo_tree_is_clean(self):
        res = lint_paths([REPO_ROOT / "src" / "repro"])
        assert [v for v in res.violations if v.rule == "RPL007"] == []


class TestRPL008Claims:
    """RPL008: docstring complexity claims must appear in docs/algorithms.md."""

    DOCS = "RECT-GOOD runs in O(m log n) time; refinement costs O(n·m)."

    def test_matching_claim_is_silent(self):
        from repro.lint.rules import check_claims

        def algo(A, m) -> Partition:
            """Implements §3.1 in O(m log n)."""

        assert check_claims({"RECT-GOOD": algo}, self.DOCS) == []

    def test_undocumented_claim_is_flagged(self):
        from repro.lint.rules import check_claims

        def algo(A, m) -> Partition:
            """Implements §3.1 in O(m^3 log n)."""

        out = check_claims({"RECT-GOOD": algo}, self.DOCS)
        assert [v.rule for v in out] == ["RPL008"]
        assert "O(m^3 log n)" in out[0].message

    def test_normalization_bridges_typography(self):
        from repro.lint.rules import check_claims

        def algo(A, m) -> Partition:
            """Refinement step: `O(N * M)` per pass."""

        # docs say O(n·m): case, backticks, spacing and the multiplication
        # sign are cosmetic — the claims must unify
        assert check_claims({"RECT-GOOD": algo}, self.DOCS) == []

    def test_normalization_superscripts(self):
        from repro.lint.rules import _normalize_claim

        assert _normalize_claim("O(m²)") == _normalize_claim("O(m^2)")
        assert _normalize_claim("O(n³ m)") == _normalize_claim("O(n^3m)")
        assert _normalize_claim("O(n·m)") == _normalize_claim("O(nm)")
        assert _normalize_claim("O(n)") != _normalize_claim("O(m)")

    def test_claim_regex_handles_nested_parens(self):
        from repro.lint.rules import _CLAIM_RE

        text = "runs in O(m² log max(n1, n2)) overall"
        assert _CLAIM_RE.findall(text) == ["O(m² log max(n1, n2))"]

    def test_non_callable_entries_are_skipped(self):
        from repro.lint.rules import check_claims

        assert check_claims({"RECT-GOOD": 42}, self.DOCS) == []

    def test_violation_anchored_on_given_path(self):
        from repro.lint.rules import check_claims

        def algo(A, m) -> Partition:
            """Implements §3.1 in O(2^n)."""

        out = check_claims({"RECT-GOOD": algo}, self.DOCS, "a/b.py", 9)
        assert out[0].path == "a/b.py" and out[0].line == 9

    def test_module_docstring_claims_are_checked(self):
        import sys
        import types

        from repro.lint.rules import check_claims

        mod = types.ModuleType("_rpl008_fake_mod")
        mod.__doc__ = "Everything here is O(n!)."
        sys.modules["_rpl008_fake_mod"] = mod
        try:

            def algo(A, m) -> Partition:
                """Implements §3.1."""

            algo.__module__ = "_rpl008_fake_mod"
            out = check_claims({"RECT-GOOD": algo}, self.DOCS)
            assert len(out) == 1 and "O(n!)" in out[0].message
        finally:
            del sys.modules["_rpl008_fake_mod"]

    def test_repo_tree_is_clean(self):
        res = lint_paths([REPO_ROOT / "src" / "repro"])
        assert [v for v in res.violations if v.rule == "RPL008"] == []


class TestEngineAndCli:
    def test_disable_all(self, tmp_path):
        src = "b = float(total); w = P[lo : hi + 1]  # repro-lint: disable=all\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == []
        assert len(res.suppressed) == 2

    def test_violations_sorted_and_rendered(self, tmp_path):
        src = "b = float(total)\nw = P[lo : hi + 1]\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL002", "RPL003"] or codes(res) == ["RPL003", "RPL002"]
        lines = [v.render() for v in res.violations]
        assert all("snippet.py" in line for line in lines)
        assert [v.line for v in res.violations] == sorted(v.line for v in res.violations)

    def test_syntax_error_reported_as_error(self, tmp_path):
        res = lint_snippet(tmp_path, "oned", "def broken(:\n")
        assert res.exit_code == 2
        assert res.errors

    def test_select_and_ignore(self, tmp_path):
        pkg = tmp_path / "oned"
        pkg.mkdir()
        (pkg / "s.py").write_text("b = float(total)\nw = P[lo : hi + 1]\n")
        only3 = lint_paths([pkg], select={"RPL003"})
        assert codes(only3) == ["RPL003"]
        not3 = lint_paths([pkg], ignore={"RPL003"})
        assert codes(not3) == ["RPL002"]

    def test_json_report_shape(self, tmp_path):
        res = lint_snippet(tmp_path, "oned", "b = float(total)\n")
        payload = json.loads(json_report(res))
        assert payload["exit_code"] == 1
        assert payload["violations"][0]["rule"] == "RPL003"
        assert {"path", "line", "col", "message"} <= set(payload["violations"][0])

    def test_text_report_summary(self, tmp_path):
        res = lint_snippet(tmp_path, "oned", "b = float(total)\n")
        out = text_report(res)
        assert "1 violation in 1 file (0 suppressed)" in out

    def test_cli_exit_codes(self, tmp_path, capsys):
        pkg = tmp_path / "jagged"
        pkg.mkdir()
        bad = pkg / "bad.py"
        bad.write_text("t = A[r0:r1].sum()\n")
        assert lint_main([str(bad)]) == 1
        bad.write_text("t = pref.load(r0, r1)\n")
        assert lint_main([str(bad)]) == 0
        assert lint_main([str(tmp_path / "missing.py")]) == 2
        capsys.readouterr()

    def test_cli_unknown_code_rejected(self, capsys):
        with pytest.raises(SystemExit):
            lint_main(["--select", "RPL999", "."])
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL007"):
            assert code in out
        # the complexity budgets are tests/test_complexity.py, not a rule
        assert "RPL006" not in out


class TestRepoIsClean:
    def test_repro_lint_passes_on_own_tree(self, capsys):
        """The CI gate: repro-lint src/repro must exit 0 on the repo itself."""
        src = REPO_ROOT / "src" / "repro"
        assert src.is_dir()
        assert lint_main([str(src)]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("suppressed)")

    def test_real_registry_is_consistent(self):
        from repro.core.registry import ALGORITHMS

        docs = (REPO_ROOT / "docs" / "algorithms.md").read_text(encoding="utf-8")
        assert check_registry(ALGORITHMS, docs) == []

    def test_violation_ordering(self):
        a = Violation("a.py", 1, 1, "RPL001", "x")
        b = Violation("a.py", 2, 1, "RPL001", "x")
        assert a < b


class TestRPL010Determinism:
    def test_set_iteration_to_return_triggers(self, tmp_path):
        src = (
            "def f(xs):\n"
            "    out = []\n"
            "    for x in set(xs):\n"
            "        out.append(x)\n"
            "    return out\n"
        )
        res = lint_snippet(tmp_path, "sweep", src)
        assert codes(res) == ["RPL010"]
        assert "iteration order of a set" in res.violations[0].message

    def test_sorted_iteration_is_silent(self, tmp_path):
        src = (
            "def f(xs):\n"
            "    out = []\n"
            "    for x in sorted(set(xs)):\n"
            "        out.append(x)\n"
            "    return out\n"
        )
        assert codes(lint_snippet(tmp_path, "sweep", src)) == []

    def test_set_iteration_not_returned_is_silent(self, tmp_path):
        src = (
            "def f(xs):\n"
            "    n = 0\n"
            "    for x in set(xs):\n"
            "        n += 1\n"
            "    return n\n"
        )
        assert codes(lint_snippet(tmp_path, "sweep", src)) == []

    def test_id_escape_triggers(self, tmp_path):
        res = lint_snippet(tmp_path, "sweep", "def f(obj):\n    return id(obj)\n")
        assert codes(res) == ["RPL010"]
        assert "id()-derived" in res.violations[0].message

    def test_id_keyed_lookup_result_is_laundered(self, tmp_path):
        src = (
            "def f(obj, table):\n"
            "    entry = table.get(id(obj))\n"
            "    return entry\n"
        )
        assert codes(lint_snippet(tmp_path, "sweep", src)) == []

    def test_id_keyed_iteration_to_return_triggers(self, tmp_path):
        src = (
            "def f(obj, v):\n"
            "    table = {}\n"
            "    table[id(obj)] = v\n"
            "    out = []\n"
            "    for k, val in table.items():\n"
            "        out.append(val)\n"
            "    return out\n"
        )
        res = lint_snippet(tmp_path, "sweep", src)
        assert codes(res) == ["RPL010"]
        assert "identity-keyed" in res.violations[0].message

    def test_entropy_import_and_call_trigger(self, tmp_path):
        res = lint_snippet(tmp_path, "sweep", "from random import shuffle\n")
        assert codes(res) == ["RPL010"]
        res = lint_snippet(
            tmp_path, "sweep", "import random\n\ndef f():\n    return random.random()\n"
        )
        assert codes(res) == ["RPL010"]

    def test_wall_clock_triggers(self, tmp_path):
        src = "import time\n\ndef f():\n    t = time.perf_counter()\n    return t\n"
        res = lint_snippet(tmp_path, "sweep", src)
        assert codes(res) == ["RPL010"]
        assert "wall-clock" in res.violations[0].message

    def test_default_rng_seeding(self, tmp_path):
        assert codes(lint_snippet(tmp_path, "sweep", "def f():\n    return default_rng()\n")) == [
            "RPL010"
        ]
        assert codes(lint_snippet(tmp_path, "sweep", "def f():\n    return default_rng(0)\n")) == []

    def test_outside_contract_packages_is_silent(self, tmp_path):
        res = lint_snippet(tmp_path, "experiments", "def f(obj):\n    return id(obj)\n")
        assert codes(res) == []

    def test_suppression(self, tmp_path):
        src = "def f(obj):\n    return id(obj)  # repro-lint: disable=RPL010 — in-process handle only\n"
        res = lint_snippet(tmp_path, "sweep", src)
        assert codes(res) == []
        assert [v.rule for v in res.suppressed] == ["RPL010"]


class TestRPL011ConfigRegistry:
    @staticmethod
    def _check(files, declared=None, registry_rel=None, docs_text=None):
        return check_env_reads(
            files, declared=declared, registry_rel=registry_rel, docs_text=docs_text
        )

    def test_read_outside_config_module_triggers(self, tmp_path):
        src = "import os\nv = os.environ.get('REPRO_X', '')\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL011"]
        assert "outside a declared config module" in res.violations[0].message
        # the sweep engine is no exception: it reads through repro.config.env_str
        out = self._check([make_ctx("src/repro/sweep/engine.py", src)])
        assert [v.message for v in out] == [res.violations[0].message]

    def test_read_in_config_module_is_allowed(self):
        ctx = make_ctx(
            "src/repro/perf/config.py", "import os\nv = os.environ.get('REPRO_X', '1')\n"
        )
        assert self._check([ctx]) == []

    def test_non_literal_name_triggers(self):
        ctx = make_ctx(
            "src/repro/perf/config.py", "import os\nv = os.environ.get(name)\n"
        )
        out = self._check([ctx])
        assert [v.rule for v in out] == ["RPL011"]
        assert "non-literal" in out[0].message

    def test_subscript_read_triggers_even_in_config(self):
        ctx = make_ctx(
            "src/repro/perf/config.py", "import os\nv = os.environ['REPRO_X']\n"
        )
        out = self._check([ctx])
        assert [v.rule for v in out] == ["RPL011"]
        assert "no default" in out[0].message

    def test_env_write_is_silent(self, tmp_path):
        res = lint_snippet(tmp_path, "oned", "import os\nos.environ['REPRO_X'] = '1'\n")
        assert codes(res) == []

    def test_undeclared_name_triggers(self):
        ctx = make_ctx(
            "src/repro/perf/config.py", "import os\nv = os.environ.get('REPRO_NEW', '')\n"
        )
        out = self._check(
            [ctx],
            declared={"REPRO_OLD": "'1'"},
            registry_rel="src/repro/config.py",
            docs_text="REPRO_OLD REPRO_NEW",
        )
        assert [v.rule for v in out] == ["RPL011"]
        assert "'REPRO_NEW'" in out[0].message and "not declared" in out[0].message
        assert out[0].path == "src/repro/config.py"

    def test_undocumented_declared_name_triggers(self):
        ctx = make_ctx(
            "src/repro/perf/config.py", "import os\nv = os.environ.get('REPRO_OLD', '')\n"
        )
        out = self._check(
            [ctx],
            declared={"REPRO_OLD": "'1'"},
            registry_rel="src/repro/config.py",
            docs_text="nothing relevant",
        )
        assert [v.rule for v in out] == ["RPL011"]
        assert "not documented" in out[0].message

    def test_declared_and_documented_is_silent(self):
        ctx = make_ctx(
            "src/repro/perf/config.py", "import os\nv = os.environ.get('REPRO_OLD', '')\n"
        )
        assert (
            self._check(
                [ctx],
                declared={"REPRO_OLD": "'1'"},
                registry_rel="src/repro/config.py",
                docs_text="`REPRO_OLD` does things",
            )
            == []
        )

    def test_static_parse_matches_runtime_registry(self):
        from repro.config import ENV_VARS

        source = (REPO_ROOT / "src" / "repro" / "config.py").read_text(encoding="utf-8")
        declared = ConfigRegistryRule._parse_declared(ast.parse(source))
        assert set(declared) == set(ENV_VARS)
        assert "numpy" in declared["REPRO_PERF_BACKEND"]
        # the projection-memo sizes and the CSR density are module constants
        assert set(declared) == {
            "REPRO_PERF_BACKEND",
            "REPRO_SWEEP_STORE",
            "REPRO_RAW_STORE",
            "REPRO_SCALE",
            "REPRO_CACHE",
        }

    def test_retired_perf_switch_is_not_declared(self):
        # the kernel registry's backend is the only dispatch switch left
        source = (REPO_ROOT / "src" / "repro" / "config.py").read_text(encoding="utf-8")
        assert "REPRO_PERF" not in ConfigRegistryRule._parse_declared(ast.parse(source))


class TestRPL100StaleSuppressions:
    def test_stale_line_suppression_triggers(self, tmp_path):
        src = "x = 1  # repro-lint: disable=RPL003 — obsolete\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL100"]
        assert "disable=RPL003" in res.violations[0].message

    def test_stale_file_suppression_triggers(self, tmp_path):
        src = "# repro-lint: disable-file=RPL001 — legacy\nx = 1\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL100"]
        assert "disable-file=RPL001" in res.violations[0].message

    def test_live_suppression_is_not_stale(self, tmp_path):
        src = "b = float(total)  # repro-lint: disable=RPL003 — fixture\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == []
        assert [v.rule for v in res.suppressed] == ["RPL003"]

    def test_unselected_rule_codes_are_not_checkable(self, tmp_path):
        pkg = tmp_path / "oned"
        pkg.mkdir()
        (pkg / "s.py").write_text("x = 1  # repro-lint: disable=RPL003 — obsolete\n")
        res = lint_paths([pkg], select={"RPL001", "RPL100"})
        assert codes(res) == []

    def test_unused_disable_all_flagged_only_on_full_run(self, tmp_path):
        pkg = tmp_path / "oned"
        pkg.mkdir()
        (pkg / "s.py").write_text("x = 1  # repro-lint: disable=all — temporary\n")
        full = lint_paths([pkg])
        assert codes(full) == ["RPL100"]
        assert "ALL" in full.violations[0].message
        partial = lint_paths([pkg], select={"RPL003", "RPL100"})
        assert codes(partial) == []

    def test_stale_finding_is_itself_suppressible(self, tmp_path):
        src = "x = 1  # repro-lint: disable=RPL003,RPL100 — grandfathered\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == []
        assert "RPL100" in {v.rule for v in res.suppressed}

    def test_mixed_live_and_stale_lines(self, tmp_path):
        src = (
            "b = float(total)  # repro-lint: disable=RPL003 — fixture\n"
            "x = 1  # repro-lint: disable=RPL002 — obsolete\n"
        )
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL100"]
        assert res.violations[0].line == 2

    # a retired rule, a typo, and the two rules the matrix tests replaced
    @pytest.mark.parametrize("code", ["RPL006", "RPL999", "RPL009", "RPL012"])
    @pytest.mark.parametrize("scope", ["disable", "disable-file"])
    def test_unknown_code_triggers(self, tmp_path, code, scope):
        src = f"x = 1  # repro-lint: {scope}={code} — left behind\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL100"]
        assert f"{scope}={code}` names an unknown rule code" in res.violations[0].message
        # a restricted run flags it too: no rule could ever match the code
        assert codes(lint_paths([tmp_path / "oned"], select={"RPL100"})) == ["RPL100"]

    def test_unknown_code_next_to_a_live_one_triggers(self, tmp_path):
        src = "b = float(total)  # repro-lint: disable=RPL003,RPL999 — fixture\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL100"]
        assert "disable=RPL999`" in res.violations[0].message
        assert [v.rule for v in res.suppressed] == ["RPL003"]


class TestSarifReport:
    """The CLI's summary line and rule catalogue."""

    def test_cli_suppressed_only_exits_zero_with_counts(self, tmp_path, capsys):
        pkg = tmp_path / "jagged"
        pkg.mkdir()
        ok = pkg / "ok.py"
        ok.write_text("t = A[r0:r1].sum()  # repro-lint: disable=RPL001 — fixture\n")
        assert lint_main([str(ok)]) == 0
        out = capsys.readouterr().out
        assert "0 violations in 1 file (1 suppressed)" in out

    def test_cli_list_rules_covers_new_codes(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = sorted(line.split()[0] for line in out.splitlines() if line.startswith("RPL"))
        assert listed == [
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005",
            "RPL007", "RPL008", "RPL010", "RPL011", "RPL100",
        ]
