"""Tests for the repro-lint static-analysis subsystem (RPL001–RPL003,
RPL010, RPL011, RPL100).

Each rule is exercised both ways: a fixture snippet that must trigger it and
the idiomatic equivalent that must stay silent, plus the suppression syntax.
Next to the config-registry rule (RPL011) sits the test that every declared
environment variable is documented.  A smoke test asserts the linter exits 0
on the repo's own source tree — the property CI enforces.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.config import ENV_VARS
from repro.core.registry import ALGORITHMS
from repro.lint import lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.engine import FileContext, LintResult, Violation
from repro.lint.flowrules import ConfigRegistryRule
from repro.lint.reporters import text_report
from repro.lint.rules import KNOWN_CODES

from .test_registry import CATALOGUE, _claims, check_entry, entry_claims

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
            "# repro-lint: disable-file=RPL003 — seconds are fractional by design\n"
            "t = total / rate\n"
            "b = float(total)\n"
        )
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == []
        assert len(res.suppressed) == 2

    def test_line_suppression(self, tmp_path):
        src = "avg = total / m  # repro-lint: disable=RPL003\n"
        res = lint_snippet(tmp_path, "volume", src)
        assert codes(res) == []


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
        # the CLI takes paths only: rule selection is not an option
        for flag in ("--select", "--ignore"):
            with pytest.raises(SystemExit) as exc:
                lint_main([flag, "RPL003", "."])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_path_through_dotdot_is_linted(self, tmp_path, monkeypatch):
        # `repro-lint ../src/repro` from docs/: the `..` part is not hidden
        lint_snippet(tmp_path, "jagged", "total = A[r0:r1].sum()\n")
        (tmp_path / "docs").mkdir()
        monkeypatch.chdir(tmp_path / "docs")
        res = lint_paths([Path("../jagged")])
        assert res.files_checked == 1 and codes(res) == ["RPL001"]

    def test_checkout_under_hidden_directory_is_linted(self, tmp_path):
        root = tmp_path / ".checkout"
        lint_snippet(root, "jagged", "total = A[r0:r1].sum()\n")
        # hidden directories *below* the named path are still skipped
        hidden = root / "jagged" / ".venv"
        hidden.mkdir()
        (hidden / "vendored.py").write_text("total = A[r0:r1].sum()\n")
        res = lint_paths([root / "jagged"])
        assert res.files_checked == 1 and codes(res) == ["RPL001"]


class TestRepoIsClean:
    def test_repro_lint_passes_on_own_tree(self, capsys):
        """The CI gate: repro-lint src/repro must exit 0 on the repo itself."""
        src = REPO_ROOT / "src" / "repro"
        assert src.is_dir()
        assert lint_main([str(src)]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("suppressed)")

    def test_documented_file_exemptions_match_code(self):
        """docs/lint.md "Documented exemptions" names exactly the files
        that carry a ``disable-file`` suppression."""
        src = REPO_ROOT / "src" / "repro"
        exempt = set()
        for path in src.rglob("*.py"):
            rel = path.relative_to(src).as_posix()
            if FileContext(path, rel, path.read_text(encoding="utf-8")).file_suppressions:
                exempt.add(rel)
        doc = (REPO_ROOT / "docs" / "lint.md").read_text(encoding="utf-8")
        section = doc.split("Documented exemptions", 1)[1].split("\n###", 1)[0]
        assert set(re.findall(r"`([\w/]+\.py)`", section)) == exempt

    def test_real_registry_is_consistent(self):
        """Every live registry entry passes the per-entry registry check."""
        for name in sorted(ALGORITHMS):
            check_entry(name)

    def test_violation_ordering(self):
        a = Violation("a.py", 1, 1, "RPL001", "x")
        b = Violation("a.py", 2, 1, "RPL001", "x")
        assert a < b


class TestRPL008Claims:
    """RPL008 is retired; its repo-wide property is checked on the live
    registry instead: no entry claims a bound ``docs/algorithms.md`` lacks."""

    def test_repo_tree_is_clean(self):
        documented = _claims(CATALOGUE)
        undocumented = {n: entry_claims(n) - documented for n in sorted(ALGORITHMS)}
        assert {n: c for n, c in undocumented.items() if c} == {}


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

    def test_outside_contract_packages_is_silent(self, tmp_path):
        res = lint_snippet(tmp_path, "experiments", "def f(xs):\n    return [x for x in set(xs)]\n")
        assert codes(res) == []

    def test_suppression(self, tmp_path):
        src = "def f(xs):\n    return [x for x in set(xs)]  # repro-lint: disable=RPL010 — fixture\n"
        res = lint_snippet(tmp_path, "sweep", src)
        assert codes(res) == []
        assert [v.rule for v in res.suppressed] == ["RPL010"]


class TestRPL011ConfigRegistry:
    CONFIG = "src/repro/instances/config.py"  # any */config.py is a config module

    @staticmethod
    def _check(rel: str, source: str) -> list[Violation]:
        return list(ConfigRegistryRule().check(make_ctx(rel, source)))

    def test_read_outside_config_module_triggers(self, tmp_path):
        src = "import os\nv = os.environ.get('REPRO_CACHE', '')\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL011"]
        assert "outside a declared config module" in res.violations[0].message
        # the consumer itself is no exception: it reads through repro.config.env_str
        out = self._check("src/repro/instances/pic/dataset.py", src)
        assert [v.message for v in out] == [res.violations[0].message]

    def test_read_in_config_module_is_allowed(self):
        assert self._check(self.CONFIG, "import os\nv = os.environ.get('REPRO_CACHE', '1')\n") == []

    def test_non_literal_name_triggers(self):
        out = self._check(self.CONFIG, "import os\nv = os.environ.get(name)\n")
        assert [v.rule for v in out] == ["RPL011"]
        assert "non-literal" in out[0].message

    def test_subscript_read_triggers_even_in_config(self):
        out = self._check(self.CONFIG, "import os\nv = os.environ['REPRO_CACHE']\n")
        assert [v.rule for v in out] == ["RPL011"]
        assert "no default" in out[0].message

    def test_env_write_is_silent(self, tmp_path):
        src = "import os\nos.environ['REPRO_X'] = '1'\ndel os.environ['REPRO_X']\n"
        assert codes(lint_snippet(tmp_path, "oned", src)) == []

    def test_undeclared_name_triggers(self):
        out = self._check(self.CONFIG, "import os\n\nv = os.environ.get('REPRO_NEW', '')\n")
        assert [v.rule for v in out] == ["RPL011"]
        assert "'REPRO_NEW'" in out[0].message and "not declared" in out[0].message
        # reported at the read site, not at repro/config.py
        assert (out[0].path, out[0].line) == (self.CONFIG, 3)

    def test_declared_and_documented_is_silent(self):
        src = "import os\n" + "".join(f"v = os.getenv({n!r}, '')\n" for n in ENV_VARS)
        assert self._check(self.CONFIG, src) == []

    def test_every_declared_name_is_documented(self):
        docs = "\n".join(
            p.read_text(encoding="utf-8") for p in sorted((REPO_ROOT / "docs").glob("*.md"))
        )
        assert [name for name in ENV_VARS if name not in docs] == []

    def test_registry_declares_exactly_the_one_knob(self):
        # the projection-memo sizes and the CSR density are module constants;
        # a sweep store is attached only through use_sweep(store=), a raw
        # store only through --raw-dir / use_raw_store, a scale through
        # --scale / scale=; production always runs the numpy kernel slot
        assert set(ENV_VARS) == {"REPRO_CACHE"}

    @pytest.mark.parametrize("name", sorted(ENV_VARS))
    def test_declared_name_is_read_by_its_consumer(self, name):
        # a knob whose reader is gone must leave the table with it
        consumer = ENV_VARS[name].consumer
        path = REPO_ROOT / "src" / (consumer.replace(".", "/") + ".py")
        assert f'env_str("{name}")' in path.read_text(encoding="utf-8"), consumer

    def test_retired_perf_switch_is_not_declared(self):
        # no environment variable selects a kernel body
        assert "REPRO_PERF" not in ENV_VARS and "REPRO_PERF_BACKEND" not in ENV_VARS
        out = self._check(self.CONFIG, "import os\nv = os.environ.get('REPRO_PERF', '')\n")
        assert [v.message for v in out] == [
            "environment variable 'REPRO_PERF' is read but not declared in "
            "ENV_VARS (repro/config.py)"
        ]

    #: every load of os.environ is a read; `{}` is the variable name, if any
    READ_IDIOMS = {
        "in": "'{}' in os.environ",
        "setdefault": "os.environ.setdefault('{}', '1')",
        "pop": "os.environ.pop('{}', None)",
        "dict": "dict(os.environ)",
        "copy": "os.environ.copy()",
    }

    @pytest.mark.parametrize("idiom", sorted(READ_IDIOMS))
    def test_read_idiom_triggers(self, tmp_path, idiom):
        expr = self.READ_IDIOMS[idiom]
        res = lint_snippet(tmp_path, "oned", f"import os\nv = {expr.format('REPRO_CACHE')}\n")
        assert codes(res) and set(codes(res)) == {"RPL011"}
        assert "outside a declared config module" in res.violations[0].message
        out = self._check(self.CONFIG, f"import os\nv = {expr.format('REPRO_NEW')}\n")
        expected = "not declared" if "{}" in expr else "non-literal (or no) variable name"
        assert len(out) == 1 and expected in out[0].message


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

    def test_unused_disable_all_flagged_only_on_full_run(self, tmp_path):
        pkg = tmp_path / "oned"
        pkg.mkdir()
        (pkg / "s.py").write_text("x = 1  # repro-lint: disable=all — temporary\n")
        full = lint_paths([pkg])
        assert codes(full) == ["RPL100"]
        assert "ALL" in full.violations[0].message

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

    # retired rules (the registry ones among them), a typo, and the rules
    # that tests over live objects replaced
    @pytest.mark.parametrize(
        "code",
        ["RPL006", "RPL999", "RPL009", "RPL012", "RPL004", "RPL007", "RPL008", "RPL005"],
    )
    @pytest.mark.parametrize("scope", ["disable", "disable-file"])
    def test_unknown_code_triggers(self, tmp_path, code, scope):
        src = f"x = 1  # repro-lint: {scope}={code} — left behind\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL100"]
        assert f"{scope}={code}` names an unknown rule code" in res.violations[0].message

    def test_unknown_code_next_to_a_live_one_triggers(self, tmp_path):
        src = "b = float(total)  # repro-lint: disable=RPL003,RPL999 — fixture\n"
        res = lint_snippet(tmp_path, "oned", src)
        assert codes(res) == ["RPL100"]
        assert "disable=RPL999`" in res.violations[0].message
        assert [v.rule for v in res.suppressed] == ["RPL003"]


class TestSarifReport:
    """The CLI's summary line."""

    def test_cli_suppressed_only_exits_zero_with_counts(self, tmp_path, capsys):
        pkg = tmp_path / "jagged"
        pkg.mkdir()
        ok = pkg / "ok.py"
        ok.write_text("t = A[r0:r1].sum()  # repro-lint: disable=RPL001 — fixture\n")
        assert lint_main([str(ok)]) == 0
        out = capsys.readouterr().out
        assert "0 violations in 1 file (1 suppressed)" in out


class TestRuleCatalogue:
    """A deleted rule leaves no stale entry in the lists readers consult."""

    def test_every_rule_list_is_known_codes(self):
        want = sorted(KNOWN_CODES)
        doc = (REPO_ROOT / "docs" / "lint.md").read_text(encoding="utf-8")
        assert re.findall(r"^### (RPL\d{3})\b", doc, re.M) == want
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        (line,) = [ln for ln in readme.splitlines() if ln.startswith("repro-lint ")]
        assert re.findall(r"RPL\d{3}", line) == want
