"""repro-lint: repo-specific static analysis for the partitioning codebase.

The paper's correctness-and-speed story rests on conventions that ordinary
linters cannot see:

* rectangle/interval loads are O(1) prefix-sum queries (§2.1, the Γ array),
  never O(n) slice sums;
* every interval is half-open ``[lo, hi)``, mapping directly onto slices;
* loads stay exact ``int64`` so the optimal algorithms (Nicol's parametric
  search, integer bisection) can bisect exactly;
* every accelerated path (perf kernels, CSR substrate, sweep warm starts)
  is **bit-identical** to its reference twin — enforced dynamically by the
  differential matrix and statically by the determinism rule.

This package enforces them with an AST rule engine (:mod:`.engine`), a
ruleset grounded in this codebase (:mod:`.rules`, RPL001–RPL005, RPL007,
RPL008), dataflow rules (:mod:`.dataflow`, :mod:`.flowrules`, RPL010 and
RPL011), a suppression meta-check (RPL100), and a CLI (:mod:`.cli`,
installed as ``repro-lint`` / ``python -m repro.lint``) with text and JSON
reporters.  The paper's complexity bounds are op-count tests
(``tests/test_complexity.py``), and registry and kernel coverage of the
differential matrix is a test in ``tests/test_backend_equality.py``; neither
is a lint rule.

See ``docs/lint.md`` for the rule catalogue and suppression syntax.
"""

from __future__ import annotations

from .engine import LintResult, Violation, lint_paths
from .flowrules import check_env_reads
from .reporters import json_report, text_report
from .rules import ALL_RULES, check_registry

__all__ = [
    "LintResult",
    "Violation",
    "lint_paths",
    "ALL_RULES",
    "check_registry",
    "check_env_reads",
    "json_report",
    "text_report",
]
