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
  differential matrix; the determinism rule flags the hash-order
  iterations a lucky run can miss.

This package enforces them with an AST rule engine (:mod:`.engine`) that
checks source text one file at a time: a ruleset grounded in this codebase
(:mod:`.rules`, RPL001–RPL003), dataflow rules (:mod:`.dataflow`,
:mod:`.flowrules`, RPL010 and RPL011), a suppression meta-check (RPL100),
and a CLI (:mod:`.cli`, installed as ``repro-lint`` / ``python -m
repro.lint``) that prints a text report.  Guarantees about live objects
are tests, not rules: the input matrix is never written
(``tests/test_adversarial.py::test_input_matrix_is_read_only``); the
paper's complexity bounds are op-count tests
(``tests/test_complexity.py``); the registry's citations, annotations,
catalogue entries and measured raw cells are ``tests/test_registry.py``;
registry and kernel coverage of the differential matrix is
``tests/test_backend_equality.py``.

See ``docs/lint.md`` for the rule catalogue and suppression syntax.
"""

from __future__ import annotations

from .engine import LintResult, Violation, lint_paths
from .reporters import text_report
from .rules import ALL_RULES

__all__ = [
    "LintResult",
    "Violation",
    "lint_paths",
    "ALL_RULES",
    "text_report",
]
