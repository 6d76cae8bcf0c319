"""``repro-lint`` — run the repo-specific static-analysis pass.

Typical invocations::

    repro-lint src/repro                 # lint the source tree (CI gate)
    python -m repro.lint src/repro       # same, without the console script

Every run applies every rule and prints the text report.  Exit codes: 0
clean, 1 violations found, 2 usage or internal error — the same contract
CI relies on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import lint_paths
from .reporters import text_report

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Repo-specific static analysis: prefix-sum, half-open "
        "interval and integer-load invariants (see docs/lint.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro if present, else .)",
    )
    args = parser.parse_args(argv)

    paths = list(args.paths)
    if not paths:
        default = Path("src/repro")
        paths = [default if default.is_dir() else Path(".")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {[str(p) for p in missing]}", file=sys.stderr)
        return 2

    result = lint_paths(paths)
    print(text_report(result))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
