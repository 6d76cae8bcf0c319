"""``repro-lint`` — run the repo-specific static-analysis pass.

Typical invocations::

    repro-lint src/repro                 # lint the source tree (CI gate)
    repro-lint --select RPL003 src/repro # one rule only
    repro-lint --format json src/repro   # machine-readable output
    python -m repro.lint src/repro       # same, without the console script

Exit codes: 0 clean, 1 violations found, 2 usage or internal error — the
same contract CI relies on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import STALE_CODE, lint_paths
from .reporters import json_report, text_report
from .rules import ALL_RULES, KNOWN_CODES

__all__ = ["main"]


def _parse_codes(raw: str | None) -> set[str] | None:
    if raw is None:
        return None
    codes = {c.strip().upper() for c in raw.split(",") if c.strip()}
    unknown = codes - KNOWN_CODES
    if unknown:
        print(
            f"error: unknown rule code(s) {sorted(unknown)}; known: {sorted(KNOWN_CODES)}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return codes


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"       {rule.rationale}")
    lines.append(f"{STALE_CODE}  stale-suppression")
    lines.append(
        "       a # repro-lint: disable comment that silences nothing, or "
        "names no rule, must be removed"
    )
    return "\n".join(lines)


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
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run (default: all)")
    parser.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="list honoured suppressions in the text report")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    paths = list(args.paths)
    if not paths:
        default = Path("src/repro")
        paths = [default if default.is_dir() else Path(".")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {[str(p) for p in missing]}", file=sys.stderr)
        return 2

    result = lint_paths(
        paths,
        select=_parse_codes(args.select),
        ignore=_parse_codes(args.ignore) or set(),
    )
    if args.format == "json":
        print(json_report(result))
    else:
        print(text_report(result, verbose=args.show_suppressed))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
