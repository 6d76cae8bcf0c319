"""Output formats for ``repro-lint``: text and JSON."""

from __future__ import annotations

import json

from .engine import LintResult

__all__ = ["text_report", "json_report"]


def text_report(result: LintResult, *, verbose: bool = False) -> str:
    """The default ``path:line:col: CODE message`` listing plus a summary."""
    lines = [v.render() for v in result.violations]
    if verbose and result.suppressed:
        lines.append("")
        lines.append("suppressed:")
        lines.extend(f"  {v.render()}" for v in result.suppressed)
    lines.extend(f"error: {e}" for e in result.errors)
    n = len(result.violations)
    summary = (
        f"{n} violation{'s' if n != 1 else ''} in "
        f"{result.files_checked} file{'s' if result.files_checked != 1 else ''}"
        f" ({len(result.suppressed)} suppressed)"
    )
    lines.append(summary)
    return "\n".join(lines)


def json_report(result: LintResult) -> str:
    """Machine-readable report (one object; violations sorted)."""
    payload = {
        "violations": [
            {
                "rule": v.rule,
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "message": v.message,
            }
            for v in result.violations
        ],
        "suppressed": [
            {
                "rule": v.rule,
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "message": v.message,
            }
            for v in result.suppressed
        ],
        "errors": list(result.errors),
        "files_checked": result.files_checked,
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, indent=2)
