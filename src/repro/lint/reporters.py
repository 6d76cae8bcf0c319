"""The ``repro-lint`` text report."""

from __future__ import annotations

from .engine import LintResult

__all__ = ["text_report"]


def text_report(result: LintResult) -> str:
    """The ``path:line:col: CODE message`` listing plus a summary."""
    lines = [v.render() for v in result.violations]
    lines.extend(f"error: {e}" for e in result.errors)
    n = len(result.violations)
    summary = (
        f"{n} violation{'s' if n != 1 else ''} in "
        f"{result.files_checked} file{'s' if result.files_checked != 1 else ''}"
        f" ({len(result.suppressed)} suppressed)"
    )
    lines.append(summary)
    return "\n".join(lines)
