"""AST rule engine for ``repro-lint``.

The engine is deliberately small: a rule is an object with a ``code``, a
``name``, a ``rationale`` and a ``check(ctx)`` generator over
:class:`Violation`; the engine walks the target tree, parses each Python
file once, applies every rule whose :meth:`Rule.applies_to` accepts
the file, and filters the result through per-line and per-file suppressions.

Suppression syntax (checked anywhere in a file, conventionally as a trailing
comment on the flagged line / near the top of the file)::

    x = A[r0:r1, c0:c1].sum()   # repro-lint: disable=RPL001  <why it is OK>
    # repro-lint: disable-file=RPL003  <why the whole file is exempt>

``disable=all`` silences every rule for that line.  Suppressions are counted
and reported so they stay visible in CI output.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Violation",
    "FileContext",
    "Suppression",
    "Rule",
    "LintResult",
    "collect_files",
    "lint_paths",
]

#: code of the stale-suppression meta-check (not a Rule object: it runs over
#: the suppression tables after every other rule has had its chance to match)
STALE_CODE = "RPL100"

#: packages whose modules are "hot path" for the prefix-sum / integer rules
HOT_PACKAGES = frozenset(
    {
        "oned",
        "jagged",
        "rectilinear",
        "hierarchical",
        "spiral",
        "volume",
        "dynamic",
        # the BSP simulator consumes substrates and exact loads on every
        # snapshot of a dynamic run — same integer-arithmetic contracts
        "runtime",
        # "perf" covers the kernel registry (repro.perf.kernels): the
        # reference and numpy backend of every kernel, the hottest loops in
        # the tree (pinned by tests/test_kernels_equality.py)
        "perf",
    }
)
#: packages additionally covered by the interval-convention rule
CORE_PACKAGES = HOT_PACKAGES | {"core"}

#: individual modules outside the hot packages whose loops are nonetheless
#: hot-path (path suffixes): the sparse substrate lives in ``core`` but its
#: queries sit under every solver, so the hot-package rules cover it too
HOT_MODULES = frozenset({"core/sparse.py"})

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<scope>-file)?\s*=\s*(?P<codes>[A-Za-z0-9_,\s]+?|all)\s*(?:\s[-—#].*)?$"
)


@dataclass(frozen=True, order=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class Suppression:
    """One ``# repro-lint: disable[-file]=...`` comment, with usage tracking.

    ``used`` collects the codes a suppression actually silenced during a lint
    run; the stale-suppression pass (RPL100) reports codes that never matched.
    """

    line: int  #: comment line (anchor for file-scope suppressions too)
    codes: frozenset[str]  #: upper-cased rule codes, possibly ``{"ALL"}``
    file_scope: bool
    used: set[str] = field(default_factory=set)

    def matches(self, v: Violation) -> bool:
        if not self.file_scope and self.line != v.line:
            return False
        return v.rule in self.codes or "ALL" in self.codes


class FileContext:
    """A parsed source file plus its suppression table."""

    def __init__(self, path: Path, rel: str, source: str):
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = ast.parse(source, filename=rel)
        self.suppressions: list[Suppression] = []
        self.line_suppressions: dict[int, set[str]] = {}
        self.file_suppressions: set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            m = _SUPPRESS_RE.search(text)
            if m is None:
                continue
            codes = {c.strip().upper() for c in m.group("codes").split(",") if c.strip()}
            scope = bool(m.group("scope"))
            self.suppressions.append(
                Suppression(line=lineno, codes=frozenset(codes), file_scope=scope)
            )
            if scope:
                self.file_suppressions |= codes
            else:
                self.line_suppressions.setdefault(lineno, set()).update(codes)

    def package_parts(self) -> frozenset[str]:
        """Directory names along the file's path (used for rule applicability)."""
        return frozenset(Path(self.rel).parts[:-1])

    def is_suppressed(self, v: Violation) -> bool:
        hit = False
        for s in self.suppressions:
            if s.matches(v):
                s.used.add(v.rule)
                hit = True
        return hit


class Rule:
    """Base class for per-file AST rules."""

    code: str = "RPL000"
    name: str = "unnamed"
    rationale: str = ""
    #: directory names this rule applies to; ``None`` means every file
    scope: frozenset[str] | None = None

    def applies_to(self, ctx: FileContext) -> bool:
        if self.scope is None or bool(self.scope & ctx.package_parts()):
            return True
        # hot-package rules also cover the designated hot modules, wherever
        # they live in the package tree
        if self.scope & HOT_PACKAGES:
            rel = ctx.rel.replace("\\", "/")
            return any(rel.endswith(m) for m in HOT_MODULES)
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=ctx.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            message=message,
        )


@dataclass
class LintResult:
    """Outcome of a lint run: violations kept, suppressions honoured, errors."""

    violations: list[Violation] = field(default_factory=list)
    suppressed: list[Violation] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.violations else 0


def collect_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for p in paths:
        if p.is_file() and p.suffix == ".py":
            out.add(p)
        elif p.is_dir():
            for f in p.rglob("*.py"):
                # only the directories below the named path count: the path
                # itself may run through `..` or a hidden checkout directory
                below = f.relative_to(p).parts
                if "__pycache__" in below or any(part.startswith(".") for part in below):
                    continue
                out.add(f)
    return sorted(out)


def _relative(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _stale_suppressions(
    contexts: Sequence[FileContext],
    rule_codes: frozenset[str],
    known_codes: frozenset[str],
) -> Iterator[Violation]:
    """RPL100: suppressions that silenced nothing this run, or name no rule.

    A code in ``rule_codes`` that silenced nothing is stale, and so is an
    unused ``disable=all``.  A code outside ``known_codes`` (a typo, a
    retired rule) is flagged whether or not it silenced anything.
    """
    for ctx in contexts:
        for s in ctx.suppressions:
            scope = "disable-file" if s.file_scope else "disable"
            unknown = s.codes - known_codes - {"ALL"}
            if unknown:
                yield Violation(
                    path=ctx.rel,
                    line=s.line,
                    col=1,
                    rule=STALE_CODE,
                    message=(
                        f"suppression `# repro-lint: {scope}="
                        f"{','.join(sorted(unknown))}` names an unknown rule "
                        "code; remove it"
                    ),
                )
            if "ALL" in s.codes:
                stale = frozenset({"ALL"}) if not s.used else frozenset()
            else:
                stale = frozenset((s.codes & rule_codes) - s.used)
            if not stale:
                continue
            yield Violation(
                path=ctx.rel,
                line=s.line,
                col=1,
                rule=STALE_CODE,
                message=(
                    f"stale suppression `# repro-lint: {scope}="
                    f"{','.join(sorted(stale))}`: no such finding is raised "
                    "here any more; remove it"
                ),
            )


def lint_paths(paths: Sequence[Path | str]) -> LintResult:
    """Lint ``paths`` with every registered rule, then the RPL100 check."""
    from .rules import ALL_RULES, KNOWN_CODES

    result = LintResult()
    contexts: list[FileContext] = []
    for path in collect_files(Path(p) for p in paths):
        rel = _relative(path)
        try:
            source = path.read_text(encoding="utf-8")
            ctx = FileContext(path, rel, source)
        except (OSError, SyntaxError, ValueError) as exc:
            result.errors.append(f"{rel}: cannot lint: {exc}")
            continue
        contexts.append(ctx)
        result.files_checked += 1
        for rule in ALL_RULES:
            if not rule.applies_to(ctx):
                continue
            for v in rule.check(ctx):
                (result.suppressed if ctx.is_suppressed(v) else result.violations).append(v)

    by_rel = {ctx.rel: ctx for ctx in contexts}
    rule_codes = frozenset(r.code for r in ALL_RULES)
    for v in _stale_suppressions(contexts, rule_codes, KNOWN_CODES):
        # a stale finding is suppressible only by an *explicit* RPL100
        # code — `disable=all` must not swallow its own staleness report
        hit = False
        for s in by_rel[v.path].suppressions:
            if STALE_CODE in s.codes and (s.file_scope or s.line == v.line):
                s.used.add(STALE_CODE)
                hit = True
        (result.suppressed if hit else result.violations).append(v)

    result.violations.sort()
    result.suppressed.sort()
    return result
