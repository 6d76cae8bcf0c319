"""The repro ruleset: RPL001–RPL008.

Each rule encodes one invariant the paper's algorithms rely on; see
``docs/lint.md`` for the catalogue with worked examples.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .engine import (
    CORE_PACKAGES,
    HOT_PACKAGES,
    FileContext,
    ProjectRule,
    Rule,
    Violation,
)
from .flowrules import (
    ConfigRegistryRule,
    DeterminismRule,
    DispatchTwinRule,
    ResourceLifecycleRule,
)

__all__ = [
    "PrefixSumRule",
    "HalfOpenRule",
    "IntegerLoadRule",
    "RegistryRule",
    "NoInputMutationRule",
    "ComplexityBudgetRule",
    "ComplexityClaimRule",
    "ExperimentsCoverageRule",
    "DispatchTwinRule",
    "DeterminismRule",
    "ConfigRegistryRule",
    "ResourceLifecycleRule",
    "check_registry",
    "check_budgets",
    "check_claims",
    "ALL_RULES",
    "ALL_PROJECT_RULES",
]


def _terminal_names(node: ast.AST) -> set[str]:
    """Terminal identifiers in a subtree: ``Name.id`` and ``Attribute.attr``."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _is_name(node: ast.AST, names: frozenset[str]) -> bool:
    return isinstance(node, ast.Name) and node.id in names


def _is_plus_one(node: ast.AST | None, names: frozenset[str]) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and (
            (_is_name(node.left, names) and _const_eq(node.right, 1))
            or (_is_name(node.right, names) and _const_eq(node.left, 1))
        )
    )


def _is_minus_one(node: ast.AST | None, names: frozenset[str]) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and _is_name(node.left, names)
        and _const_eq(node.right, 1)
    )


def _const_eq(node: ast.AST, value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


class PrefixSumRule(Rule):
    """RPL001 — hot-path rectangle/interval loads must be prefix-sum queries.

    Paper §2.1 assumes the load matrix is given as the 2D prefix array Γ so
    every rectangle load costs O(1).  A ``A[...].sum()`` / ``np.sum(A[...])``
    call or a Python accumulation loop over a slice re-scans the cells —
    O(area) per query — and silently voids every runtime bound in Table 1.
    """

    code = "RPL001"
    name = "prefix-sum-discipline"
    rationale = (
        "slice sums are O(area); use PrefixSum1D/2D/3D .load()/axis_prefix() "
        "queries (paper §2.1, the Γ array)"
    )
    scope = HOT_PACKAGES

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        reported: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                hit = self._sum_over_slice(node)
                if hit is not None and id(node) not in reported:
                    reported.add(id(node))
                    yield self.violation(
                        ctx,
                        node,
                        f"O(n) `{hit}` over a slice in a hot path; use a "
                        "PrefixSum load()/axis_prefix() query instead",
                    )
            elif isinstance(node, (ast.For, ast.While)):
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.AugAssign)
                        and isinstance(sub.op, ast.Add)
                        and id(sub) not in reported
                        and any(isinstance(s, ast.Subscript) for s in ast.walk(sub.value))
                    ):
                        reported.add(id(sub))
                        yield self.violation(
                            ctx,
                            sub,
                            "Python accumulation loop over subscripted values; "
                            "use a PrefixSum query or a vectorized prefix "
                            "difference instead",
                        )

    @staticmethod
    def _sum_over_slice(node: ast.Call) -> str | None:
        func = node.func
        # X[...].sum()
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "sum"
            and isinstance(func.value, ast.Subscript)
        ):
            return ".sum()"
        # np.sum(X[...]) / builtin sum(X[...])
        is_np_sum = (
            isinstance(func, ast.Attribute)
            and func.attr == "sum"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        )
        is_builtin_sum = isinstance(func, ast.Name) and func.id == "sum"
        if (is_np_sum or is_builtin_sum) and node.args:
            if isinstance(node.args[0], ast.Subscript):
                return "np.sum()" if is_np_sum else "sum()"
        return None


class HalfOpenRule(Rule):
    """RPL002 — all intervals are half-open ``[lo, hi)``.

    The prefix arrays and every cut array in the repo use half-open indices,
    which map directly onto slices (``P[hi] - P[lo]`` is the load of
    ``[lo, hi)``).  ``hi + 1`` / ``lo - 1`` slice arithmetic and inclusive
    comparisons against an upper bound are the classic symptom of an
    inclusive-bound convention leaking in, and produce off-by-one loads.
    """

    code = "RPL002"
    name = "half-open-intervals"
    rationale = (
        "intervals are [lo, hi); slice bounds like hi+1/lo-1 and `x <= hi` "
        "comparisons indicate an inclusive convention leaking in"
    )
    scope = CORE_PACKAGES

    UPPER = frozenset({"hi", "r1", "c1", "j1", "x1", "y1", "b1", "end", "stop", "last"})
    LOWER = frozenset({"lo", "r0", "c0", "j0", "x0", "y0", "b0", "begin", "first"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Subscript):
                for sl in self._slices(node.slice):
                    if _is_plus_one(sl.upper, self.UPPER):
                        yield self.violation(
                            ctx,
                            sl.upper or node,
                            "slice upper bound `<hi> + 1`; half-open [lo, hi) "
                            "bounds map onto slices without +1 (a prefix-array "
                            "window is the one documented exception)",
                        )
                    if _is_minus_one(sl.lower, self.LOWER):
                        yield self.violation(
                            ctx,
                            sl.lower or node,
                            "slice lower bound `<lo> - 1`; half-open [lo, hi) "
                            "bounds map onto slices without -1",
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "range"
                    and node.args
                    and _is_plus_one(node.args[-1 if len(node.args) < 3 else 1], self.UPPER)
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "`range(..., <hi> + 1)` iterates an inclusive interval; "
                        "half-open bounds need no +1",
                    )
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                op = node.ops[0]
                if isinstance(op, ast.LtE) and _is_name(node.comparators[0], self.UPPER):
                    yield self.violation(
                        ctx,
                        node,
                        "inclusive comparison `x <= <hi>`; half-open membership "
                        "is `lo <= x < hi`",
                    )
                elif isinstance(op, ast.GtE) and _is_name(node.left, self.UPPER):
                    yield self.violation(
                        ctx,
                        node,
                        "inclusive comparison `<hi> >= x`; half-open membership "
                        "is `lo <= x < hi`",
                    )

    @staticmethod
    def _slices(node: ast.AST) -> list[ast.Slice]:
        if isinstance(node, ast.Slice):
            return [node]
        if isinstance(node, ast.Tuple):
            return [e for e in node.elts if isinstance(e, ast.Slice)]
        return []


class IntegerLoadRule(Rule):
    """RPL003 — loads stay exact ``int64`` inside algorithm modules.

    The optimal algorithms bisect on the bottleneck value and rely on exact
    integer arithmetic (module docstring of :mod:`repro.core.prefix`); a
    ``float(...)`` cast or a true division on a load value introduces
    rounding at ~2**53 and breaks exactness.  Floor division ``//``,
    ceil-division ``-(-a // b)`` and :class:`fractions.Fraction` are the
    exact alternatives.
    """

    code = "RPL003"
    name = "integer-load-discipline"
    rationale = (
        "loads are exact int64 so bisection is exact; use // , -(-a//b) or "
        "Fraction instead of float casts and true division"
    )
    scope = HOT_PACKAGES

    #: identifiers that denote load values by repo convention
    LOAD_NAMES = frozenset(
        {
            "load",
            "loads",
            "total",
            "subtotal",
            "rem",
            "remaining",
            "lmax",
            "lavg",
            "l1",
            "l2",
            "sl",
            "stripe_load",
            "stripe_loads",
            "bottleneck",
        }
    )
    FLOAT_ATTRS = frozenset({"float16", "float32", "float64", "float128"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if self._mentions_load(node):
                    yield self.violation(
                        ctx,
                        node,
                        "true division on a load value loses exactness; use "
                        "`//`, ceil-division `-(-a // b)` or Fraction",
                    )
            elif isinstance(node, ast.Attribute) and node.attr in self.FLOAT_ATTRS:
                if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                    yield self.violation(
                        ctx,
                        node,
                        f"float dtype `np.{node.attr}` in an algorithm module; "
                        "loads are exact int64",
                    )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Violation]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float":
            # float("inf") / float("nan") sentinels are exact-comparison safe
            if not (node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                yield self.violation(
                    ctx,
                    node,
                    "float(...) cast in an algorithm module; loads are exact "
                    "int64 (use int()/Fraction, or cast only at the reporting "
                    "boundary)",
                )
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            if any(_is_name(a, frozenset({"float"})) for a in node.args):
                yield self.violation(
                    ctx, node, "astype(float) in an algorithm module; loads are exact int64"
                )
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_name(kw.value, frozenset({"float"})):
                yield self.violation(
                    ctx, node, "dtype=float in an algorithm module; loads are exact int64"
                )

    def _mentions_load(self, node: ast.BinOp) -> bool:
        for side in (node.left, node.right):
            if _terminal_names(side) & self.LOAD_NAMES:
                return True
            for sub in ast.walk(side):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    if sub.func.attr in ("load", "sum"):
                        return True
                if isinstance(sub, ast.Attribute) and sub.attr == "total":
                    return True
        return False


class NoInputMutationRule(Rule):
    """RPL005 — partitioner entry points must not mutate their input matrix.

    Every public algorithm takes the load matrix ``A`` (or a prefix built
    from it) read-only; callers reuse the same matrix across algorithms when
    comparing them (the experiment harness does exactly that).  In-place
    writes to the parameter would corrupt cross-algorithm comparisons.
    """

    code = "RPL005"
    name = "no-input-mutation"
    rationale = (
        "algorithms must treat the load-matrix parameter A as read-only; "
        "copy before modifying"
    )
    scope = CORE_PACKAGES

    MUTATORS = frozenset({"sort", "fill", "resize", "put", "itemset", "partition"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = {a.arg for a in fn.args.args + fn.args.posonlyargs + fn.args.kwonlyargs}
            if "A" not in params:
                continue
            yield from self._check_body(ctx, fn)

    def _check_body(self, ctx: FileContext, fn: ast.AST) -> Iterator[Violation]:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if self._writes_A(tgt):
                        yield self.violation(
                            ctx, node, "in-place write to input matrix `A[...] = ...`"
                        )
            elif isinstance(node, ast.AugAssign):
                if self._writes_A(node.target) or _is_name(node.target, frozenset({"A"})):
                    yield self.violation(
                        ctx, node, "augmented assignment mutates the input matrix A in place"
                    )
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in self.MUTATORS
                    and _is_name(f.value, frozenset({"A"}))
                ):
                    yield self.violation(
                        ctx, node, f"`A.{f.attr}(...)` mutates the input matrix in place"
                    )
                for kw in node.keywords:
                    if kw.arg == "out" and _is_name(kw.value, frozenset({"A"})):
                        yield self.violation(
                            ctx, node, "`out=A` writes into the input matrix in place"
                        )

    @staticmethod
    def _writes_A(target: ast.AST) -> bool:
        return isinstance(target, ast.Subscript) and _is_name(
            target.value, frozenset({"A"})
        )


_CITATION_RE = re.compile(r"§|\bSection\s+\d|\bTheorem\s+\d|\bFigure\s+\d|\b§?\d\.\d")
_VARIANT_SUFFIXES = ("-HOR", "-VER", "-BEST", "-LOAD", "-DIST")


def _strip_variant(name: str) -> str:
    for suffix in _VARIANT_SUFFIXES:
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def check_registry(
    algorithms: dict[str, Callable[..., Any]],
    docs_text: str | None,
    registry_path: str = "src/repro/core/registry.py",
    registry_line: int = 1,
) -> list[Violation]:
    """RPL004 core check, factored out so tests can run it on fake registries.

    For every registered algorithm: it must be callable, its (unwrapped)
    implementation must annotate a ``Partition`` return and carry a docstring
    citing a paper section, and its base name must appear in
    ``docs/algorithms.md`` (``docs_text``; pass None to skip the doc check).
    """
    out: list[Violation] = []

    def bad(message: str) -> None:
        out.append(
            Violation(
                path=registry_path,
                line=registry_line,
                col=1,
                rule="RPL004",
                message=message,
            )
        )

    for name in sorted(algorithms):
        fn = algorithms[name]
        if not callable(fn):
            bad(f"ALGORITHMS[{name!r}] is not callable")
            continue
        target = inspect.unwrap(fn)
        doc = inspect.getdoc(target) or ""
        if not doc:
            bad(f"ALGORITHMS[{name!r}] resolves to {target!r} with no docstring")
        elif not _CITATION_RE.search(doc):
            bad(
                f"ALGORITHMS[{name!r}] docstring cites no paper section "
                "(expected a §/Section/Theorem/Figure reference)"
            )
        ret = getattr(target, "__annotations__", {}).get("return")
        ret_name = ret if isinstance(ret, str) else getattr(ret, "__name__", None)
        if ret_name != "Partition":
            bad(
                f"ALGORITHMS[{name!r}] implementation does not annotate a "
                f"Partition return (got {ret_name!r})"
            )
        if docs_text is not None and _strip_variant(name) not in docs_text:
            bad(f"ALGORITHMS[{name!r}] (base {_strip_variant(name)!r}) missing from docs/algorithms.md")
    return out


class RegistryRule(ProjectRule):
    """RPL004 — the algorithm registry, docs and implementations stay in sync.

    Runs only when the linted tree contains ``core/registry.py`` (i.e. the
    repro source tree itself); imports :data:`repro.core.registry.ALGORITHMS`
    and validates it with :func:`check_registry`.
    """

    code = "RPL004"
    name = "registry-consistency"
    rationale = (
        "every ALGORITHMS entry must be a documented, paper-cited callable "
        "returning Partition and listed in docs/algorithms.md"
    )

    def check_project(self, files: Sequence[FileContext]) -> Iterator[Violation]:
        registry_ctx = next(
            (
                ctx
                for ctx in files
                if ctx.path.as_posix().endswith("repro/core/registry.py")
            ),
            None,
        )
        if registry_ctx is None:
            return
        from ..core.registry import ALGORITHMS

        docs_text = self._find_docs(registry_ctx.path)
        line = self._algorithms_line(registry_ctx)
        yield from check_registry(
            ALGORITHMS, docs_text, registry_ctx.rel, registry_line=line
        )

    @staticmethod
    def _find_docs(registry_path: Path) -> str | None:
        node = registry_path.resolve().parent
        for _ in range(6):
            candidate = node / "docs" / "algorithms.md"
            if candidate.is_file():
                return candidate.read_text(encoding="utf-8")
            node = node.parent
        return None

    @staticmethod
    def _algorithms_line(ctx: FileContext) -> int:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if node.target.id == "ALGORITHMS":
                    return node.lineno
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if _is_name(tgt, frozenset({"ALGORITHMS"})):
                        return node.lineno
        return 1


class ExperimentsCoverageRule(ProjectRule):
    """RPL007 — every registry entry is exercised by at least one experiment.

    A registered algorithm nobody runs is a reproduction gap: its behavior is
    asserted by unit tests but never measured against the paper.  The rule
    statically collects, from the modules of the ``experiments`` package,

    * exact string constants (``ALGORITHMS["JAG-M-HEUR"]``-style lookups and
      name tuples like ``HEURISTICS``), excluding docstrings;
    * leading constant prefixes of f-strings (``f"HIER-RB-{variant}"``
      covers every ``HIER-RB-*`` variant);
    * referenced identifiers, matched against each entry's unwrapped
      implementation name (``jag_m_heur(...)`` called directly covers every
      entry that unwraps to ``jag_m_heur``);

    and reports each :data:`~repro.core.registry.ALGORITHMS` entry none of
    them reach.  Like RPL004 it runs only when the linted tree contains the
    registry, and skips quietly when the experiments package is not part of
    the linted file set (e.g. single-file invocations).
    """

    code = "RPL007"
    name = "experiments-coverage"
    rationale = (
        "every ALGORITHMS entry must be exercised by at least one "
        "figure/extension experiment, by name or by implementation reference"
    )

    def check_project(self, files: Sequence[FileContext]) -> Iterator[Violation]:
        registry_ctx = next(
            (
                ctx
                for ctx in files
                if ctx.path.as_posix().endswith("repro/core/registry.py")
            ),
            None,
        )
        exp_files = [ctx for ctx in files if "experiments" in ctx.package_parts()]
        if registry_ctx is None or not exp_files:
            return
        from ..core.registry import ALGORITHMS

        strings: set[str] = set()
        prefixes: set[str] = set()
        idents: set[str] = set()
        for ctx in exp_files:
            docstrings = self._docstring_ids(ctx.tree)
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if id(node) not in docstrings:
                        strings.add(node.value)
                elif isinstance(node, ast.JoinedStr):
                    first = node.values[0] if node.values else None
                    if isinstance(first, ast.Constant) and isinstance(first.value, str):
                        prefixes.add(first.value)
                elif isinstance(node, ast.Name):
                    idents.add(node.id)
                elif isinstance(node, ast.Attribute):
                    idents.add(node.attr)
        prefixes.discard("")
        line = RegistryRule._algorithms_line(registry_ctx)
        for name in sorted(ALGORITHMS):
            if name in strings:
                continue
            if any(name.startswith(p) for p in prefixes):
                continue
            if self._chain_names(ALGORITHMS[name]) & idents:
                continue
            yield Violation(
                path=registry_ctx.rel,
                line=line,
                col=1,
                rule="RPL007",
                message=(
                    f"ALGORITHMS[{name!r}] is not exercised by any "
                    "figure/extension experiment (no experiments module names "
                    "it or references its implementation)"
                ),
            )

    @staticmethod
    def _chain_names(fn: Callable[..., Any]) -> set[str]:
        """``__name__`` of every function along the ``__wrapped__`` chain.

        Registry entries stack wrappers (orientation/variant closure over the
        public ``jag_*``/``hier_*`` function over the ``_main0`` core); a
        reference to any link counts as exercising the implementation.
        """
        out: set[str] = set()
        seen: set[int] = set()
        while id(fn) not in seen:
            seen.add(id(fn))
            name = getattr(fn, "__name__", None)
            if name:
                out.add(name)
            fn = getattr(fn, "__wrapped__", fn)
        return out

    @staticmethod
    def _docstring_ids(tree: ast.AST) -> set[int]:
        """ids of the Constant nodes that are module/class/function docstrings."""
        out: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                body = getattr(node, "body", [])
                if (
                    body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)
                ):
                    out.add(id(body[0].value))
        return out


def check_budgets(
    probe_path: str = "src/repro/oned/probe.py",
    line: int = 1,
) -> list[Violation]:
    """RPL006 core check, factored out so tests can invoke it directly.

    Re-measures the paper's complexity bounds as *operation budgets* on small
    deterministic instances and reports every overshoot.  Counts come from
    :func:`repro.perf.op_counters` on the instrumented call sites, so unlike
    wall-clock numbers the budgets are architecture-independent and exact:

    * probe (§2.2): at most ``m`` greedy steps per call;
    * exact 1D bisection (§2.2): at most ``ceil(log2(UB - LB + 1)) + 1``
      probe rounds over the opening bracket;
    * JAG-M-HEUR (§3.2.1): total probe steps within ``32 * (n + m log n)``;
    * HIER-RB (§3.3): exactly ``2(m - 1)`` cut searches for power-of-two
      ``m``, and within ``[m - 1, 4(m - 1)]`` for odd ``m``;
    * HIER-RELAXED (§3.3): cut searches within ``[m - 1, 2(m - 1)]``;
    * kernel registry (``repro.perf.kernels``): ``probe_batch`` runs one
      batch call with at most ``m`` lockstep rounds — and exactly one round
      when every candidate resolves immediately (the early-exit contract);
      ``min_parts`` walks exactly ``parts`` greedy steps after one batched
      jump-table search.

    The instances are seeded, the counters deterministic, and both kernel
    backends are measured where the budget must hold in both — a budget
    violation is a real complexity regression, never flake.
    """
    import math

    import numpy as np

    from ..core.registry import partition_2d
    from ..oned.bisect import bisect_bottleneck
    from ..oned.probe import probe
    from ..perf import op_counters, use_perf_backend

    out: list[Violation] = []

    def bad(message: str) -> None:
        out.append(
            Violation(path=probe_path, line=line, col=1, rule="RPL006", message=message)
        )

    def prefix_of(v: np.ndarray) -> np.ndarray:
        P = np.zeros(len(v) + 1, dtype=np.int64)
        np.cumsum(v, out=P[1:])
        return P

    # probe: at most m greedy steps per call (§2.2)
    P = prefix_of(np.random.default_rng(17).integers(0, 100, 200))
    total = int(P[-1])
    for m in (3, 17):
        for B in (0, total // (2 * m), total // m, total):
            with op_counters() as ops:
                probe(P, m, B)
            if ops["probe_steps"] > m:
                bad(
                    f"probe(m={m}, B={B}) took {ops['probe_steps']} greedy "
                    f"steps, over the paper budget of m={m} (§2.2)"
                )

    # exact 1D bisection: O(log(UB - LB)) probe rounds (§2.2)
    m = 12
    max_el = int(np.max(np.diff(P)))
    lb = max(-(-total // m), max_el)
    ub = total // m + max_el
    budget = math.ceil(math.log2(ub - lb + 1)) + 1
    with op_counters() as ops:
        bisect_bottleneck(P, m)
    if ops["probe_calls"] > budget:
        bad(
            f"bisect_bottleneck(m={m}) opened {ops['probe_calls']} probes, "
            f"over the ceil(log2(UB-LB+1))+1 = {budget} budget (§2.2)"
        )

    # JAG-M-HEUR: O(n + m log n) probe work (§3.2.1)
    n, m = 64, 16
    A = np.random.default_rng(n + m).integers(0, 50, (n, n))
    with op_counters() as ops:
        partition_2d(A, m, "JAG-M-HEUR-HOR")
    budget = 32 * (n + m * math.ceil(math.log2(n + 1)))
    if ops["probe_steps"] > budget:
        bad(
            f"JAG-M-HEUR on {n}x{n}, m={m} took {ops['probe_steps']} probe "
            f"steps, over the 32*(n + m*log2(n)) = {budget} budget (§3.2.1)"
        )

    # hierarchical: cut evaluations per tree node, both backends (§3.3)
    A = np.random.default_rng(5).integers(1, 50, (32, 32))
    for backend in ("reference", "numpy"):
        with use_perf_backend(backend), op_counters() as ops:
            partition_2d(A, 16, "HIER-RB")
        if ops["cut_calls"] != 2 * 15:
            bad(
                f"HIER-RB m=16 (backend={backend}) made {ops['cut_calls']} cut "
                f"searches; power-of-two m must make exactly 2(m-1) = 30 (§3.3)"
            )
        with use_perf_backend(backend), op_counters() as ops:
            partition_2d(A, 13, "HIER-RB")
        if not 12 <= ops["cut_calls"] <= 4 * 12:
            bad(
                f"HIER-RB m=13 (backend={backend}) made {ops['cut_calls']} cut "
                f"searches, outside the [m-1, 4(m-1)] = [12, 48] budget (§3.3)"
            )
        with use_perf_backend(backend), op_counters() as ops:
            partition_2d(A, 9, "HIER-RELAXED")
        if not 8 <= ops["cut_calls"] <= 2 * 8:
            bad(
                f"HIER-RELAXED m=9 (backend={backend}) made {ops['cut_calls']} cut "
                f"searches, outside the [m-1, 2(m-1)] = [8, 16] budget (§3.3)"
            )

    # kernel registry (repro.perf.kernels, numpy backend pinned — the round
    # structure below is the *vectorized* contract; other backends trade it
    # for per-candidate walks): the batched probe advances every candidate
    # through one chained searchsorted per lockstep round, so a call costs
    # one probe_batch_calls bump and at most m searchsorted rounds
    from ..perf.kernels import min_parts_batch, probe_batch

    P = prefix_of(np.random.default_rng(29).integers(1, 100, 400))
    total = int(P[-1])
    m = 24
    Bs = np.linspace(total // (2 * m), 2 * total // m, 64).astype(np.int64)
    with use_perf_backend("numpy"):
        with op_counters() as ops:
            probe_batch(P, m, Bs)
        if ops["probe_batch_calls"] != 1 or ops["searchsorted_calls"] > m:
            bad(
                f"probe_batch(m={m}, K=64) made {ops['probe_batch_calls']} batch "
                f"call(s) and {ops['searchsorted_calls']} lockstep rounds; the "
                f"budget is 1 call of at most m={m} rounds"
            )
        # early-exit contract: candidates that die or finish in round one must
        # cost exactly one round, however large m is (every cell is positive,
        # so B=0 kills every candidate immediately)
        with op_counters() as ops:
            probe_batch(P, 512, np.zeros(64, dtype=np.int64))
        if ops["searchsorted_calls"] > 1:
            bad(
                f"probe_batch early exit ran {ops['searchsorted_calls']} lockstep "
                f"rounds on all-stuck candidates; must stop after 1"
            )
        # min_parts: one batched jump-table search, then exactly `parts` steps
        B = 8 * total // 400
        with op_counters() as ops:
            parts = min_parts_batch(P, B)
        if ops["searchsorted_calls"] != 1 or ops["probe_steps"] != parts:
            bad(
                f"min_parts_batch walked {ops['probe_steps']} steps over "
                f"{ops['searchsorted_calls']} searchsorted call(s) for {parts} "
                f"parts; the budget is exactly one batched search and parts steps"
            )
    return out


class ComplexityBudgetRule(ProjectRule):
    """RPL006 — the paper's complexity bounds hold as measured op budgets.

    Runs only when the linted tree contains ``oned/probe.py`` (i.e. the
    repro source tree itself, not an arbitrary file set); re-measures the
    probe/bisection/JAG-M-HEUR/hierarchical budgets of :func:`check_budgets`
    on seeded instances and reports each overshoot as a violation anchored
    on the probe module.
    """

    code = "RPL006"
    name = "complexity-budget"
    rationale = (
        "op counts on seeded reference instances must stay within the "
        "paper's complexity budgets (probe <= m steps, bisection O(log "
        "range), JAG-M-HEUR O(n + m log n), hierarchical cut budgets)"
    )

    def check_project(self, files: Sequence[FileContext]) -> Iterator[Violation]:
        probe_ctx = next(
            (
                ctx
                for ctx in files
                if ctx.path.as_posix().endswith("repro/oned/probe.py")
            ),
            None,
        )
        if probe_ctx is None:
            return
        yield from check_budgets(probe_ctx.rel)


#: ``O(...)`` complexity claims, one paren nesting level deep — enough for
#: every claim in the tree (``O(m log max(n1, n2))``)
_CLAIM_RE = re.compile(r"O\((?:[^()]|\([^()]*\))*\)")


def _normalize_claim(claim: str) -> str:
    """Canonical form of one ``O(...)`` claim for cross-document comparison.

    Lowercases, drops backticks/whitespace and multiplication dots/stars
    (``O(n·m)`` == ``O(n*m)`` == ``O(nm)``), and rewrites superscripts to
    carets (``m²`` == ``m^2``) — cosmetic typography must not count as a
    mismatch, while any real difference (another variable, another factor)
    still does.
    """
    out = claim.lower().replace("`", "")
    for ch in ("·", "×", "*", " ", "\t", "\n"):
        out = out.replace(ch, "")
    return out.replace("²", "^2").replace("³", "^3")


def check_claims(
    algorithms: dict[str, Callable[..., Any]],
    docs_text: str,
    anchor_path: str = "src/repro/core/registry.py",
    anchor_line: int = 1,
) -> list[Violation]:
    """RPL008 core check, factored out so tests can run it on fake registries.

    Every ``O(...)`` claim in the docstrings reachable from the registry —
    each entry's unwrapped implementation and its defining module — must
    appear (normalized) in ``docs/algorithms.md``.  A claim the catalogue
    does not carry is either stale code documentation or a catalogue gap;
    both drift silently without this check.
    """
    import sys

    doc_claims = {_normalize_claim(c) for c in _CLAIM_RE.findall(docs_text)}
    out: list[Violation] = []
    seen: set[tuple[str, str]] = set()
    for name in sorted(algorithms):
        fn = algorithms[name]
        if not callable(fn):
            continue  # RPL004's finding, not ours
        target = inspect.unwrap(fn)
        module = sys.modules.get(getattr(target, "__module__", ""))
        sources = [
            (getattr(target, "__module__", "?"), inspect.getdoc(module) or ""),
            (
                f"{getattr(target, '__module__', '?')}."
                f"{getattr(target, '__qualname__', '?')}",
                inspect.getdoc(target) or "",
            ),
        ]
        for src, doc in sources:
            for claim in _CLAIM_RE.findall(doc):
                key = (src, _normalize_claim(claim))
                if key in seen:
                    continue
                seen.add(key)
                if key[1] not in doc_claims:
                    out.append(
                        Violation(
                            path=anchor_path,
                            line=anchor_line,
                            col=1,
                            rule="RPL008",
                            message=(
                                f"complexity claim {claim!r} in the docstring "
                                f"of {src} does not appear in "
                                "docs/algorithms.md (normalized "
                                f"{key[1]!r})"
                            ),
                        )
                    )
    return out


class ComplexityClaimRule(ProjectRule):
    """RPL008 — docstring complexity claims stay in sync with the catalogue.

    ``docs/algorithms.md`` is the source of truth for the complexity of
    every algorithm; module and function docstrings repeat those bounds
    next to the code.  This rule walks the registry (unwrapping shims like
    RPL004/RPL007 do), extracts every ``O(...)`` claim from the reachable
    docstrings, and reports claims the catalogue does not carry.  Like the
    other registry rules it runs only when the linted tree contains
    ``core/registry.py`` and skips quietly when ``docs/algorithms.md``
    cannot be located.
    """

    code = "RPL008"
    name = "complexity-claims"
    rationale = (
        "every O(...) claim in a registry-reachable docstring must appear "
        "in docs/algorithms.md, so code comments and the catalogue cannot "
        "drift apart"
    )

    def check_project(self, files: Sequence[FileContext]) -> Iterator[Violation]:
        registry_ctx = next(
            (
                ctx
                for ctx in files
                if ctx.path.as_posix().endswith("repro/core/registry.py")
            ),
            None,
        )
        if registry_ctx is None:
            return
        docs_text = RegistryRule._find_docs(registry_ctx.path)
        if docs_text is None:
            return
        from ..core.registry import ALGORITHMS

        yield from check_claims(ALGORITHMS, docs_text, registry_ctx.rel)


#: per-file rules, in code order
ALL_RULES: list[Rule] = [
    PrefixSumRule(),
    HalfOpenRule(),
    IntegerLoadRule(),
    NoInputMutationRule(),
    DeterminismRule(),
    ResourceLifecycleRule(),
]

#: whole-project rules
ALL_PROJECT_RULES: list[ProjectRule] = [
    RegistryRule(),
    ComplexityBudgetRule(),
    ExperimentsCoverageRule(),
    ComplexityClaimRule(),
    DispatchTwinRule(),
    ConfigRegistryRule(),
]
