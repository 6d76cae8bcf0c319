"""The repro ruleset: RPL001–RPL003 (RPL010 and RPL011 live in
:mod:`.flowrules`).

Each rule encodes one invariant the paper's algorithms rely on; see
``docs/lint.md`` for the catalogue with worked examples.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .dataflow import terminal_names
from .engine import CORE_PACKAGES, HOT_PACKAGES, STALE_CODE, FileContext, Rule, Violation
from .flowrules import ConfigRegistryRule, DeterminismRule

__all__ = [
    "PrefixSumRule",
    "HalfOpenRule",
    "IntegerLoadRule",
    "DeterminismRule",
    "ConfigRegistryRule",
    "ALL_RULES",
    "KNOWN_CODES",
]


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
            if terminal_names(side) & self.LOAD_NAMES:
                return True
            for sub in ast.walk(side):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    if sub.func.attr in ("load", "sum"):
                        return True
                if isinstance(sub, ast.Attribute) and sub.attr == "total":
                    return True
        return False


#: per-file rules, in code order
ALL_RULES: list[Rule] = [
    PrefixSumRule(),
    HalfOpenRule(),
    IntegerLoadRule(),
    DeterminismRule(),
    ConfigRegistryRule(),
]

#: every code a selection or a suppression may name
KNOWN_CODES = frozenset({r.code for r in ALL_RULES} | {STALE_CODE})
