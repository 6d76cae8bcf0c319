"""Small intraprocedural dataflow framework for the contract rules.

One :class:`FunctionFlow` models one function body as a name-level
assignment graph: which names are (re)bound from which expressions, which
containers accumulate which values, and which expressions leave the
function through ``return``/``yield``.  On top of it the rules ask taint
questions — "does any value derived from *this* kind of expression reach a
return?" — via a forward fixpoint over the graph.

The analysis is flow-insensitive (all assignments to a name merge) and
ignores control flow, which over-approximates reachability: a tainted name
is reported even if the tainting branch cannot execute.  For lint purposes
that is the right direction — suppressions carry the proof burden for the
false positives, and no real flow is missed.

Two deliberate precision choices, documented because RPL010 relies on them:

* ``x += expr`` with an arithmetic operator does **not** propagate taint
  into ``x``: the dominant idiom is order-independent scalar accumulation
  (``total += load``), and treating it as ordered flow would flag every
  reduction over a set.  List growth uses ``append``/``extend``, which do
  propagate.
* ``sorted(...)`` (and the other order-erasing builtins in
  :data:`ORDER_LAUNDERING`) stops taint: its result no longer depends on
  iteration order.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

__all__ = ["FunctionFlow", "ORDER_LAUNDERING", "terminal_names", "walk_scope"]

#: calls through which iteration order does not survive
ORDER_LAUNDERING = frozenset({"sorted", "min", "max", "sum", "len", "any", "all", "frozenset", "set"})

#: container methods that write their argument into the receiver
_ACCUMULATORS = frozenset({"append", "extend", "add", "update", "insert", "appendleft"})


def terminal_names(node: ast.AST) -> set[str]:
    """Terminal identifiers mentioned in a subtree (``Name.id`` + ``Attribute.attr``)."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def walk_scope(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn`` without descending into nested function/class definitions."""
    stack: list[ast.AST] = [fn]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if node is not fn and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


def _binding_names(target: ast.AST) -> set[str]:
    """Names bound by an assignment/loop target (tuple targets flattened).

    Only the bound name itself counts: ``self._x = v`` binds ``_x`` (not
    ``self`` — that would taint every other attribute of the object), and
    ``d[k] = v`` binds ``d`` (``k`` is read, not written).
    """
    out: set[str] = set()
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            out |= _binding_names(elt)
    elif isinstance(target, ast.Starred):
        out |= _binding_names(target.value)
    elif isinstance(target, ast.Name):
        out.add(target.id)
    elif isinstance(target, ast.Attribute):
        out.add(target.attr)  # self._x = ... binds the attribute name
    elif isinstance(target, ast.Subscript):
        out |= _binding_names(target.value)
    return out


class FunctionFlow:
    """Assignment graph + taint queries for one function body."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module):
        self.fn = fn
        #: name -> source expressions it was bound from (Assign/For/With/NamedExpr)
        self.sources: dict[str, list[ast.expr]] = {}
        #: name -> expressions accumulated into it (``x.append(e)``)
        self.accumulated: dict[str, list[ast.expr]] = {}
        self.returns: list[ast.expr] = []
        self._build()

    def _bind(self, table: dict[str, list[ast.expr]], target: ast.AST, value: ast.expr) -> None:
        for name in _binding_names(target):
            table.setdefault(name, []).append(value)

    def _build(self) -> None:
        for node in walk_scope(self.fn):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    self._bind(self.sources, tgt, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind(self.sources, node.target, node.value)
            elif isinstance(node, ast.NamedExpr):
                self._bind(self.sources, node.target, node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                self._bind(self.sources, node.target, node.iter)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        self._bind(self.sources, item.optional_vars, item.context_expr)
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in _ACCUMULATORS
                    and node.args
                ):
                    for name in _binding_names(f.value):
                        for arg in node.args:
                            self.accumulated.setdefault(name, []).append(arg)
            elif isinstance(node, ast.Return) and node.value is not None:
                self.returns.append(node.value)
            elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
                self.returns.append(node.value)

    # -- taint ----------------------------------------------------------

    def _expr_tainted(
        self,
        expr: ast.expr,
        tainted: set[str],
        seed: Callable[[ast.expr], bool] | None,
    ) -> bool:
        """Does ``expr`` (or a sub-expression) carry taint?

        A call in :data:`ORDER_LAUNDERING` stops the descent; everything
        else propagates structurally.
        """
        if isinstance(expr, ast.Call):
            f = expr.func
            fname = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if fname in ORDER_LAUNDERING:
                return False
        if seed is not None and seed(expr):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        if isinstance(expr, ast.Attribute):
            if expr.attr in tainted:
                return True
            if isinstance(expr.value, ast.Name):
                return expr.value.id in tainted
            return self._expr_tainted(expr.value, tainted, seed)
        return any(
            self._expr_tainted(child, tainted, seed)
            for child in ast.iter_child_nodes(expr)
            if isinstance(child, ast.expr)
        )

    def tainted(
        self,
        seed: Callable[[ast.expr], bool] | None = None,
        seed_names: set[str] | None = None,
    ) -> set[str]:
        """Names transitively derived from seed expressions / seed names."""
        tainted: set[str] = set(seed_names or ())
        changed = True
        while changed:
            changed = False
            for table in (self.sources, self.accumulated):
                for name, exprs in table.items():
                    if name in tainted:
                        continue
                    if any(self._expr_tainted(e, tainted, seed) for e in exprs):
                        tainted.add(name)
                        changed = True
        return tainted

    def first_tainted_return(self, tainted: set[str]) -> ast.expr | None:
        """The first return/yield expression that carries taint, or None."""
        for expr in self.returns:
            if self._expr_tainted(expr, tainted, None):
                return expr
        return None
