"""The contract ruleset: RPL010 and RPL011.

The accelerated paths (numpy kernels, sparse substrate, sweep/store) sit
over the reference solvers under a **bit-identical-to-reference**
contract, enforced dynamically by the differential matrix
(``tests/test_backend_equality.py``).  These rules catch, at lint time,
what a lucky test run could miss, using the intraprocedural dataflow
framework (:mod:`.dataflow`):

* **RPL010** — in bit-identity modules, no result follows the iteration
  order of a set or of an identity-keyed container;
* **RPL011** — environment reads go through declared config modules and
  read names registered in the live :data:`repro.config.ENV_VARS`.

Both are per-file rules; that every declared name is documented under
``docs/`` is a test (``tests/test_lint.py``), not a rule.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..config import ENV_VARS
from .dataflow import FunctionFlow, terminal_names, walk_scope
from .engine import HOT_PACKAGES, FileContext, Rule, Violation

__all__ = [
    "CONTRACT_PACKAGES",
    "DeterminismRule",
    "ConfigRegistryRule",
]

#: packages whose modules participate in the bit-identity contract
CONTRACT_PACKAGES = HOT_PACKAGES | {"sweep", "core"}


# ---------------------------------------------------------------------------
# RPL010 — determinism in bit-identity modules
# ---------------------------------------------------------------------------

_SET_CTORS = frozenset({"set", "frozenset"})
_SEQ_WRAPPERS = frozenset({"list", "tuple", "iter", "reversed", "enumerate"})
_DICT_VIEWS = frozenset({"values", "keys", "items"})


def _is_id_call(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "id"
    )


def _is_set_expr(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in _SET_CTORS
        and bool(expr.args)  # bare set() is an empty accumulator, not a source
    )


class DeterminismRule(Rule):
    """RPL010 — no hash-order iteration into results in bit-identity modules.

    The equality tests compare two runs *within one process*, where hash
    seeds and allocation patterns agree; a result that follows the
    iteration order of a set, or of a container keyed by ``id()``, can
    agree on a lucky run and diverge across processes or interpreter
    invocations.  This rule flags such iterations statically, in the
    packages carrying the contract.
    """

    code = "RPL010"
    name = "determinism"
    rationale = (
        "bit-identity modules must not let set or identity-keyed iteration "
        "order reach their outputs"
    )
    scope = CONTRACT_PACKAGES

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        id_keyed = self._id_keyed_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node, id_keyed)

    # -- building blocks ------------------------------------------------

    def _id_keyed_names(self, tree: ast.AST) -> set[str]:
        """Container names subscripted / ``.get``-ed with ``id()``-derived keys."""
        out: set[str] = set()
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            flow = FunctionFlow(fn)
            idt = flow.tainted(seed=_is_id_call)

            def keyed(expr: ast.expr) -> bool:
                return _is_id_call(expr) or bool(terminal_names(expr) & idt)

            for node in walk_scope(fn):
                if isinstance(node, ast.Subscript) and keyed(node.slice):
                    out |= terminal_names(node.value)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "setdefault", "pop")
                    and node.args
                    and keyed(node.args[0])
                ):
                    out |= terminal_names(node.func.value)
        return out

    def _check_function(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        id_keyed: set[str],
    ) -> Iterator[Violation]:
        flow = FunctionFlow(fn)
        set_names = flow.tainted(seed=_is_set_expr)

        def unordered(expr: ast.expr) -> bool:
            if _is_set_expr(expr):
                return True
            if isinstance(expr, ast.Name) and expr.id in set_names:
                return True
            if (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in _SEQ_WRAPPERS
                and expr.args
            ):
                return unordered(expr.args[0])
            return False

        def id_keyed_view(expr: ast.expr) -> bool:
            e = expr
            while (
                isinstance(e, ast.Call)
                and isinstance(e.func, ast.Name)
                and e.func.id in _SEQ_WRAPPERS
                and e.args
            ):
                e = e.args[0]
            if isinstance(e, ast.Name) and e.id in id_keyed:
                return True
            return (
                isinstance(e, ast.Call)
                and isinstance(e.func, ast.Attribute)
                and e.func.attr in _DICT_VIEWS
                and bool(terminal_names(e.func.value) & id_keyed)
            )

        # unordered iteration (set order, or an identity-keyed container's
        # allocation order) whose results reach the return value
        for node in walk_scope(fn):
            it: ast.expr | None = None
            target: ast.AST | None = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                it, target = node.iter, node.target
            elif isinstance(node, ast.comprehension):
                it, target = node.iter, node.target
            if it is None or target is None:
                continue
            if unordered(it):
                message = (
                    "iteration order of a set reaches the return value; "
                    "sort (or otherwise canonicalize) before iterating"
                )
            elif id_keyed_view(it):
                message = (
                    "iteration over an identity-keyed container reaches the "
                    "return value; results would follow object allocation order"
                )
            else:
                continue
            tainted = flow.tainted(seed_names=terminal_names(target))
            if flow.first_tainted_return(tainted) is not None:
                yield self.violation(
                    ctx, node if hasattr(node, "lineno") else it, message
                )


# ---------------------------------------------------------------------------
# RPL011 — environment-variable config registry
# ---------------------------------------------------------------------------

#: ``os.environ`` methods whose first argument names the variable read
_KEYED_METHODS = frozenset({"get", "setdefault", "pop"})


def _is_environ_load(node: ast.AST) -> bool:
    """A load of ``os.environ`` / ``environ``."""
    named = (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )
    return named and isinstance(getattr(node, "ctx", None), ast.Load)


def _literal(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _env_read_sites(tree: ast.AST) -> Iterator[tuple[ast.AST, str | None]]:
    """``(node, variable-name literal or None)`` for every environment read.

    Every load of ``os.environ`` is a read — a subscript, ``.get``,
    ``.setdefault``, ``.pop``, an ``in`` test, ``.copy()``, ``dict(...)`` —
    except the target of an ``os.environ[...] = v`` write or a ``del``;
    ``os.getenv(...)`` calls are reads too.
    """
    parents = {id(c): p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "getenv") or (
                isinstance(f, ast.Name) and f.id == "getenv"
            ):
                yield node, _literal(node.args[0]) if node.args else None
        if not _is_environ_load(node):
            continue
        parent = parents.get(id(node))
        if isinstance(parent, ast.Subscript) and parent.value is node:
            if isinstance(parent.ctx, ast.Load):
                yield parent, _literal(parent.slice)
        elif isinstance(parent, ast.Compare):
            yield node, _literal(parent.left)
        elif isinstance(parent, ast.Attribute) and parent.attr in _KEYED_METHODS:
            call = parents.get(id(parent))
            args = call.args if isinstance(call, ast.Call) else []
            yield node, _literal(args[0]) if args else None
        else:
            yield node, None


class ConfigRegistryRule(Rule):
    """RPL011 — env reads go through config modules and declared names.

    Checks one file against the live :data:`repro.config.ENV_VARS`.
    """

    code = "RPL011"
    name = "config-registry"
    rationale = (
        "every os.environ read must live in a declared config module and "
        "read a name registered in repro/config.py ENV_VARS"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        allowed = Path(ctx.rel).name == "config.py"
        for node, name in _env_read_sites(ctx.tree):
            if not allowed:
                yield self.violation(
                    ctx,
                    node,
                    "environment read outside a declared config module; "
                    "route it through repro.config (or a */config.py)",
                )
            if name is None:
                yield self.violation(
                    ctx,
                    node,
                    "environment read with a non-literal (or no) variable name "
                    "cannot be checked against ENV_VARS",
                )
            elif name not in ENV_VARS:
                yield self.violation(
                    ctx,
                    node,
                    f"environment variable {name!r} is read but not declared in "
                    "ENV_VARS (repro/config.py)",
                )
            if isinstance(node, ast.Subscript):
                # os.environ[...] reads (even in config modules) bypass defaults
                yield self.violation(
                    ctx,
                    node,
                    "`os.environ[...]` read raises on absence and has no "
                    "default; use `.get(name, default)`",
                )
