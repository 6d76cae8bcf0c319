"""The contract ruleset: RPL010 and RPL011.

The accelerated paths (numpy kernels, sparse substrate, sweep/store) sit
over the reference solvers under a **bit-identical-to-reference**
contract, enforced dynamically by the differential matrix
(``tests/test_backend_equality.py``).  These rules catch, at lint time,
what a lucky test run could miss, using the intraprocedural dataflow
framework (:mod:`.dataflow`):

* **RPL010** — bit-identity modules carry no nondeterminism source
  (unordered iteration into results, ``id()`` escapes, entropy and
  wall-clock calls);
* **RPL011** — environment reads go through declared config modules, are
  registered in ``repro/config.py`` and documented under ``docs/``.

RPL011's core checker is a plain function over parsed
:class:`~.engine.FileContext` trees so the tests can run it on synthetic
projects; the registered ProjectRule wires it to the real tree (locating
``docs/`` the way RPL004 does).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .dataflow import FunctionFlow, terminal_names, walk_scope
from .engine import HOT_PACKAGES, FileContext, ProjectRule, Rule, Violation

__all__ = [
    "CONTRACT_PACKAGES",
    "DeterminismRule",
    "ConfigRegistryRule",
    "check_env_reads",
]

#: packages whose modules participate in the bit-identity contract
CONTRACT_PACKAGES = HOT_PACKAGES | {"sweep", "core"}


# ---------------------------------------------------------------------------
# RPL010 — determinism in bit-identity modules
# ---------------------------------------------------------------------------

_ENTROPY_MODULES = frozenset({"random", "secrets", "uuid"})
_TIME_CALLS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
     "process_time", "process_time_ns", "now", "utcnow"}
)
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
    """RPL010 — no nondeterminism sources in bit-identity modules.

    The equality tests compare two runs *within one process*; hash-order
    iteration, ``id()`` escapes and entropy calls can agree on a lucky run
    and diverge across processes or interpreter invocations.  This rule
    flags the sources statically, in the packages carrying the contract.
    """

    code = "RPL010"
    name = "determinism"
    rationale = (
        "bit-identity modules must not let set/hash iteration order, id() "
        "values, entropy or wall-clock reads reach their outputs"
    )
    scope = CONTRACT_PACKAGES

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        id_keyed = self._id_keyed_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node, id_keyed)
            elif isinstance(node, ast.ImportFrom) and node.module in _ENTROPY_MODULES:
                yield self.violation(
                    ctx, node, f"import from entropy module `{node.module}` in a bit-identity module"
                )
        # module-scope entropy patterns (rare but possible)
        yield from self._check_calls(ctx, ctx.tree, id_keyed)

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

        # 1. unordered iteration (set order, or an identity-keyed container's
        #    allocation order) whose results reach the return value
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
            seeds = {n for n in terminal_names(target)}
            tainted = flow.tainted(seed_names=seeds)
            if flow.first_tainted_return(tainted) is not None:
                yield self.violation(
                    ctx, node if hasattr(node, "lineno") else it, message
                )

        # 2. id() value escaping through the return value (lookups by an
        #    id-derived key are laundered: the value found is not the id)
        id_tainted = flow.tainted(seed=_is_id_call, launder_lookups=True)
        escape = flow.first_tainted_return(
            id_tainted, seed=_is_id_call, launder_lookups=True
        )
        if escape is not None:
            yield self.violation(
                ctx,
                escape,
                "id()-derived value escapes through the return value; object "
                "identity differs across runs and processes",
            )

        yield from self._check_calls(ctx, fn, id_keyed)

    def _check_calls(
        self, ctx: FileContext, root: ast.AST, id_keyed: set[str]
    ) -> Iterator[Violation]:
        direct = root if isinstance(root, ast.Module) else None
        nodes = (
            [n for n in ast.iter_child_nodes(direct)] if direct is not None else list(walk_scope(root))
        )
        seen: set[int] = set()
        stack = nodes
        while stack:
            node = stack.pop()
            if direct is not None:
                # module scope: don't re-descend into functions (handled above)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call) or id(node) in seen:
                continue
            seen.add(id(node))
            f = node.func
            if isinstance(f, ast.Attribute):
                base = f.value
                root_name = base.id if isinstance(base, ast.Name) else None
                if root_name in _ENTROPY_MODULES:
                    yield self.violation(
                        ctx, node, f"entropy call `{root_name}.{f.attr}(...)` in a bit-identity module"
                    )
                elif root_name == "time" and f.attr in _TIME_CALLS:
                    yield self.violation(
                        ctx, node, f"wall-clock call `time.{f.attr}()` in a bit-identity module"
                    )
                elif (
                    isinstance(base, ast.Attribute)
                    and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in ("np", "numpy")
                ):
                    yield self.violation(
                        ctx, node, f"`np.random.{f.attr}(...)` in a bit-identity module"
                    )
            elif isinstance(f, ast.Name):
                if f.id == "default_rng" and not node.args:
                    yield self.violation(
                        ctx, node, "`default_rng()` without a seed in a bit-identity module"
                    )


# ---------------------------------------------------------------------------
# RPL011 — environment-variable config registry
# ---------------------------------------------------------------------------

#: modules allowed to read ``os.environ`` directly: any ``config.py``
_CONFIG_MODULE_SUFFIXES = ("/config.py",)


def _env_read_sites(tree: ast.AST) -> Iterator[tuple[ast.AST, str | None]]:
    """``(node, var name literal or None)`` for every environment *read*."""

    def env_base(expr: ast.expr) -> bool:
        # os.environ / environ
        if isinstance(expr, ast.Attribute) and expr.attr == "environ":
            return True
        return isinstance(expr, ast.Name) and expr.id == "environ"

    def literal(args: list[ast.expr]) -> str | None:
        if args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
            return args[0].value
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and env_base(node.value):
            if isinstance(node.ctx, ast.Load):
                name = None
                if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
                    name = node.slice.value
                yield node, name
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "get" and env_base(f.value):
                yield node, literal(node.args)
            elif isinstance(f, ast.Attribute) and f.attr == "getenv":
                yield node, literal(node.args)
            elif isinstance(f, ast.Name) and f.id == "getenv":
                yield node, literal(node.args)


def check_env_reads(
    files: Sequence[FileContext],
    *,
    declared: Mapping[str, str] | None,
    registry_rel: str | None,
    docs_text: str | None,
) -> list[Violation]:
    """RPL011 core check.

    ``declared`` maps registered env-var names to their documented defaults
    (parsed from ``repro/config.py``); ``None`` skips the declaration and
    docs checks (partial file sets).
    """
    out: list[Violation] = []
    read_names: set[str] = set()
    for ctx in files:
        allowed = any(ctx.rel.endswith(suffix) for suffix in _CONFIG_MODULE_SUFFIXES)
        for node, name in _env_read_sites(ctx.tree):
            if name is not None:
                read_names.add(name)
            lineno = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0) + 1
            if not allowed:
                out.append(
                    Violation(
                        path=ctx.rel,
                        line=lineno,
                        col=col,
                        rule="RPL011",
                        message=(
                            "environment read outside a declared config module; "
                            "route it through repro.config (or a */config.py)"
                        ),
                    )
                )
            if name is None:
                out.append(
                    Violation(
                        path=ctx.rel,
                        line=lineno,
                        col=col,
                        rule="RPL011",
                        message=(
                            "environment read with a non-literal variable name "
                            "cannot be registered or documented"
                        ),
                    )
                )
        # os.environ[...] reads (even in config modules) bypass defaults
        for node, _name in _env_read_sites(ctx.tree):
            if isinstance(node, ast.Subscript):
                out.append(
                    Violation(
                        path=ctx.rel,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule="RPL011",
                        message=(
                            "`os.environ[...]` read raises on absence and has no "
                            "default; use `.get(name, default)`"
                        ),
                    )
                )
    if declared is None or registry_rel is None:
        return out
    anchor = registry_rel
    for name in sorted(read_names - set(declared)):
        out.append(
            Violation(
                path=anchor,
                line=1,
                col=1,
                rule="RPL011",
                message=(
                    f"environment variable {name!r} is read but not declared in "
                    "ENV_VARS (repro/config.py)"
                ),
            )
        )
    if docs_text is not None:
        for name in sorted(set(declared)):
            if name not in docs_text:
                out.append(
                    Violation(
                        path=anchor,
                        line=1,
                        col=1,
                        rule="RPL011",
                        message=(
                            f"declared environment variable {name!r} is not "
                            "documented anywhere under docs/"
                        ),
                    )
                )
    return out


class ConfigRegistryRule(ProjectRule):
    """RPL011 — env reads go through declared, documented config modules."""

    code = "RPL011"
    name = "config-registry"
    rationale = (
        "every os.environ read must live in a declared config module, be "
        "registered in repro/config.py ENV_VARS with a default, and be "
        "documented under docs/"
    )

    def check_project(self, files: Sequence[FileContext]) -> Iterator[Violation]:
        registry_ctx = next(
            (c for c in files if c.path.as_posix().endswith("repro/config.py")), None
        )
        declared: dict[str, str] | None = None
        registry_rel: str | None = None
        docs_text: str | None = None
        if registry_ctx is not None:
            registry_rel = registry_ctx.rel
            declared = self._parse_declared(registry_ctx.tree)
            docs_text = self._all_docs_text(registry_ctx.path)
        yield from check_env_reads(
            files, declared=declared, registry_rel=registry_rel, docs_text=docs_text
        )

    @staticmethod
    def _parse_declared(tree: ast.AST) -> dict[str, str]:
        """Keys (and rendered defaults) of the ``ENV_VARS`` dict literal."""
        out: dict[str, str] = {}
        for node in ast.walk(tree):
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                value = node.value
            else:
                continue
            if (
                isinstance(target, ast.Name)
                and target.id == "ENV_VARS"
                and isinstance(value, ast.Dict)
            ):
                for k, v in zip(value.keys, value.values):
                    if isinstance(k, ast.Constant) and isinstance(k.value, str):
                        out[k.value] = ast.unparse(v) if v is not None else ""
        return out

    @staticmethod
    def _all_docs_text(config_path: Path) -> str | None:
        node = config_path.resolve().parent
        for _ in range(6):
            docs = node / "docs"
            if docs.is_dir():
                return "\n".join(
                    p.read_text(encoding="utf-8") for p in sorted(docs.glob("*.md"))
                )
            if node.parent == node:
                break
            node = node.parent
        return None
