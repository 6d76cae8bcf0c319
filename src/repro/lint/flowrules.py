"""The dispatch-contract ruleset: RPL009–RPL012.

The accelerated dispatch paths (sparse substrate, sweep/store) sit over the
reference solvers under a **bit-identical-to-reference** contract,
enforced dynamically by the differential matrix.  These rules
make the contract machine-checked at lint time, on top of the project graph
(:mod:`.graph`) and the intraprocedural dataflow framework
(:mod:`.dataflow`):

* **RPL009** — every guarded fast path has a reachable reference twin, and
  the dispatching function is reachable from the differential matrix;
* **RPL010** — bit-identity modules carry no nondeterminism source a lucky
  test run could miss (unordered iteration into results, ``id()`` escapes,
  entropy calls, unordered pool consumption);
* **RPL011** — environment reads go through declared config modules, are
  registered in ``repro/config.py`` and documented under ``docs/``;
* **RPL012** — process pools are spawned inside a ``with`` block (or in a
  module with an atexit-registered shutdown).

Each rule's core checker is a plain function over parsed
:class:`~.engine.FileContext` trees so the tests can run them on synthetic
projects; the registered Rule/ProjectRule classes wire them to the real
tree (locating ``tests/`` and the algorithm registry the way RPL004 locates
``docs/``).
"""

from __future__ import annotations

import ast
import fnmatch
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .dataflow import FunctionFlow, terminal_names, walk_scope
from .engine import HOT_PACKAGES, FileContext, ProjectRule, Rule, Violation
from .graph import FunctionInfo, ProjectGraph, module_name

__all__ = [
    "CONTRACT_PACKAGES",
    "EQUALITY_TEST_PATTERNS",
    "DispatchTwinRule",
    "DeterminismRule",
    "ConfigRegistryRule",
    "ResourceLifecycleRule",
    "check_dispatch_twins",
    "check_env_reads",
    "find_equality_test_files",
]

#: packages whose modules participate in the bit-identity contract
CONTRACT_PACKAGES = HOT_PACKAGES | {"sweep", "core"}

#: test files whose passing is the dynamic half of the contract: the
#: differential matrix (backend × substrate × sweep temperature)
EQUALITY_TEST_PATTERNS = ("test_backend_equality.py",)

#: boolean switches that guard a fast path against its reference twin
GUARD_NAMES = frozenset({"sweep_active", "sparse_enabled"})

#: dotted-target suffixes that denote the sweep-state accessor
_SWEEP_CURRENT_SUFFIXES = ("sweep.state.current", "sweep.current")


# ---------------------------------------------------------------------------
# RPL009 — dispatch-twin contract
# ---------------------------------------------------------------------------


def _callee_names(graph: ProjectGraph, mod: str, call: ast.Call) -> tuple[str, str]:
    """``(bare name, import-resolved dotted target)`` of a call's callee."""
    f = call.func
    bare = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
    minfo = graph.modules.get(mod)
    resolved = ""
    if isinstance(f, ast.Name) and minfo is not None:
        resolved = minfo.imports.get(f.id, "")
    elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and minfo is not None:
        base = minfo.imports.get(f.value.id)
        if base is not None:
            resolved = f"{base}.{f.attr}"
    return bare, resolved


def _is_guard_call(graph: ProjectGraph, mod: str, expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    bare, resolved = _callee_names(graph, mod, expr)
    if bare in GUARD_NAMES or resolved.rsplit(".", 1)[-1] in GUARD_NAMES:
        return True
    return any(resolved.endswith(s) for s in _SWEEP_CURRENT_SUFFIXES)


def _statement_lists(fn: ast.AST) -> Iterator[list[ast.stmt]]:
    """Every statement list in ``fn`` (bodies, else/elif arms, handlers)."""
    for node in walk_scope(fn):
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(node, attr, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block


def _build_parents(fn: ast.AST) -> dict[int, tuple[ast.AST, list[ast.stmt], int]]:
    """``id(stmt) -> (container node, containing block, index)`` within ``fn``."""
    parents: dict[int, tuple[ast.AST, list[ast.stmt], int]] = {}
    for node in walk_scope(fn):
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(node, attr, None)
            if isinstance(block, list):
                for idx, stmt in enumerate(block):
                    if isinstance(stmt, ast.stmt):
                        parents[id(stmt)] = (node, block, idx)
    return parents


def _falls_off_end(
    fn: ast.AST,
    stmt: ast.stmt,
    parents: dict[int, tuple[ast.AST, list[ast.stmt], int]],
) -> bool:
    """True when the false edge of ``stmt`` reaches the function end directly.

    Walks the parent chain looking for a following sibling statement at any
    level; loop containers count as having a successor (the back edge runs
    the reference path on the next iteration).
    """
    handler_exit: dict[int, ast.AST] = {}
    for node in walk_scope(fn):
        if isinstance(node, ast.Try):
            for h in node.handlers:
                handler_exit[id(h)] = node
    cur: ast.AST = stmt
    while cur is not fn:
        entry = parents.get(id(cur))
        if entry is None:
            nxt = handler_exit.get(id(cur))
            if nxt is None:
                return True
            cur = nxt
            continue
        container, block, idx = entry
        if idx < len(block) - 1:
            return False
        if isinstance(container, (ast.For, ast.AsyncFor, ast.While)):
            return False
        cur = container
    return True


def _single_call_return(block: list[ast.stmt]) -> ast.Call | None:
    if len(block) == 1 and isinstance(block[0], ast.Return):
        val = block[0].value
        if isinstance(val, ast.Call):
            return val
    return None


def _twin_arities(
    graph: ProjectGraph, mod: str, site: ast.If
) -> tuple[FunctionInfo, FunctionInfo] | None:
    """The (fast, reference) twin functions when both branches are bare calls."""
    fast_call = _single_call_return(site.body)
    ref_call = _single_call_return(site.orelse)
    if fast_call is None or ref_call is None:
        return None

    def lookup(call: ast.Call) -> FunctionInfo | None:
        bare, resolved = _callee_names(graph, mod, call)
        keys = graph.resolve_target(resolved) if resolved else set()
        if not keys:
            keys = {k for k in graph.by_name.get(bare, set())}
        local = f"{mod}.{bare}"
        if local in graph.functions:
            keys = {local}
        if len(keys) == 1:
            return graph.functions[next(iter(keys))]
        return None

    fast = lookup(fast_call)
    ref = lookup(ref_call)
    if fast is None or ref is None or fast.key == ref.key:
        return None
    return fast, ref


def check_dispatch_twins(
    src_contexts: Sequence[FileContext],
    test_contexts: Sequence[FileContext],
    *,
    registry_names: Mapping[str, set[str]] | None = None,
) -> list[Violation]:
    """RPL009 core check over parsed source + equality-test trees.

    ``registry_names`` maps registry key strings (``"JAG-M-HEUR"``) to the
    bare names of their implementation chain, bridging the string-keyed
    ``partition_2d`` dispatch the equality tests use.  A test file that names
    ``ALGORITHMS`` itself (iterating the registry) mentions every key.
    """
    out: list[Violation] = []
    graph = ProjectGraph.build([*src_contexts, *test_contexts])
    test_paths = {ctx.rel for ctx in test_contexts}

    # roots: every function defined in an equality test file, whatever
    # their module-level tables reference, plus the registry implementations
    # those files name as strings or reach by iterating the registry
    roots = {f.key for f in graph.functions.values() if f.path in test_paths}
    for ctx in test_contexts:
        roots |= graph.module_edges.get(module_name(ctx.rel), set())
    if registry_names:
        mentioned: set[str] = set()
        for ctx in test_contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    mentioned.add(node.value)
                elif isinstance(node, ast.Name) and node.id == "ALGORITHMS":
                    mentioned.update(registry_names)
        for key, impl_names in registry_names.items():
            if key in mentioned:
                for bare in impl_names:
                    roots |= graph.by_name.get(bare, set())
    reachable = graph.reachable_from(roots)

    for ctx in src_contexts:
        mod = module_name(ctx.rel)
        for fn in graph.functions_in(ctx.rel):
            flow = FunctionFlow(fn.node)

            def guard_seed(e: ast.expr, _m: str = mod) -> bool:
                return _is_guard_call(graph, _m, e)

            guard_vars = flow.tainted(seed=guard_seed)
            parents = _build_parents(fn.node)
            has_site = False

            # --- branch sites: `if sparse_enabled():` / `if fast:` -------
            for block in _statement_lists(fn.node):
                for stmt in block:
                    if not isinstance(stmt, ast.If):
                        continue
                    test_names = terminal_names(stmt.test)
                    is_site = bool(test_names & guard_vars) or any(
                        _is_guard_call(graph, mod, sub)
                        for sub in ast.walk(stmt.test)
                        if isinstance(sub, ast.Call)
                    )
                    if not is_site:
                        continue
                    has_site = True
                    fast_returns = bool(stmt.body) and isinstance(
                        stmt.body[-1], ast.Return
                    )
                    if (
                        not stmt.orelse
                        and fast_returns
                        and _falls_off_end(fn.node, stmt, parents)
                    ):
                        out.append(
                            Violation(
                                path=ctx.rel,
                                line=stmt.lineno,
                                col=stmt.col_offset + 1,
                                rule="RPL009",
                                message=(
                                    f"guarded fast path in `{fn.qualname}` has no "
                                    "reference twin: the dispatch `if` has no else "
                                    "branch and no fall-through code"
                                ),
                            )
                        )
                        continue
                    twins = _twin_arities(graph, mod, stmt)
                    if twins is not None and twins[0].arity != twins[1].arity:
                        fast, ref = twins
                        out.append(
                            Violation(
                                path=ctx.rel,
                                line=stmt.lineno,
                                col=stmt.col_offset + 1,
                                rule="RPL009",
                                message=(
                                    f"dispatch twins `{fast.name}` {fast.arity} and "
                                    f"`{ref.name}` {ref.arity} have incompatible "
                                    "positional signatures"
                                ),
                            )
                        )

            # --- test reachability --------------------------------------
            if has_site and fn.key not in reachable:
                out.append(
                    Violation(
                        path=ctx.rel,
                        line=fn.lineno,
                        col=fn.node.col_offset + 1,
                        rule="RPL009",
                        message=(
                            f"dispatch function `{fn.qualname}` is not reachable "
                            "from the differential matrix "
                            "(tests/test_backend_equality.py) — the bit-identity "
                            "contract on its fast path is unenforced"
                        ),
                    )
                )
    return out


def find_equality_test_files(src_root: Path) -> list[Path]:
    """Locate the equality test files for a linted source tree.

    Walks up from ``src_root`` looking for a sibling ``tests`` directory
    (the same strategy RPL004 uses to locate ``docs/``).
    """
    node = src_root.resolve()
    for _ in range(6):
        tests = node / "tests"
        if tests.is_dir():
            return sorted(
                p
                for p in tests.glob("test_*.py")
                if any(fnmatch.fnmatch(p.name, pat) for pat in EQUALITY_TEST_PATTERNS)
            )
        if node.parent == node:
            break
        node = node.parent
    return []


class DispatchTwinRule(ProjectRule):
    """RPL009 — guarded fast paths have twins and equality-test coverage.

    Runs only when the linted tree contains ``repro/core/registry.py`` (the
    full source tree); skips quietly under ``--changed`` partial sets.
    """

    code = "RPL009"
    name = "dispatch-twin-contract"
    rationale = (
        "every sparse_enabled()/sweep fast path needs a reachable "
        "reference twin, and its function must be reachable from "
        "the differential matrix — an untested twin is an unenforced contract"
    )

    def check_project(self, files: Sequence[FileContext]) -> Iterator[Violation]:
        registry_ctx = next(
            (c for c in files if c.path.as_posix().endswith("repro/core/registry.py")),
            None,
        )
        if registry_ctx is None:
            return
        test_files = find_equality_test_files(registry_ctx.path.parent)
        test_contexts: list[FileContext] = []
        for path in test_files:
            try:
                source = path.read_text(encoding="utf-8")
                test_contexts.append(FileContext(path, path.as_posix(), source))
            except (OSError, SyntaxError, ValueError):
                continue
        registry_names: dict[str, set[str]] = {}
        try:
            from ..core.registry import ALGORITHMS

            from .rules import ExperimentsCoverageRule

            for key, fn in ALGORITHMS.items():
                if callable(fn):
                    registry_names[key] = ExperimentsCoverageRule._chain_names(fn)
        except Exception:  # pragma: no cover - registry import is best-effort
            registry_names = {}
        yield from check_dispatch_twins(
            list(files), test_contexts, registry_names=registry_names
        )


# ---------------------------------------------------------------------------
# RPL010 — determinism in bit-identity modules
# ---------------------------------------------------------------------------

_ENTROPY_MODULES = frozenset({"random", "secrets", "uuid"})
_TIME_CALLS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
     "process_time", "process_time_ns", "now", "utcnow"}
)
_UNORDERED_POOL = frozenset({"as_completed", "imap_unordered"})
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
        "values, entropy or unordered pool results reach their outputs"
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
        # module-scope entropy/pool patterns (rare but possible)
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
                elif f.attr in _UNORDERED_POOL:
                    yield self.violation(
                        ctx, node, f"unordered pool consumption `{f.attr}(...)`: completion "
                        "order varies run to run",
                    )
            elif isinstance(f, ast.Name):
                if f.id in _UNORDERED_POOL:
                    yield self.violation(
                        ctx, node, f"unordered pool consumption `{f.id}(...)`: completion "
                        "order varies run to run",
                    )
                elif f.id == "default_rng" and not node.args:
                    yield self.violation(
                        ctx, node, "`default_rng()` without a seed in a bit-identity module"
                    )


# ---------------------------------------------------------------------------
# RPL011 — environment-variable config registry
# ---------------------------------------------------------------------------

#: modules allowed to read ``os.environ`` directly: any ``config.py`` plus
#: the sweep engine (whose store path knob predates the registry)
_CONFIG_MODULE_SUFFIXES = ("/config.py", "sweep/engine.py")


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


# ---------------------------------------------------------------------------
# RPL012 — process-pool lifecycle
# ---------------------------------------------------------------------------

_POOL_CTORS = frozenset({"ProcessPoolExecutor", "Pool", "ThreadPoolExecutor"})


def _call_name(call: ast.Call) -> str:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")


class ResourceLifecycleRule(Rule):
    """RPL012 — pool spawns register their shutdown.

    Pools spawn worker processes that outlive the creating frame unless the
    executor is entered in a ``with`` block (or the module registers an
    ``atexit`` shutdown path).
    """

    code = "RPL012"
    name = "resource-lifecycle"
    rationale = "pool spawns must register shutdown (a `with` block or atexit)"
    scope = None

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if self._has_atexit_register(ctx.tree):
            return
        for fn in ast.walk(ctx.tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_pools(ctx, fn)

    @staticmethod
    def _has_atexit_register(tree: ast.AST) -> bool:
        for node in getattr(tree, "body", []):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and _call_name(node.value) == "register"
            ):
                return True
        return False

    def _check_pools(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        with_ctors = {
            id(item.context_expr)
            for node in walk_scope(fn)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
            if isinstance(item.context_expr, ast.Call)
        }
        for node in walk_scope(fn):
            if (
                isinstance(node, ast.Call)
                and _call_name(node) in _POOL_CTORS
                and id(node) not in with_ctors
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"`{_call_name(node)}` spawned outside a `with` block in a "
                    "module with no atexit-registered shutdown path",
                )
