"""Project-wide import + call graph over a linted file set.

The per-file rules (RPL001–RPL005) pattern-match one AST at a time; the
dispatch-contract rules (RPL009–RPL012) need to answer *cross-file*
questions — "is this guarded fast path reachable from an equality test?" —
so this module builds the minimal project model that supports them:

* a **function table**: every module-level function and method in the file
  set, keyed ``<module>.<qualname>`` with the dotted module name derived
  from the file path (``src/repro/jagged/m_heur.py`` → ``repro.jagged.m_heur``);
* an **import map** per module: local alias → dotted target, with relative
  imports resolved against the module's package;
* a **reference graph**: an edge from function F to function G whenever F
  *mentions* G — a direct call, an aliased call through an import, a method
  call matched by bare attribute name, or a bare reference (callbacks handed
  to ``map``-style helpers count as calls).

The graph is deliberately an over-approximation: attribute calls resolve to
*every* project function sharing the bare name, and unresolvable names fall
back to bare-name matching.  For the reachability questions the rules ask
("is there *any* test exercising this dispatch function?") over-approximating
edges errs toward silence, never toward false alarms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .engine import FileContext

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectGraph", "module_name"]


def module_name(rel: str) -> str:
    """Dotted module name for a repo-relative path.

    Everything up to and including a ``src`` path component is dropped (the
    layout convention of this repo and of the synthetic trees the tests
    build); ``__init__.py`` names the package itself.
    """
    parts = rel.replace("\\", "/").split("/")
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass
class FunctionInfo:
    """One function or method in the project model."""

    module: str  #: dotted module name
    qualname: str  #: e.g. ``jag_m_heur`` or ``PrefixSum2D.axis_prefix``
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str  #: repo-relative file path
    #: (required positional params, total positional params) — ``self`` kept
    arity: tuple[int, int] = (0, 0)

    @property
    def key(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ModuleInfo:
    """Per-module import map plus the names defined at module level."""

    name: str
    path: str
    #: local alias -> dotted import target (``np`` → ``numpy``,
    #: ``_sweep_current`` → ``repro.sweep.state.current``)
    imports: dict[str, str] = field(default_factory=dict)
    #: names bound at module level (functions, classes, constants)
    toplevel: set[str] = field(default_factory=set)


def _fn_arity(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[int, int]:
    a = fn.args
    total = len(a.posonlyargs) + len(a.args)
    required = total - len(a.defaults)
    return (required, total)


def _resolve_relative(module: str, is_package: bool, level: int, target: str | None) -> str:
    """Absolute dotted target of a ``from ...x import y`` statement."""
    if level == 0:
        return target or ""
    base = module.split(".")
    if not is_package:
        base = base[:-1]
    base = base[: len(base) - (level - 1)] if level > 1 else base
    if target:
        base = base + target.split(".")
    return ".".join(p for p in base if p)


class ProjectGraph:
    """Function table + reference edges + reachability over a file set."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.modules: dict[str, ModuleInfo] = {}
        #: bare function name -> keys of every project function with that name
        self.by_name: dict[str, set[str]] = {}
        #: caller key -> callee keys (reference edges)
        self.edges: dict[str, set[str]] = {}
        #: module name -> keys referenced from module-level code (dispatch
        #: tables, re-export dicts, decorator applications); reaching any
        #: function of the module pulls these in
        self.module_edges: dict[str, set[str]] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectGraph":
        g = cls()
        for ctx in contexts:
            g._index_module(ctx)
        for ctx in contexts:
            g._link_module(ctx)
        return g

    def _index_module(self, ctx: FileContext) -> None:
        mod = module_name(ctx.rel)
        info = ModuleInfo(name=mod, path=ctx.rel)
        is_package = ctx.rel.endswith("__init__.py")
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                info.toplevel.add(node.name)
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        info.toplevel.add(tgt.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                info.toplevel.add(node.target.id)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.imports[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(mod, is_package, node.level, node.module)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    info.imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        self.modules[mod] = info
        # function table: module-level functions and class methods
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node.name, node, ctx.rel)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(mod, f"{node.name}.{sub.name}", sub, ctx.rel)

    def _add_function(
        self,
        mod: str,
        qualname: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        path: str,
    ) -> None:
        info = FunctionInfo(
            module=mod, qualname=qualname, node=node, path=path, arity=_fn_arity(node)
        )
        self.functions[info.key] = info
        self.by_name.setdefault(info.name, set()).add(info.key)

    # -- edge resolution ------------------------------------------------

    def _link_module(self, ctx: FileContext) -> None:
        mod = module_name(ctx.rel)
        for key, fn in self.functions.items():
            if fn.path != ctx.rel:
                continue
            self.edges[key] = self._references(mod, fn.node)
        self.module_edges[mod] = self._references(
            mod, ctx.tree, skip_functions=True
        )

    def resolve_target(self, dotted: str) -> set[str]:
        """Function keys an absolute dotted import target denotes.

        Exact key match first; otherwise dot-boundary suffix match, so
        targets survive differing path roots (``repro.oned.probe.probe``
        matches a tree rooted anywhere).
        """
        if dotted in self.functions:
            return {dotted}
        suffix = "." + dotted
        return {k for k in self.functions if k.endswith(suffix)}

    def _iter_refs(self, root: ast.AST, skip_functions: bool) -> Iterable[ast.AST]:
        if not skip_functions:
            yield from ast.walk(root)
            return
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # function bodies get their own edge sets
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _references(
        self, mod: str, fn: ast.AST, *, skip_functions: bool = False
    ) -> set[str]:
        minfo = self.modules.get(mod)
        out: set[str] = set()
        for node in self._iter_refs(fn, skip_functions):
            if isinstance(node, ast.Name):
                name = node.id
                # local / imported resolution first, bare-name fallback last
                if f"{mod}.{name}" in self.functions:
                    out.add(f"{mod}.{name}")
                elif minfo is not None and name in minfo.imports:
                    resolved = self.resolve_target(minfo.imports[name])
                    # package re-exports (`from repro.sweep import use_sweep`)
                    # have no `<module>.<qualname>` key; fall back to bare name
                    if not resolved:
                        resolved = self.by_name.get(name, set())
                    out |= resolved
                elif name in self.by_name:
                    out |= self.by_name[name]
            elif isinstance(node, ast.Attribute):
                attr = node.attr
                if isinstance(node.value, ast.Name) and minfo is not None:
                    target = minfo.imports.get(node.value.id)
                    if target is not None:
                        resolved = self.resolve_target(f"{target}.{attr}")
                        if resolved:
                            out |= resolved
                            continue
                if attr in self.by_name:
                    out |= self.by_name[attr]
        fn_name = getattr(fn, "name", None)
        if fn_name is not None:
            out.discard(f"{mod}.{fn_name}")
        return out

    # -- queries --------------------------------------------------------

    def functions_in(self, path: str) -> list[FunctionInfo]:
        return [f for f in self.functions.values() if f.path == path]

    def reachable_from(
        self, roots: Iterable[str], extra_edges: Mapping[str, set[str]] | None = None
    ) -> set[str]:
        """Keys reachable from ``roots`` over reference edges (roots included).

        Reaching any function of a module also follows that module's
        module-level references (string-dispatch tables like
        ``{"nicolplus": nicol_plus}`` live in top-level dicts, and the
        functions of the module reach their targets through them at runtime).
        """
        seen: set[str] = set()
        modules_pulled: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            for nxt in self.edges.get(key, ()):  # pragma: no branch
                if nxt not in seen:
                    stack.append(nxt)
            mod = self.functions[key].module
            if mod not in modules_pulled:
                modules_pulled.add(mod)
                for nxt in self.module_edges.get(mod, ()):
                    if nxt not in seen:
                        stack.append(nxt)
            if extra_edges is not None:
                for nxt in extra_edges.get(key, ()):
                    if nxt not in seen:
                        stack.append(nxt)
        return seen
