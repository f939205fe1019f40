"""Module-level call graph over the analyzed program.

Built once per run from every parsed :class:`SourceModule`, this is the
shared substrate for the interprocedural passes (interproc typestate,
determinism taint, signal safety).  Resolution is deliberately
conservative and syntactic:

* ``f(...)`` resolves to the top-level function ``f`` of the same
  module, else through the import map (``from repro.x import f``,
  ``import repro.x as m; m.f(...)``) to the defining module;
* ``self.m(...)`` resolves to method ``m`` of the lexically enclosing
  class (same module);
* ``obj.m(...)`` resolves to *every* method named ``m`` in the program
  — callers choose whether to require uniqueness (typestate, taint) or
  to check all candidates (signal safety, where any candidate reaching
  an unsafe call is a finding).

Unresolvable calls return the empty list; passes treat those as
"unknown code" and fall back to their intraprocedural behavior.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.core import SourceModule, resolve_dotted


@dataclass
class FunctionInfo:
    """One function or method definition, with its location identity."""

    path: str                 # root-relative posix path of the module
    qualname: str             # "func" or "Class.method" (nesting joined by ".")
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: Optional[str]        # immediately enclosing class name, if a method
    module: SourceModule

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def key(self) -> tuple[str, str]:
        return (self.path, self.qualname)


def _module_dotted(relpath: str) -> Optional[str]:
    """``src/repro/supervisor/pool.py`` -> ``repro.supervisor.pool``."""
    if not relpath.endswith(".py"):
        return None
    parts = relpath[: -len(".py")].split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        return None
    return ".".join(parts)


def walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an AST without descending into nested function bodies."""
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


class CallGraph:
    """Indexes of every function definition plus call resolution."""

    def __init__(self, modules: list[SourceModule]):
        self.modules = [m for m in modules if m.tree is not None]
        #: (path, qualname) -> info
        self.functions: dict[tuple[str, str], FunctionInfo] = {}
        #: top-level function name -> infos (per-module lookup done on path)
        self._toplevel: dict[tuple[str, str], FunctionInfo] = {}
        #: method name -> every method with that name, program-wide
        self.by_method_name: dict[str, list[FunctionInfo]] = {}
        #: dotted module name -> module
        self._by_dotted: dict[str, SourceModule] = {}
        #: module path -> import-origin map
        self._origins: dict[str, dict[str, str]] = {}
        #: (path, qualname) -> call-name bag (see :meth:`name_bag`)
        self._bags: dict[tuple[str, str], frozenset[str]] = {}

        for mod in self.modules:
            assert mod.tree is not None
            dotted = _module_dotted(mod.path)
            if dotted is not None:
                self._by_dotted[dotted] = mod
            self._origins[mod.path] = mod.origins
            self._index_module(mod)

    def _index_module(self, mod: SourceModule) -> None:
        assert mod.tree is not None

        def visit(node: ast.AST, qual: str, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    child_qual = f"{qual}.{child.name}" if qual else child.name
                    info = FunctionInfo(
                        path=mod.path,
                        qualname=child_qual,
                        node=child,
                        cls=cls,
                        module=mod,
                    )
                    self.functions[info.key] = info
                    if cls is None and not qual:
                        self._toplevel[(mod.path, child.name)] = info
                    if cls is not None:
                        self.by_method_name.setdefault(child.name, []).append(info)
                    # Nested defs belong to the function, not the class.
                    visit(child, child_qual, None)
                elif isinstance(child, ast.ClassDef):
                    child_qual = f"{qual}.{child.name}" if qual else child.name
                    visit(child, child_qual, child.name)
                else:
                    visit(child, qual, cls)

        visit(mod.tree, "", None)

    def name_bag(self, info: FunctionInfo) -> frozenset[str]:
        """Every name syntactically involved in a call in this function:
        bare callee names, attribute-chain links, and chain roots.

        A cheap prefilter for the summary passes — a function whose bag
        is disjoint from a protocol's method/helper names cannot create,
        close, or transition one of its handles.
        """
        cached = self._bags.get(info.key)
        if cached is not None:
            return cached
        bag: set[str] = set()
        for node in walk_shallow(info.node):
            if not isinstance(node, ast.Call):
                continue
            cur: ast.expr = node.func
            while isinstance(cur, ast.Attribute):
                bag.add(cur.attr)
                cur = cur.value
            if isinstance(cur, ast.Name):
                bag.add(cur.id)
        frozen = frozenset(bag)
        self._bags[info.key] = frozen
        return frozen

    # -- resolution ----------------------------------------------------------

    def resolve_dotted_function(self, dotted: str) -> Optional[FunctionInfo]:
        """``repro.supervisor.journal.add_event`` -> its definition."""
        if "." not in dotted:
            return None
        mod_name, func_name = dotted.rsplit(".", 1)
        mod = self._by_dotted.get(mod_name)
        if mod is None:
            return None
        return self._toplevel.get((mod.path, func_name))

    def methods_of_class(self, path: str, cls: str) -> list[FunctionInfo]:
        prefix = f"{cls}."
        return [
            info
            for (p, qual), info in self.functions.items()
            if p == path and qual.startswith(prefix) and info.cls == cls
        ]

    def resolve_call(
        self,
        module: SourceModule,
        caller: Optional[FunctionInfo],
        call: ast.Call,
        all_candidates: bool = False,
    ) -> list[FunctionInfo]:
        """Possible callees of one call site (empty = unknown code)."""
        func = call.func
        origins = self._origins.get(module.path, {})
        if isinstance(func, ast.Name):
            local = self._toplevel.get((module.path, func.id))
            if local is not None:
                return [local]
            origin = origins.get(func.id)
            if origin is not None:
                info = self.resolve_dotted_function(origin)
                if info is not None:
                    return [info]
            return []
        if isinstance(func, ast.Attribute):
            # self.m(...): the enclosing class's method wins.
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and caller is not None
                and caller.cls is not None
            ):
                owner_qual = caller.qualname.rsplit(".", 1)[0]
                info = self.functions.get((caller.path, f"{owner_qual}.{func.attr}"))
                if info is not None:
                    return [info]
            # mod.f(...) through the import map.
            dotted = resolve_dotted(func, origins)
            if dotted is not None:
                info = self.resolve_dotted_function(dotted)
                if info is not None:
                    return [info]
            # obj.m(...): every method of that name.
            candidates = self.by_method_name.get(func.attr, [])
            if all_candidates:
                return list(candidates)
            if len(candidates) == 1:
                return list(candidates)
        return []


#: Single-entry memo for :func:`build_call_graph`.  Every program rule
#: in one driver run receives the *same* module list, so they share one
#: graph instead of each rebuilding it.  The cache holds strong
#: references to the keyed modules, so their ids cannot be recycled
#: while the entry is alive.
_GRAPH_CACHE: list[tuple[tuple[int, ...], list[SourceModule], CallGraph]] = []


def build_call_graph(modules: list[SourceModule]) -> CallGraph:
    key = tuple(id(m) for m in modules)
    if _GRAPH_CACHE and _GRAPH_CACHE[0][0] == key:
        return _GRAPH_CACHE[0][2]
    graph = CallGraph(modules)
    _GRAPH_CACHE[:] = [(key, list(modules), graph)]
    return graph
