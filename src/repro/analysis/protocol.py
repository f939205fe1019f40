"""Protocol exhaustiveness of the sweep journal (``PROTO-JOURNAL``).

The journal is a state machine whose two halves live in different
modules: every record kind any code path appends must be understood by
replay (``Journal._apply`` raises ``JournalError`` on unknown kinds, so
an unmatched producer is a latent crash on resume), every declared kind
must actually be consumed, and a declared-but-never-produced kind is
dead protocol.

Producers live in ``pool.py`` / ``queue.py`` / ``supervisor.py``, the
consumer in ``journal.py``.  The pass extracts both sides syntactically
(dict literals, list-append accumulation, generator-over-helper-call,
``IfExp`` kinds, helper-returned records) and reports the asymmetries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    build_call_graph,
    walk_shallow,
)
from repro.analysis.core import (
    Finding,
    ProgramRule,
    Severity,
    SourceModule,
    register,
)

# -- shared dict-literal resolution ------------------------------------------


@dataclass
class _FuncEnv:
    """Per-function name bindings used to resolve record expressions."""

    assigns: dict[str, list[ast.expr]] = field(default_factory=dict)
    list_appends: dict[str, list[ast.expr]] = field(default_factory=dict)

    @classmethod
    def of(cls, func: ast.AST) -> "_FuncEnv":
        env = cls()
        for node in walk_shallow(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    env.assigns.setdefault(node.targets[0].id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    env.assigns.setdefault(node.target.id, []).append(node.value)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and len(node.args) == 1
            ):
                env.list_appends.setdefault(node.func.value.id, []).append(
                    node.args[0]
                )
        return env


def _dict_key_values(d: ast.Dict, key: str) -> list[tuple[Optional[str], ast.AST]]:
    """Constant string value(s) of ``d[key]``; ``(None, node)`` when the
    key is present but not a resolvable constant."""
    for k, v in zip(d.keys, d.values):
        if isinstance(k, ast.Constant) and k.value == key:
            if isinstance(v, ast.Constant) and isinstance(v.value, str):
                return [(v.value, d)]
            if isinstance(v, ast.IfExp):
                out: list[tuple[Optional[str], ast.AST]] = []
                for branch in (v.body, v.orelse):
                    if isinstance(branch, ast.Constant) and isinstance(
                        branch.value, str
                    ):
                        out.append((branch.value, d))
                if out:
                    return out
            return [(None, d)]
    return []


def resolve_record_kinds(
    expr: ast.expr,
    env: _FuncEnv,
    graph: CallGraph,
    module: SourceModule,
    caller: Optional[FunctionInfo],
    key: str = "type",
    depth: int = 0,
) -> list[tuple[str, ast.AST]]:
    """All constant ``key`` values of the record dict(s) ``expr`` may
    denote — the event(s) flowing into one journal append site.
    Unresolvable shapes yield nothing (conservative silence)."""
    if depth > 4:
        return []
    out: list[tuple[str, ast.AST]] = []
    if isinstance(expr, ast.Dict):
        for value, node in _dict_key_values(expr, key):
            if value is not None:
                out.append((value, node))
        return out
    if isinstance(expr, ast.Name):
        for bound in env.assigns.get(expr.id, []):
            out.extend(
                resolve_record_kinds(bound, env, graph, module, caller, key, depth + 1)
            )
        for elem in env.list_appends.get(expr.id, []):
            out.extend(
                resolve_record_kinds(elem, env, graph, module, caller, key, depth + 1)
            )
        return out
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        for elem in expr.elts:
            out.extend(
                resolve_record_kinds(elem, env, graph, module, caller, key, depth + 1)
            )
        return out
    if isinstance(expr, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return resolve_record_kinds(
            expr.elt, env, graph, module, caller, key, depth + 1
        )
    if isinstance(expr, ast.IfExp):
        for branch in (expr.body, expr.orelse):
            out.extend(
                resolve_record_kinds(branch, env, graph, module, caller, key, depth + 1)
            )
        return out
    if isinstance(expr, ast.Call):
        for callee in graph.resolve_call(module, caller, expr):
            callee_env = _FuncEnv.of(callee.node)
            for node in walk_shallow(callee.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    out.extend(
                        resolve_record_kinds(
                            node.value,
                            callee_env,
                            graph,
                            callee.module,
                            callee,
                            key,
                            depth + 1,
                        )
                    )
        return out
    return []


# -- journal exhaustiveness --------------------------------------------------


def _journal_append_receiver(call: ast.Call, cls: Optional[str]) -> bool:
    """Is this ``X.append(...)`` / ``X.append_many(...)`` a *journal*
    append?  Receivers recognized: any attribute chain ending in
    ``journal``, a local/parameter literally named ``journal`` or
    assigned from a ``*Journal(...)`` constructor, and ``self`` inside a
    class whose name contains ``Journal``."""
    assert isinstance(call.func, ast.Attribute)
    recv = call.func.value
    if isinstance(recv, ast.Attribute) and recv.attr == "journal":
        return True
    if isinstance(recv, ast.Name):
        if recv.id == "journal":
            return True
        if recv.id == "self" and cls is not None and "Journal" in cls:
            return True
    return False


def _declared_event_types(module: SourceModule) -> Optional[tuple[ast.AST, list[str]]]:
    if module.tree is None:
        return None
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "EVENT_TYPES"
            and isinstance(stmt.value, (ast.Tuple, ast.List))
        ):
            kinds = [
                e.value
                for e in stmt.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            if kinds:
                return stmt, kinds
    return None


def _compare_strings(func: ast.AST) -> set[str]:
    """Constant strings an ``==``/``in`` comparison tests against."""
    out: set[str] = set()
    for node in walk_shallow(func):
        if not isinstance(node, ast.Compare):
            continue
        for side in [node.left, *node.comparators]:
            if isinstance(side, ast.Constant) and isinstance(side.value, str):
                out.add(side.value)
            elif isinstance(side, (ast.Tuple, ast.List, ast.Set)):
                for e in side.elts:
                    if isinstance(e, ast.Constant) and isinstance(e.value, str):
                        out.add(e.value)
    return out


@register
class JournalProtocolRule(ProgramRule):
    id = "PROTO-JOURNAL"
    severity = Severity.ERROR
    description = (
        "every journal record kind appended anywhere must be declared in "
        "EVENT_TYPES and consumed by replay (_apply), and every declared "
        "kind must be produced somewhere — asymmetries crash or rot"
    )

    def check_program(self, modules: list[SourceModule]) -> Iterator[Finding]:
        declared: list[str] = []
        decl_site: Optional[tuple[str, ast.AST]] = None
        consumed: Optional[set[str]] = None
        for mod in modules:
            found = _declared_event_types(mod)
            if found is None:
                continue
            node, kinds = found
            declared.extend(k for k in kinds if k not in declared)
            decl_site = (mod.path, node)
            assert mod.tree is not None
            for func in ast.walk(mod.tree):
                if (
                    isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and func.name == "_apply"
                ):
                    consumed = (consumed or set()) | _compare_strings(func)
        if decl_site is None:
            return  # no journal protocol in this program

        graph = build_call_graph(modules)
        produced: dict[str, tuple[str, ast.AST]] = {}
        for info in graph.functions.values():
            env = _FuncEnv.of(info.node)
            for node in walk_shallow(info.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append", "append_many")
                    and node.args
                    and _journal_append_receiver(node, info.cls)
                ):
                    continue
                for kind, at in resolve_record_kinds(
                    node.args[0], env, graph, info.module, info
                ):
                    produced.setdefault(kind, (info.path, at))

        declared_set = set(declared)
        for kind in sorted(set(produced) - declared_set):
            path, at = produced[kind]
            yield self.finding_at(
                path,
                at,
                f"journal record kind {kind!r} is appended but not declared "
                "in EVENT_TYPES; replay raises JournalError on it",
            )
        if consumed is not None:
            for kind in sorted(declared_set - consumed):
                yield self.finding_at(
                    decl_site[0],
                    decl_site[1],
                    f"journal record kind {kind!r} is declared in EVENT_TYPES "
                    "but never consumed by replay (_apply ignores it)",
                )
        for kind in sorted(declared_set - set(produced)):
            yield self.finding_at(
                decl_site[0],
                decl_site[1],
                f"journal record kind {kind!r} is declared but no code path "
                "ever appends it (dead protocol)",
                severity=Severity.WARNING,
            )
