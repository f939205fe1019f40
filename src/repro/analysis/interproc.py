"""Whole-program PAPI typestate: the engine behind ``PAPI-LIFECYCLE``
and ``PAPI-FD-LEAK``.

The per-function engine (:mod:`repro.analysis.typestate`) gives up at
function boundaries: a handle returned by a helper, destroyed by a
helper, or parked in ``self.<field>`` leaves it.  This module closes
those holes with *summaries* over the call graph:

* **creator summary** — a top-level function that returns a fresh
  handle (``def make_es(p): return p.create_eventset()``) becomes a
  creator in its callers, so ``es = make_es(p)`` is tracked;
* **closer summary** — a top-level function whose first parameter
  receives a closing call (``def cleanup(p, es): p.destroy_eventset(es)``)
  transitions its argument into the closed state at call sites;
* **neutral summary** — a first parameter that never escapes and is
  never closed leaves the argument's state untouched (instead of
  conservatively un-tracking it as an escape).

Summaries are computed to a fixpoint so wrappers-of-wrappers resolve
(:func:`derive_extension`); :func:`analyze_program` then runs every
function once under the extended protocol.  No separate plain pass
runs: a handle handed to a helper escapes under the plain protocol, so
the extended protocol tracks every handle the plain one does.

A separate field check covers handles that escape into object state:
``self.f = <creator>()`` anywhere in a class requires *some* method of
that class to close ``self.f``; otherwise the instance leaks its
kernel fds with no local evidence.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Iterator, Optional

from repro.analysis.callgraph import CallGraph, build_call_graph, walk_shallow
from repro.analysis.core import SourceModule, enclosing_symbols
from repro.analysis.typestate import (
    Protocol,
    Violation,
    _creation_state,
    _find_creations,
    _mark_escapes,
    _Tracked,
    analyze_function,
    functions_of,
)


def closing_methods(protocol: Protocol) -> dict[str, str]:
    """Methods that move a handle out of every leak state, with target.

    For the eventset protocol that is ``destroy_eventset`` (target
    ``"destroyed"``); ``cleanup_eventset`` lands back in ``"new"``,
    which still leaks, so it does not count.
    """
    out: dict[str, str] = {}
    for (_state, method), target in protocol.transitions.items():
        if target not in protocol.leak_states:
            out[method] = target
    return out


def _first_param(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Optional[str]:
    args = func.args.posonlyargs + func.args.args
    if not args:
        return None
    return args[0].arg


def _returns_fresh_handle(
    func: ast.FunctionDef | ast.AsyncFunctionDef, protocol: Protocol
) -> Optional[str]:
    """Initial state when the function returns a freshly created handle."""
    creations = _find_creations(func, protocol)
    for node in walk_shallow(func):
        if not isinstance(node, ast.Return) or node.value is None:
            return_state = None
        else:
            return_state = _creation_state(node.value, protocol)
            if return_state is None and (
                isinstance(node.value, ast.Name) and node.value.id in creations
            ):
                # ``h = p.create(); ...; return h`` — take the creation
                # state; intermediate transitions are over-approximated
                # as "still fresh", which only risks a late report at
                # the *call site*, never a false protocol error (the
                # extended analysis re-walks the states there).
                return_state = _creation_state(
                    _assigned_value(creations[node.value.id].creation), protocol
                )
        if return_state is not None:
            return return_state
    return None


def _assigned_value(node: ast.AST) -> ast.expr:
    if isinstance(node, ast.Assign):
        return node.value
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return node.value
    raise TypeError(f"not an assignment: {ast.dump(node)}")


def _closes_first_param(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    protocol: Protocol,
    closers: dict[str, str],
) -> Optional[str]:
    """Closed state when the first parameter is closed somewhere in the body."""
    param = _first_param(func)
    if param is None:
        return None
    for node in walk_shallow(func):
        if not isinstance(node, ast.Call):
            continue
        # X.destroy_eventset(param, ...) — module/receiver style.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in closers
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == param
        ):
            return closers[node.func.attr]
        # param.close(...) — method style.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in closers
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == param
        ):
            return closers[node.func.attr]
        # helper(param) — transitively through a summarized closer.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in protocol.func_closers
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == param
        ):
            return protocol.func_closers[node.func.id]
    return None


def _first_param_is_neutral(
    func: ast.FunctionDef | ast.AsyncFunctionDef, protocol: Protocol
) -> bool:
    """True when the first parameter neither escapes, transitions, nor
    is closed — so call sites can keep their state unchanged."""
    param = _first_param(func)
    if param is None:
        return False
    moving = protocol.tracked_methods() - protocol.neutral
    for node in walk_shallow(func):
        if not isinstance(node, ast.Call):
            continue
        # X.start(param) / param.close() would change the state the
        # caller believes in, so the function is not neutral.
        if isinstance(node.func, ast.Attribute) and node.func.attr in moving:
            if (
                node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == param
            ):
                return False
            if (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id == param
            ):
                return False
    tracked = {param: _Tracked(creation=func)}
    _mark_escapes(func, tracked, protocol)
    return not tracked[param].escaped


def derive_extension(graph: CallGraph, protocol: Protocol) -> Protocol:
    """Fixpoint over top-level function summaries; returns the extended
    protocol (``is`` the input when nothing was derived)."""
    closers = closing_methods(protocol)
    static_relevant = (
        set(protocol.creators) | set(closers) | protocol.tracked_methods()
    )
    ext = protocol
    for _round in range(6):
        creators: dict[str, str] = dict(ext.func_creators)
        fclosers: dict[str, str] = dict(ext.func_closers)
        neutral: set[str] = set(ext.func_neutral)
        relevant = (
            static_relevant
            | set(ext.func_creators)
            | set(ext.func_closers)
            | set(ext.func_neutral)
        )
        ambiguous: set[str] = set()
        seen: dict[str, tuple[Optional[str], Optional[str], bool]] = {}
        for info in graph.functions.values():
            if info.cls is not None or "." in info.qualname:
                continue  # methods/nested defs are out of summary scope
            name = info.name
            if name in protocol.creators or name in closers:
                continue  # the method-name rules already govern these
            if not (graph.name_bag(info) & relevant):
                # Cannot create, close, or transition a handle of this
                # protocol — no summary (callers of it fall back to the
                # conservative escape treatment).
                continue
            summary = (
                _returns_fresh_handle(info.node, ext),
                _closes_first_param(info.node, ext, closers),
                _first_param_is_neutral(info.node, ext),
            )
            if name in seen and seen[name] != summary:
                ambiguous.add(name)  # same name, different behavior: drop
                continue
            seen[name] = summary
            created, closed, is_neutral = summary
            if created is not None:
                creators[name] = created
            if closed is not None:
                fclosers[name] = closed
            elif is_neutral and name not in fclosers:
                neutral.add(name)
        for name in ambiguous:
            creators.pop(name, None)
            fclosers.pop(name, None)
            neutral.discard(name)
        neutral -= set(fclosers)
        new = replace(
            ext,
            func_creators=creators,
            func_closers=fclosers,
            func_neutral=frozenset(neutral),
        )
        if (
            new.func_creators == ext.func_creators
            and new.func_closers == ext.func_closers
            and new.func_neutral == ext.func_neutral
        ):
            return ext
        ext = new
    return ext


def _closes_attr(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    attr: str,
    protocol: Protocol,
    closers: dict[str, str],
) -> bool:
    """Does the body close ``self.<attr>`` in any recognized style?"""

    def is_self_attr(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    for node in walk_shallow(func):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in closers
            and node.args
            and is_self_attr(node.args[0])
        ):
            return True  # papi.destroy_eventset(self._esid, ...)
        if isinstance(node.func, ast.Attribute) and node.func.attr in closers and (
            is_self_attr(node.func.value)
        ):
            return True  # self._fd.close()
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in protocol.func_closers
            and node.args
            and is_self_attr(node.args[0])
        ):
            return True  # cleanup(self._esid)
    return False


def analyze_program(
    modules: list[SourceModule], protocol: Protocol
) -> Iterator[tuple[str, str, Violation]]:
    """Every violation of ``protocol`` in the program, as ``(path,
    enclosing qualname, violation)``."""
    graph = build_call_graph(modules)
    ext = derive_extension(graph, protocol)
    for module in graph.modules:
        assert module.tree is not None
        symbols = enclosing_symbols(module.tree)
        for func in functions_of(module.tree):
            for violation in analyze_function(func, ext):
                yield module.path, symbols.get(id(violation.node), func.name), violation
    yield from _field_leaks(graph, protocol)


def _field_leaks(
    graph: CallGraph, protocol: Protocol
) -> Iterator[tuple[str, str, Violation]]:
    closers = closing_methods(protocol)
    # class (path, name) -> [(attr, assign node, method qualname)]
    stored: dict[tuple[str, str], list[tuple[str, ast.AST, str]]] = {}
    for info in graph.functions.values():
        if info.cls is None:
            continue
        for node in walk_shallow(info.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if (
                target is not None
                and value is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and _creation_state(value, protocol) is not None
            ):
                stored.setdefault((info.path, info.cls), []).append(
                    (target.attr, node, info.qualname)
                )
    for (path, cls), entries in stored.items():
        methods = graph.methods_of_class(path, cls)
        for attr, node, qualname in entries:
            if any(_closes_attr(m.node, attr, protocol, closers) for m in methods):
                continue
            yield path, qualname, Violation(
                node,
                f"{protocol.name} handle stored in self.{attr} but no "
                f"method of class {cls} ever closes it; the instance "
                "leaks its kernel resources",
                "leak",
            )
