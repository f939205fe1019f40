"""A small typestate engine over the per-function CFG.

Tracks *resources* — values returned by designated creator methods
(``create_eventset``, ``perf_event_open``) and bound to plain local
names — through the states of a declared protocol, merging with set
union at CFG joins.  Reports:

* **must-violations** — a method invoked in a state where *every*
  possible abstract state is illegal (read-before-start, double-start,
  use-after-destroy).  May-violations (legal on one path, illegal on
  another) are deliberately not reported to keep the false-positive
  rate near zero;
* **leaks** — a resource whose state at the function's *normal* exit is
  possibly-live on every path and whose handle never escapes the
  function (no store into a container/attribute, no return, no closure
  capture, no call handing it to unknown code).

Escape analysis is flow-insensitive: one escaping use anywhere exempts
the variable entirely.  Exceptional exits are not leak-checked — an
escaping exception already aborts the protocol, and the runtime layers
surface those loudly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.callgraph import walk_shallow
from repro.analysis.cfg import build_cfg


@dataclass(frozen=True)
class Protocol:
    """Typestate specification for one resource kind."""

    name: str
    #: creator method name -> initial state
    creators: dict[str, str]
    #: (state, method) -> next state for legal moves
    transitions: dict[tuple[str, str], str]
    #: (state, method) -> error message for illegal moves; the state
    #: ``"*"`` matches any method on that state (use-after-destroy).
    errors: dict[tuple[str, str], str]
    #: methods that accept the resource without changing its state
    neutral: frozenset[str]
    #: states that constitute a leak if still possible at normal exit
    leak_states: frozenset[str]
    leak_message: str
    #: *function* (not method) call extensions, derived by the
    #: interprocedural pass: ``make_es()`` -> initial state,
    #: ``cleanup(es)`` -> resulting state, ``probe(es)`` -> no change.
    func_creators: dict[str, str] = field(default_factory=dict)
    func_closers: dict[str, str] = field(default_factory=dict)
    func_neutral: frozenset[str] = frozenset()

    def tracked_methods(self) -> set[str]:
        out = set(self.neutral)
        for _state, method in self.transitions:
            out.add(method)
        for _state, method in self.errors:
            if method != "*":
                out.add(method)
        return out


@dataclass(frozen=True)
class Violation:
    node: ast.AST
    message: str
    kind: str                  # "protocol" or "leak"


@dataclass
class _Tracked:
    creation: ast.AST
    escaped: bool = False


# -- AST scanning helpers ----------------------------------------------------


def _creation_state(node: ast.expr, protocol: Protocol) -> Optional[str]:
    """Initial state when ``node`` is a creator call, else ``None``.

    Matches both ``<recv>.creator(...)`` method calls (the base
    protocol) and ``make_handle(...)`` function calls registered by the
    interprocedural pass in ``func_creators``.
    """
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in protocol.creators
    ):
        return protocol.creators[node.func.attr]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        state = protocol.func_creators.get(node.func.id)
        if state is not None:
            return state
    return None


def _find_creations(
    func: ast.FunctionDef | ast.AsyncFunctionDef, protocol: Protocol
) -> dict[str, _Tracked]:
    """Locals bound directly to a creator call, e.g. ``es = p.create_eventset()``."""
    tracked: dict[str, _Tracked] = {}
    for node in walk_shallow(func):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if (
            target is not None
            and value is not None
            and isinstance(target, ast.Name)
            and _creation_state(value, protocol) is not None
        ):
            tracked.setdefault(target.id, _Tracked(creation=node))
    return tracked


def _mark_escapes(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    tracked: dict[str, _Tracked],
    protocol: Protocol,
) -> None:
    """Flow-insensitive: any use that may hand the value to unknown code."""
    names = set(tracked)
    known = protocol.tracked_methods()

    def contains(node: ast.AST, name: str) -> bool:
        return any(
            isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            for n in ast.walk(node)
        )

    for node in walk_shallow(func):
        # Closure capture: a nested function/lambda reading the name.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for name in names:
                    if contains(child, name):
                        tracked[name].escaped = True

        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            # Returning the handle itself aliases it; returning f(handle)
            # does not (the call-argument rule governs that use).
            if isinstance(node.value, ast.Name) and node.value.id in names:
                tracked[node.value.id].escaped = True
        elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for elt in node.elts:
                if isinstance(elt, ast.Name) and elt.id in names:
                    tracked[elt.id].escaped = True
        elif isinstance(node, ast.Dict):
            for v in list(node.keys) + list(node.values):
                if isinstance(v, ast.Name) and v.id in names:
                    tracked[v.id].escaped = True
        elif isinstance(node, ast.Assign):
            # The handle itself stored into an attribute/subscript ->
            # reachable elsewhere.  Storing f(handle) is not an escape;
            # the call-argument rule governs that use.
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets
            ):
                if isinstance(node.value, ast.Name) and node.value.id in names:
                    tracked[node.value.id].escaped = True
        elif isinstance(node, ast.Call):
            is_attr = isinstance(node.func, ast.Attribute)
            method = node.func.attr if is_attr else None
            is_name = isinstance(node.func, ast.Name)
            fname = node.func.id if is_name else None
            known_func = fname is not None and (
                fname in protocol.func_closers or fname in protocol.func_neutral
            )
            first_pos_is_resource = bool(
                node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in names
            )
            for i, arg in enumerate(node.args):
                if not (isinstance(arg, ast.Name) and arg.id in names):
                    continue
                # <recv>.known_method(res, ...) and summarized helper
                # functions (interproc closers/neutral) keep ownership
                # local; anything else may stash the handle.
                if is_attr and method in known and i == 0 and first_pos_is_resource:
                    continue
                if known_func and i == 0 and first_pos_is_resource:
                    continue
                tracked[arg.id].escaped = True
            for kw in node.keywords:
                if isinstance(kw.value, ast.Name) and kw.value.id in names:
                    tracked[kw.value.id].escaped = True


# -- the dataflow ------------------------------------------------------------


_ESCAPED = "<escaped>"

StateSet = frozenset[str]
Env = dict[str, StateSet]


def _merge(a: Env, b: Env) -> Env:
    out = dict(a)
    for var, states in b.items():
        out[var] = out.get(var, frozenset()) | states
    return out


def _stmt_parts(stmt: ast.stmt) -> list[ast.AST]:
    """What a CFG node for ``stmt`` actually evaluates.

    Compound statements appear in the CFG as a *header* node with their
    bodies lowered to separate nodes, so only the header expressions
    (loop iterable, branch test, with-items) belong to this node.
    """
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.While, ast.If)):
        return [stmt.test]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def analyze_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef, protocol: Protocol
) -> list[Violation]:
    """Run the typestate protocol over one function."""
    tracked = _find_creations(func, protocol)
    if not tracked:
        return []
    _mark_escapes(func, tracked, protocol)
    # Escaped handles leave the analysis entirely: once the value is
    # reachable from elsewhere, any local conclusion about its state is
    # unsound, so precision wins over recall.
    tracked = {name: t for name, t in tracked.items() if not t.escaped}
    if not tracked:
        return []
    live = set(tracked)

    cfg = build_cfg(func)
    violations: list[Violation] = []
    reported: set[tuple[int, str]] = set()

    def transfer(env: Env, stmt: ast.stmt, emit: bool = False) -> Env:
        env = dict(env)
        for part in _stmt_parts(stmt):
            env = _transfer_part(env, part, emit)
        return env

    def _transfer_part(env: Env, stmt: ast.AST, emit: bool) -> Env:
        env = dict(env)
        for node in walk_shallow(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if not (
                    node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in tracked
                ):
                    continue
                var = node.args[0].id
                states = env.get(var)
                if not states or states == {_ESCAPED}:
                    continue
                relevant = protocol.tracked_methods()
                if method not in relevant and (
                    not any(key[1] == "*" for key in protocol.errors)
                ):
                    continue
                msgs = []
                next_states: set[str] = set()
                for state in states:
                    err = protocol.errors.get((state, method)) or protocol.errors.get(
                        (state, "*")
                    )
                    if err is not None:
                        msgs.append(err)
                        next_states.add(state)
                        continue
                    nxt = protocol.transitions.get((state, method))
                    if nxt is not None:
                        next_states.add(nxt)
                    else:
                        next_states.add(state)  # neutral / unknown: no change
                if emit and msgs and len(msgs) == len(states):
                    # Illegal on every path -> must-violation.  Only
                    # emitted after the fixpoint converged: partial
                    # state sets mid-iteration would over-report.
                    key = (node.lineno, msgs[0])
                    if key not in reported:
                        reported.add(key)
                        violations.append(
                            Violation(node, msgs[0].format(var=var), "protocol")
                        )
                env[var] = frozenset(next_states)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                # Summarized helper functions from the interprocedural
                # pass: ``cleanup(res)`` transitions the resource into
                # the closer's final state; neutral helpers leave it.
                fname = node.func.id
                if fname not in protocol.func_closers:
                    continue
                if not (
                    node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in tracked
                ):
                    continue
                var = node.args[0].id
                if env.get(var):
                    env[var] = frozenset({protocol.func_closers[fname]})
        # (Re)creation and rebinding, after uses inside the value expr.
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if isinstance(target, ast.Name) and target.id in tracked and value is not None:
            var = target.id
            state = _creation_state(value, protocol)
            if state is not None:
                env[var] = frozenset({state})
            else:
                env[var] = frozenset()  # rebound to something else
        return env

    # Worklist fixpoint over the CFG.
    in_env: dict[int, Env] = {cfg.entry.idx: {}}
    worklist = [cfg.entry.idx]
    out_env: dict[int, Env] = {}
    iterations = 0
    limit = 50 * max(1, len(cfg.nodes))
    while worklist and iterations < limit:
        iterations += 1
        idx = worklist.pop(0)
        node = cfg.nodes[idx]
        env = in_env.get(idx, {})
        if node.stmt is not None and not isinstance(node.stmt, ast.ExceptHandler):
            env = transfer(env, node.stmt)
        if out_env.get(idx) == env:
            continue
        out_env[idx] = env
        for succ in node.succs:
            merged = _merge(in_env.get(succ, {}), env)
            if merged != in_env.get(succ):
                in_env[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)

    # Reporting pass over the converged solution.
    for idx, env in in_env.items():
        node = cfg.nodes[idx]
        if node.stmt is not None and not isinstance(node.stmt, ast.ExceptHandler):
            transfer(env, node.stmt, emit=True)

    exit_env = in_env.get(cfg.exit.idx, {})
    for var in sorted(live):
        states = exit_env.get(var, frozenset())
        if states and states <= protocol.leak_states:
            violations.append(
                Violation(
                    tracked[var].creation,
                    protocol.leak_message.format(var=var),
                    "leak",
                )
            )
    return violations


def functions_of(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function definition in the module, including nested ones."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
