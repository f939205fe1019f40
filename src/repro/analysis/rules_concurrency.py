"""Fork- and signal-safety rules for the supervisor layer.

The fleet forks worker process groups and reacts to SIGTERM/SIGINT; the
failure modes are classic and brutal to debug:

* a worker ``Popen``\\ ed or forked into the supervisor's session dies
  with it and escapes group-kill/orphan-reap semantics — every managed
  ``Popen`` must pass ``start_new_session=True``, and every function
  that forks must call ``os.setsid()`` for the child (``FORK-SAFETY``);
* a Python signal handler runs between two arbitrary bytecodes of the
  main loop: touching the journal (fsync!), logging, or allocating in a
  handler reenters whatever the interrupted frame was doing.  Handlers
  are restricted to the async-safe core — set flags, ``os.write`` — and
  anything they *call* must transitively satisfy the same contract
  (``SIGNAL-SAFETY``, a whole-program check over the call graph).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    build_call_graph,
    walk_shallow,
)
from repro.analysis.core import (
    Finding,
    ProgramRule,
    Rule,
    Severity,
    SourceModule,
    enclosing_symbols,
    register,
    resolve_dotted,
)
from repro.analysis.typestate import functions_of

SERVICE_SCOPE = ("src/repro/supervisor", "tools")

#: Calls that create a child process.
SPAWN_CALLS = {
    "subprocess.Popen",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "os.fork",
    "os.forkpty",
    "os.posix_spawn",
    "os.posix_spawnp",
    "multiprocessing.Process",
}

#: Long-lived managed spawns that must lead their own session so
#: group-kill / orphan-reaping semantics hold.
SESSION_REQUIRED_SPAWNS = {"subprocess.Popen"}

#: Spawns that duplicate this process: their child runs the caller's
#: code, so the same function must make it a session leader.
FORK_CALLS = {"os.fork", "os.forkpty"}


@register
class ForkSafetyRule(Rule):
    id = "FORK-SAFETY"
    severity = Severity.ERROR
    description = (
        "managed workers must lead their own session (Popen: "
        "start_new_session=True; fork: os.setsid() in the same function)"
    )
    scope = SERVICE_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.tree is None:
            return
        origins = module.origins
        symbols = enclosing_symbols(module.tree)
        scopes: list[ast.AST] = [module.tree, *functions_of(module.tree)]
        for scope in scopes:
            yield from self._check_scope(module, scope, origins, symbols)

    def _spawn_calls(
        self, scope: ast.AST, origins: dict[str, str]
    ) -> list[tuple[ast.Call, str]]:
        out = []
        for node in walk_shallow(scope):
            if isinstance(node, ast.Call):
                dotted = resolve_dotted(node.func, origins)
                if dotted in SPAWN_CALLS:
                    out.append((node, dotted))
        return out

    def _check_scope(
        self,
        module: SourceModule,
        scope: ast.AST,
        origins: dict[str, str],
        symbols: dict[int, str],
    ) -> Iterator[Finding]:
        spawns = self._spawn_calls(scope, origins)
        if not spawns:
            return
        has_setsid = any(
            isinstance(node, ast.Call)
            and resolve_dotted(node.func, origins) == "os.setsid"
            for node in walk_shallow(scope)
        )
        for call, dotted in spawns:
            if dotted in FORK_CALLS and not has_setsid:
                yield self.finding(
                    module,
                    call,
                    f"{dotted}() without os.setsid() in the same function: "
                    "the child stays in the supervisor's session/group, so "
                    "group-kill and orphan-reaping cannot manage it",
                    symbol=symbols.get(id(call), ""),
                )
            if dotted not in SESSION_REQUIRED_SPAWNS:
                continue
            detached = any(
                kw.arg == "start_new_session"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            )
            if not detached:
                yield self.finding(
                    module,
                    call,
                    "subprocess.Popen without start_new_session=True: the "
                    "child shares the supervisor's session/group, so "
                    "group-kill and orphan-reaping cannot manage it",
                    symbol=symbols.get(id(call), ""),
                )


# -- signal safety -----------------------------------------------------------

#: Dotted calls a signal handler may make.
SAFE_HANDLER_CALLS = {
    "os.write",
    "os.kill",
    "os.killpg",
    "os._exit",
    "os.getpid",
}

#: Attribute method calls considered allocation-only-safe (used to
#: format the byte payload of an os.write).
SAFE_METHOD_CALLS = {"encode"}


@register
class SignalSafetyRule(ProgramRule):
    id = "SIGNAL-SAFETY"
    severity = Severity.ERROR
    description = (
        "signal handlers (and everything they transitively call) may "
        "only set flags and os.write; logging, journal fsyncs, or other "
        "reentrant work must be deferred to the main loop"
    )
    scope = SERVICE_SCOPE

    def check_program(self, modules: list[SourceModule]) -> Iterator[Finding]:
        graph = build_call_graph(modules)
        seen: set[tuple[str, int, str]] = set()
        for info in graph.functions.values():
            origins = info.module.origins
            bag = graph.name_bag(info)
            # Prefilter: signal.signal() needs the attr/name "signal" or
            # an aliased import of it in the call-name bag.
            if "signal" not in bag and not any(
                origins.get(name, "").startswith("signal") for name in bag
            ):
                continue
            for node in walk_shallow(info.node):
                if not (
                    isinstance(node, ast.Call)
                    and resolve_dotted(node.func, origins) == "signal.signal"
                    and len(node.args) >= 2
                ):
                    continue
                handler = node.args[1]
                for target in self._handler_candidates(graph, info, handler):
                    checker = _HandlerChecker(graph, target)
                    for path, at, message in checker.run():
                        key = (path, at.lineno, message)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield self.finding_at(
                            path,
                            at,
                            f"{message} (reachable from signal handler "
                            f"{target.qualname}); handlers may only set "
                            "flags and os.write — defer the rest to the "
                            "main loop",
                            symbol=target.qualname,
                        )

    def _handler_candidates(
        self, graph: CallGraph, registrar: FunctionInfo, handler: ast.expr
    ) -> list[FunctionInfo]:
        if isinstance(handler, ast.Attribute):
            dotted_leaf = handler.attr
            if dotted_leaf in ("SIG_IGN", "SIG_DFL", "default_int_handler"):
                return []
            # self._on_sigterm / obj.handler: same-module methods first,
            # program-wide by name otherwise.
            candidates = graph.by_method_name.get(dotted_leaf, [])
            local = [c for c in candidates if c.path == registrar.path]
            return local or candidates
        if isinstance(handler, ast.Name):
            return [
                c
                for c in graph.functions.values()
                if c.path == registrar.path and c.name == handler.id
            ]
        return []


class _HandlerChecker:
    """Transitive allowlist walk from one handler function."""

    def __init__(self, graph: CallGraph, root: FunctionInfo):
        self.graph = graph
        self.root = root
        self.visiting: set[tuple[str, str]] = set()
        self.problems: list[tuple[str, ast.AST, str]] = []

    def run(self) -> list[tuple[str, ast.AST, str]]:
        self._check_function(self.root)
        return self.problems

    def _check_function(self, info: FunctionInfo) -> None:
        if info.key in self.visiting:
            return  # cycle: optimistically safe while being proven
        self.visiting.add(info.key)
        origins = info.module.origins
        for node in walk_shallow(info.node):
            if not isinstance(node, ast.Call):
                continue
            self._check_call(info, node, origins)

    def _check_call(
        self, info: FunctionInfo, call: ast.Call, origins: dict[str, str]
    ) -> None:
        dotted = resolve_dotted(call.func, origins)
        if dotted is not None:
            if dotted in SAFE_HANDLER_CALLS or dotted.startswith("signal."):
                return
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in SAFE_METHOD_CALLS
        ):
            return
        callees = self.graph.resolve_call(
            info.module, info, call, all_candidates=True
        )
        if callees:
            for callee in callees:
                self._check_function(callee)
            return
        name = (
            dotted
            or (call.func.id if isinstance(call.func, ast.Name) else None)
            or (
                f"<obj>.{call.func.attr}"
                if isinstance(call.func, ast.Attribute)
                else "<dynamic>"
            )
        )
        self.problems.append(
            (
                info.path,
                call,
                f"call to {name}() is not async-signal-safe",
            )
        )
