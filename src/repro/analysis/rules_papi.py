"""PAPI / perf contract rules.

The paper's central hazard is *silent* misuse: an event added to an
EventSet counts zero on the wrong core type with no error, a leaked
EventSet or perf fd keeps charging syscall cost forever, a read before
start returns garbage only at runtime.  These rules check the protocol
statically:

* ``PAPI-LIFECYCLE`` — typestate over the eventset handle: ``create ->
  add -> start -> stop -> cleanup/destroy``; flags read-before-start,
  double-start, stop-without-running, use-after-destroy, and handles
  that fall off the end of a function undestroyed.  It runs over the
  whole program, so handles are followed through creator and closer
  helpers and into ``self.<field>`` (:mod:`repro.analysis.interproc`);
* ``PAPI-FD-LEAK`` — the same engine over ``perf_event_open`` fds;
* ``PAPI-PMU-MIX`` — eventsets whose *literal* event names resolve to
  different core-PMU types (``adl_glc`` vs ``adl_grt``, ``arm_a72`` vs
  ``arm_a53``).  Mixing is exactly what hybrid mode supports, but each
  event still counts zero whenever the thread runs on the other core
  type, so every mix must be a conscious decision — suppress the
  deliberate ones inline.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    LiteralEnv,
    ProgramRule,
    Rule,
    Severity,
    SourceModule,
    enclosing_symbols,
    register,
)
from repro.analysis.interproc import analyze_program
from repro.analysis.typestate import Protocol

# -- the eventset protocol ---------------------------------------------------

EVENTSET_PROTOCOL = Protocol(
    name="eventset",
    creators={"create_eventset": "new"},
    transitions={
        ("new", "attach"): "new",
        ("new", "set_multiplex"): "new",
        ("new", "add_event"): "new",
        ("new", "add_events"): "new",
        ("new", "start"): "running",
        ("running", "read"): "running",
        ("running", "reset"): "running",
        ("running", "accum"): "running",
        ("running", "overflow"): "running",
        ("running", "stop"): "stopped",
        ("stopped", "read"): "stopped",
        ("stopped", "reset"): "stopped",
        ("stopped", "add_event"): "stopped",
        ("stopped", "add_events"): "stopped",
        ("stopped", "overflow"): "stopped",
        ("stopped", "start"): "running",
        ("new", "cleanup_eventset"): "new",
        ("stopped", "cleanup_eventset"): "new",
        ("new", "destroy_eventset"): "destroyed",
        ("stopped", "destroy_eventset"): "destroyed",
    },
    errors={
        ("new", "read"): "EventSet {var!r} is read before it is ever started",
        ("new", "stop"): "EventSet {var!r} is stopped but was never started",
        ("new", "reset"): "EventSet {var!r} is reset before it is ever started",
        ("new", "accum"): "EventSet {var!r} is accumulated before it is started",
        ("running", "start"): "EventSet {var!r} is started twice without a stop",
        ("running", "add_event"): (
            "adding an event to EventSet {var!r} while it is counting"
        ),
        ("running", "add_events"): (
            "adding events to EventSet {var!r} while it is counting"
        ),
        ("running", "cleanup_eventset"): (
            "cleaning up EventSet {var!r} while it is counting"
        ),
        ("running", "destroy_eventset"): (
            "destroying EventSet {var!r} while it is counting; stop it first"
        ),
        ("stopped", "stop"): "EventSet {var!r} is stopped twice",
        ("destroyed", "*"): "EventSet {var!r} is used after destroy_eventset",
    },
    neutral=frozenset({"num_groups", "last_status", "names", "eventset"}),
    leak_states=frozenset({"new", "running", "stopped"}),
    leak_message=(
        "EventSet {var!r} is created here but never destroyed on any path "
        "(its kernel fds and slots leak); call destroy_eventset"
    ),
)

FD_PROTOCOL = Protocol(
    name="perf-fd",
    creators={"perf_event_open": "open"},
    transitions={
        ("open", "ioctl"): "open",
        ("open", "read"): "open",
        ("open", "close"): "closed",
    },
    errors={
        ("closed", "ioctl"): "perf fd {var!r} is used after close",
        ("closed", "read"): "perf fd {var!r} is read after close",
        ("closed", "close"): "perf fd {var!r} is closed twice",
    },
    neutral=frozenset({"_event"}),
    leak_states=frozenset({"open"}),
    leak_message=(
        "perf fd {var!r} from perf_event_open is never closed on any path; "
        "the event keeps counting and charging syscall cost"
    ),
)


@register
class EventSetLifecycleRule(ProgramRule):
    id = "PAPI-LIFECYCLE"
    severity = Severity.ERROR
    description = (
        "eventset handles must follow create -> add -> start -> stop -> "
        "destroy, followed through helpers and self.<field>; misordered "
        "calls fail (or lie) at runtime"
    )

    protocol = EVENTSET_PROTOCOL

    def check_program(self, modules: list[SourceModule]) -> Iterator[Finding]:
        for path, symbol, violation in analyze_program(modules, self.protocol):
            yield self.finding_at(
                path, violation.node, violation.message, symbol=symbol
            )


@register
class PerfFdLeakRule(EventSetLifecycleRule):
    id = "PAPI-FD-LEAK"
    severity = Severity.ERROR
    description = (
        "fds from perf_event_open must reach close() on every normal path, "
        "followed through helpers and self.<field>"
    )

    protocol = FD_PROTOCOL


# -- PMU mixing --------------------------------------------------------------

#: Core-PMU table names by machine family, mirroring
#: repro.pfmlib.tables.  Only *core* PMUs participate: mixing a core
#: event with uncore/RAPL is a component conflict the library already
#: rejects loudly, whereas a core-PMU mix is the paper's silent one.
CORE_PMU_FAMILIES: dict[str, str] = {
    "adl_glc": "intel-hybrid",
    "adl_grt": "intel-hybrid",
    "skl": "intel",
    "arm_a72": "arm-biglittle",
    "arm_a53": "arm-biglittle",
    "arm_a57": "arm-biglittle",
}


def _pmu_of(event_name: str) -> str | None:
    if "::" not in event_name:
        return None
    pmu = event_name.split("::", 1)[0]
    return pmu if pmu in CORE_PMU_FAMILIES else None


@register
class PmuMixRule(Rule):
    id = "PAPI-PMU-MIX"
    severity = Severity.WARNING
    description = (
        "an eventset mixing events of several core-PMU types counts zero "
        "on whichever core type each event does not match; make sure that "
        "is intended (derived sums) and suppress the site"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.tree is None:
            return
        symbols = enclosing_symbols(module.tree)
        module_env = LiteralEnv.from_scope(module.tree.body)
        scopes: list[tuple[ast.AST, LiteralEnv]] = [(module.tree, module_env)]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(
                    (node, LiteralEnv.from_scope(node.body, module_env))
                )
        for scope, env in scopes:
            yield from self._check_scope(module, scope, env, symbols)

    def _check_scope(
        self,
        module: SourceModule,
        scope: ast.AST,
        env: LiteralEnv,
        symbols: dict[int, str],
    ) -> Iterator[Finding]:
        env = LiteralEnv(dict(env.bindings))
        self._bind_loop_vars(scope, env)
        # eventset expression (dump) -> [(pmu, event, call node), ...]
        per_es: dict[str, list[tuple[str, str, ast.Call]]] = {}
        own_funcs = {
            id(n)
            for f in ast.walk(scope)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f is not scope
            for n in ast.walk(f)
        }
        for node in ast.walk(scope):
            if id(node) in own_funcs:
                continue  # nested functions are their own scopes
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("add_event", "add_events")
                and len(node.args) >= 2
            ):
                continue
            es_key = ast.dump(node.args[0])
            for name in env.resolve_strings(node.args[1]):
                pmu = _pmu_of(name)
                if pmu is not None:
                    per_es.setdefault(es_key, []).append((pmu, name, node))
        for entries in per_es.values():
            pmus = {pmu for pmu, _, _ in entries}
            if len(pmus) < 2:
                continue
            first = entries[0][2]
            listing = ", ".join(sorted(pmus))
            yield self.finding(
                module,
                first,
                f"eventset mixes events from core PMUs {listing}; each "
                "event counts zero when the thread runs on the other core "
                "type",
                symbol=symbols.get(id(first), ""),
            )

    def _bind_loop_vars(self, scope: ast.AST, env: LiteralEnv) -> None:
        """Bind ``for name in <resolvable>`` loop targets to the literal
        elements, including ``for k, v in TABLE.items()`` over a literal
        module-level dict."""
        for node in ast.walk(scope):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            iter_expr = node.iter
            # TABLE.items() / TABLE.values() over a known literal dict.
            if (
                isinstance(iter_expr, ast.Call)
                and isinstance(iter_expr.func, ast.Attribute)
                and iter_expr.func.attr in ("items", "values")
                and isinstance(iter_expr.func.value, ast.Name)
            ):
                bound = env.bindings.get(iter_expr.func.value.id)
                if isinstance(bound, ast.Dict):
                    values = [v for v in bound.values]
                    target = node.target
                    if iter_expr.func.attr == "values" and isinstance(
                        target, ast.Name
                    ):
                        env.bindings[target.id] = ast.List(elts=values)
                    elif (
                        iter_expr.func.attr == "items"
                        and isinstance(target, ast.Tuple)
                        and len(target.elts) == 2
                        and isinstance(target.elts[1], ast.Name)
                    ):
                        env.bindings[target.elts[1].id] = ast.List(elts=values)
                continue
            strings = env.resolve_strings(iter_expr)
            if strings and isinstance(node.target, ast.Name):
                env.bindings[node.target.id] = ast.List(
                    elts=[ast.Constant(value=s) for s in strings]
                )
