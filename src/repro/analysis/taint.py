"""Determinism taint: nondeterministic values must not reach durable state.

``DET-WALLCLOCK``/``DET-RANDOM`` ban host time and entropy *inside* the
deterministic layers.  The supervisor layer legitimately consults the wall
clock (timeouts, heartbeats) — the invariant there is subtler: those
values may steer *scheduling* but must never flow into the surfaces
resume-equivalence diffs byte-for-byte:

* journal record payloads (replayed journals must match reruns),
* digest inputs (``spec_digest``/``state_digest`` key the result cache
  and checkpoint identity — a wall-clock byte in either breaks
  idempotent admission and zero-launch cache hits).

This pass taints ``time.time()``-family, OS-entropy, and unseeded-RNG
call results, propagates through assignments and (interprocedurally)
through helper returns using the call graph, and reports any tainted
expression reaching one of those sinks as ``DET-TAINT``.  The sanctioned
injected-clock pattern (``clock: Callable = time.monotonic`` passed as a
*reference* and consulted for scheduling only) never fires: a function
reference is not a call, and scheduling state is not a sink.
"""

from __future__ import annotations

import ast
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
    resolve_dotted,
)
from repro.analysis.protocol import _journal_append_receiver
from repro.analysis.rules_determinism import (
    ENTROPY_CALLS,
    NUMPY_RANDOM_ALLOWED,
    RANDOM_MODULE_ALLOWED,
    WALLCLOCK_CALLS,
)

#: Functions whose arguments feed digests / cache keys.
DIGEST_SINKS = ("spec_digest", "state_digest")

#: Module roots any direct nondeterminism source resolves through; a
#: function whose call-name bag touches none of a module's imports of
#: these cannot be *directly* tainted (only through a tainted callee).
_SOURCE_ROOTS = ("time", "datetime", "random", "os", "uuid", "secrets", "numpy")


def _source_of(call: ast.Call, origins: dict[str, str]) -> Optional[str]:
    """Why this call is a nondeterminism source, or None."""
    dotted = resolve_dotted(call.func, origins)
    if dotted is None:
        return None
    if dotted in WALLCLOCK_CALLS:
        return f"wall-clock {dotted}()"
    if dotted in ENTROPY_CALLS or dotted.startswith("secrets."):
        return f"OS-entropy {dotted}()"
    if (
        dotted.startswith("random.")
        and dotted.count(".") == 1
        and dotted not in RANDOM_MODULE_ALLOWED
    ):
        return f"process-global RNG {dotted}()"
    if dotted.startswith("numpy.random.") and dotted not in NUMPY_RANDOM_ALLOWED:
        return f"numpy global-RNG {dotted}()"
    return None


class _FuncTaint:
    """Flow-insensitive taint over one function's locals."""

    def __init__(
        self,
        info: FunctionInfo,
        graph: CallGraph,
        origins: dict[str, str],
        tainted_returns: set[tuple[str, str]],
    ):
        self.info = info
        self.graph = graph
        self.origins = origins
        self.tainted_returns = tainted_returns
        self.tainted_names: set[str] = set()
        self._fixpoint()

    def _fixpoint(self) -> None:
        for _ in range(20):
            changed = False
            for node in walk_shallow(self.info.node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                elif isinstance(node, ast.AugAssign):
                    target, value = node.target, node.value
                if (
                    isinstance(target, ast.Name)
                    and value is not None
                    and target.id not in self.tainted_names
                    and self.taint_reason(value) is not None
                ):
                    self.tainted_names.add(target.id)
                    changed = True
            if not changed:
                return

    def taint_reason(self, expr: ast.expr) -> Optional[str]:
        """Why the expression carries nondeterminism, or None."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                source = _source_of(node, self.origins)
                if source is not None:
                    return source
                for callee in self.graph.resolve_call(
                    self.info.module, self.info, node
                ):
                    if callee.key in self.tainted_returns:
                        return (
                            f"return value of {callee.qualname}() "
                            "(which reads a nondeterministic source)"
                        )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in self.tainted_names
            ):
                return f"tainted local {node.id!r}"
        return None

    def returns_tainted(self) -> bool:
        for node in walk_shallow(self.info.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if self.taint_reason(node.value) is not None:
                    return True
        return False


@register
class DeterminismTaintRule(ProgramRule):
    id = "DET-TAINT"
    severity = Severity.ERROR
    description = (
        "wall-clock/entropy values must not flow (even through helpers) "
        "into journal records or digest inputs — those surfaces must be "
        "byte-stable across reruns and resumes"
    )
    scope = ("src/repro/supervisor", "tools")

    def check_program(self, modules: list[SourceModule]) -> Iterator[Finding]:
        graph = build_call_graph(modules)

        def may_source_directly(info: FunctionInfo) -> bool:
            bag = graph.name_bag(info)
            origins = info.module.origins
            return any(
                origins.get(name, "").partition(".")[0] in _SOURCE_ROOTS
                for name in bag
            )

        # Interprocedural summary fixpoint: which functions return taint.
        # A function can only become tainted by calling a source module
        # directly or by calling an already-tainted function, so anything
        # whose call-name bag touches neither is skipped untasted.
        tainted_returns: set[tuple[str, str]] = set()
        tainted_leafs: set[str] = set()
        for _ in range(6):
            grew = False
            for info in graph.functions.values():
                if info.key in tainted_returns:
                    continue
                if not may_source_directly(info) and not (
                    graph.name_bag(info) & tainted_leafs
                ):
                    continue
                ft = _FuncTaint(
                    info, graph, info.module.origins, tainted_returns
                )
                if ft.returns_tainted():
                    tainted_returns.add(info.key)
                    tainted_leafs.add(info.name)
                    grew = True
            if not grew:
                break

        sinkish = {"append", "append_many", *DIGEST_SINKS}
        for info in graph.functions.values():
            if not (graph.name_bag(info) & sinkish):
                continue
            ft = _FuncTaint(info, graph, info.module.origins, tainted_returns)
            yield from self._check_sinks(info, ft)

    def _check_sinks(self, info: FunctionInfo, ft: _FuncTaint) -> Iterator[Finding]:
        for node in walk_shallow(info.node):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "append_many")
                and node.args
                and _journal_append_receiver(node, info.cls)
            ):
                reason = ft.taint_reason(node.args[0])
                if reason is not None:
                    yield self.finding_at(
                        info.path,
                        node,
                        f"nondeterministic value ({reason}) flows into a "
                        "journal append; replayed journals would diverge "
                        "from reruns",
                        symbol=info.qualname,
                    )
            elif (
                isinstance(node.func, (ast.Name, ast.Attribute))
                and (
                    node.func.id
                    if isinstance(node.func, ast.Name)
                    else node.func.attr
                )
                in DIGEST_SINKS
            ):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    reason = ft.taint_reason(arg)
                    if reason is not None:
                        yield self.finding_at(
                            info.path,
                            node,
                            f"nondeterministic value ({reason}) flows into "
                            "a digest input; cache keys and checkpoint "
                            "identity would change every run",
                            symbol=info.qualname,
                        )
                        break
