"""Determinism rules.

Bit-identical replay (engine parity, checkpoint/restore) holds only if
the simulation layers are closed over their seeds: no wall clock, no OS
entropy, no process-global RNG, no hash-order-dependent iteration, no
identity-based ordering.  These rules fence those layers statically.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import (
    Finding,
    Rule,
    Severity,
    SourceModule,
    enclosing_symbols,
    import_origins,
    register,
    resolve_dotted,
)

#: The layers whose behaviour must be a pure function of (machine, seed).
DETERMINISTIC_SCOPE = (
    "src/repro/sim",
    "src/repro/kernel",
    "src/repro/hw",
    "src/repro/faults",
    "src/repro/hpl",
    "src/repro/trace",
    "src/repro/validate",
)

#: Dotted call targets that read host wall-clock time.
WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: ``random.<anything>`` except these is the process-global Mersenne
#: twister (or OS entropy) and is banned; seeded ``random.Random``
#: instances are the sanctioned source of simulated randomness.
RANDOM_MODULE_ALLOWED = {"random.Random"}

#: Other entropy sources, banned outright.
ENTROPY_CALLS = {
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "random.SystemRandom",
}

#: The legacy numpy global-RNG surface; ``default_rng(seed)`` and
#: explicit ``Generator``/``SeedSequence`` construction stay legal.
NUMPY_RANDOM_ALLOWED = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
}


@register
class WallClockRule(Rule):
    id = "DET-WALLCLOCK"
    severity = Severity.ERROR
    description = (
        "sim layers must take time from SimClock, never from the host "
        "wall clock (time.time, datetime.now, ...)"
    )
    scope = DETERMINISTIC_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.tree is None:
            return
        origins = import_origins(module.tree)
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, origins)
            if dotted in WALLCLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"host wall-clock call {dotted}() in a deterministic "
                    "layer; use the simulated clock",
                    symbol=symbols.get(id(node), ""),
                )


@register
class UnseededRandomRule(Rule):
    id = "DET-RANDOM"
    severity = Severity.ERROR
    description = (
        "only seeded random.Random (or numpy default_rng(seed)) instances "
        "may generate randomness; the module-level RNG and OS entropy are "
        "banned"
    )
    scope = DETERMINISTIC_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.tree is None:
            return
        origins = import_origins(module.tree)
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, origins)
            if dotted is None:
                continue
            message: Optional[str] = None
            if dotted in ENTROPY_CALLS:
                message = f"OS-entropy call {dotted}()"
            elif dotted.startswith("secrets."):
                message = f"OS-entropy call {dotted}()"
            elif (
                dotted.startswith("random.")
                and dotted.count(".") == 1
                and dotted not in RANDOM_MODULE_ALLOWED
            ):
                message = f"process-global RNG call {dotted}()"
            elif (
                dotted.startswith("numpy.random.")
                and dotted not in NUMPY_RANDOM_ALLOWED
            ):
                message = f"numpy global-RNG call {dotted}()"
            if message is not None:
                yield self.finding(
                    module,
                    node,
                    f"{message} in a deterministic layer; route randomness "
                    "through a seeded random.Random",
                    symbol=symbols.get(id(node), ""),
                )


def _set_producing_methods() -> frozenset[str]:
    return frozenset(
        {"intersection", "union", "difference", "symmetric_difference", "copy"}
    )


class _SetTracker:
    """Best-effort recognition of expressions that denote a ``set``."""

    def __init__(self, func: ast.AST):
        self.set_vars: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and self.is_set_expr(node.value):
                    self.set_vars.add(target.id)

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _set_producing_methods()
                and self.is_set_expr(node.func.value)
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        return False


@register
class HashOrderIterationRule(Rule):
    id = "DET-HASH-ITER"
    severity = Severity.ERROR
    description = (
        "iterating a set (or materializing one with list()/tuple()) leaks "
        "PYTHONHASHSEED-dependent order; wrap in sorted()"
    )
    scope = DETERMINISTIC_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.tree is None:
            return
        symbols = enclosing_symbols(module.tree)
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(
            n
            for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        seen: set[int] = set()
        for scope in scopes:
            tracker = _SetTracker(scope)
            for node in ast.walk(scope):
                if id(node) in seen:
                    continue
                iter_expr: Optional[ast.expr] = None
                what = ""
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iter_expr, what = node.iter, "for-loop over"
                elif isinstance(node, ast.comprehension):
                    iter_expr, what = node.iter, "comprehension over"
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id in ("list", "tuple", "enumerate") and node.args:
                        iter_expr = node.args[0]
                        what = f"{node.func.id}() over"
                if iter_expr is None:
                    continue
                # Unwrap enumerate(sorted(...)) etc: sorted() launders order.
                if (
                    isinstance(iter_expr, ast.Call)
                    and isinstance(iter_expr.func, ast.Name)
                    and iter_expr.func.id == "sorted"
                ):
                    continue
                if tracker.is_set_expr(iter_expr):
                    seen.add(id(node))
                    anchor = iter_expr if hasattr(iter_expr, "lineno") else node
                    yield self.finding(
                        module,
                        anchor,
                        f"{what} a set iterates in PYTHONHASHSEED order; "
                        "use sorted(...) to fix the order",
                        symbol=symbols.get(id(anchor), symbols.get(id(node), "")),
                    )


@register
class IdentityOrderRule(Rule):
    id = "DET-ID-ORDER"
    severity = Severity.ERROR
    description = (
        "ordering by id() depends on allocator addresses and varies "
        "between runs"
    )
    scope = DETERMINISTIC_SCOPE

    _ORDER_FUNCS = ("sorted", "min", "max")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.tree is None:
            return
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            is_order_call = (
                isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_FUNCS
            ) or (isinstance(node.func, ast.Attribute) and node.func.attr == "sort")
            if not is_order_call:
                continue
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                uses_id = (
                    isinstance(kw.value, ast.Name) and kw.value.id == "id"
                ) or any(
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)
                    and n.func.id == "id"
                    for n in ast.walk(kw.value)
                )
                if uses_id:
                    yield self.finding(
                        module,
                        node,
                        "ordering key uses id(); object addresses are not "
                        "stable across runs",
                        symbol=symbols.get(id(node), ""),
                    )
