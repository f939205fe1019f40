"""Engine hot-path allocation discipline.

The simulation engines execute ``Machine.tick`` (and the batching /
leaping machinery around it) millions of times per experiment; the PR
2–5 performance erosion was, profiled call by call, an accumulation of
per-tick allocations that each looked free in review: a dict literal
here, a lambda guard there, a ``getattr`` in a loop.  ``PERF-TICK-
HOTPATH`` makes that cost visible at review time: inside the known
engine-hot-path functions it flags

* dict / list / set / tuple-comprehension literals and comprehensions
  (a fresh container per call),
* ``lambda`` and nested ``def`` (a fresh function object plus closure
  cells per call),
* uncached ``getattr(...)`` calls (dynamic attribute dispatch that
  defeats the interpreter's inline caches).

A flagged pattern is not automatically wrong — ``tick`` genuinely needs
fresh per-tick accumulators — so deliberate cases are recorded in
``lint-baseline.json`` by fingerprint; the rule exists to force a
decision (cache it, hoist it, or baseline it with a reason) whenever a
*new* allocation enters a hot function.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, Severity, SourceModule, register

#: root-relative path -> qualnames of the engine hot-path functions.
#: The tick itself, the per-thread slice executor and accounting flush,
#: and the event engine's replay and span drivers — everything executed
#: per simulated tick (or per replayed / leapt tick) on the measured
#: configurations.
HOT_PATHS: dict[str, frozenset[str]] = {
    "src/repro/sim/engine.py": frozenset(
        {
            "Machine.tick",
            "Machine._execute_slice",
            "Machine._flush_slice",
            "Machine._rate_vec",
        }
    ),
    "src/repro/sim/events.py": frozenset(
        {
            "_Span.guards_hold",
            "_Span.apply_tick",
            "_Span.horizon",
            "_Span.drive",
            "_Span.drive_until",
            "SchedCache.lookup",
            "EventEngine.run_ticks",
            "EventEngine.run_until",
        }
    ),
}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _snippet(node: ast.AST, limit: int = 48) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on our input
        text = type(node).__name__
    text = " ".join(text.split())
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _kind(node: ast.AST) -> str | None:
    if isinstance(node, ast.Dict):
        return "dict literal allocation"
    if isinstance(node, ast.List):
        return "list literal allocation"
    if isinstance(node, ast.Set):
        return "set literal allocation"
    if isinstance(node, _COMPREHENSIONS):
        return "comprehension allocation"
    if isinstance(node, ast.Lambda):
        return "lambda allocation"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
    ):
        return "uncached getattr"
    return None


@register
class TickHotPathRule(Rule):
    id = "PERF-TICK-HOTPATH"
    severity = Severity.WARNING
    description = (
        "per-call allocation patterns (dict/list/set literals, "
        "comprehensions, lambdas, nested defs, uncached getattr) inside "
        "the engine hot-path functions; hoist, cache, or baseline "
        "deliberately"
    )
    scope = ("src/repro/sim/",)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        hot = HOT_PATHS.get(module.path)
        if not hot or module.tree is None:
            return
        for cls in module.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                qual = f"{cls.name}.{fn.name}"
                if qual in hot:
                    yield from self._check_function(module, fn, qual)

    def _check_function(
        self, module: SourceModule, fn: ast.FunctionDef, qual: str
    ) -> Iterator[Finding]:
        # Manual stack walk so nested function bodies are *not*
        # descended into: the nested def itself is the per-call cost;
        # its body runs on its own schedule.
        stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield self.finding(
                    module,
                    node,
                    f"nested def {node.name!r} creates a function object "
                    f"per call of {qual}; hoist it or baseline deliberately",
                    symbol=qual,
                )
                continue
            kind = _kind(node)
            if kind is not None:
                yield self.finding(
                    module,
                    node,
                    f"{kind} on every call of {qual}: "
                    f"`{_snippet(node)}`; hoist, cache, or baseline "
                    "deliberately",
                    symbol=qual,
                )
                if isinstance(node, ast.Lambda):
                    continue  # the body runs later, on its own schedule
            stack.extend(ast.iter_child_nodes(node))
