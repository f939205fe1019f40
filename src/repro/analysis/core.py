"""Core model of the repro-lint static analyzer.

The analyzer enforces, *before* anything runs, the two invariant
families the rest of the stack only checks dynamically:

* **determinism** — the bit-identity guarantees (engine parity,
  checkpoint/restore) hold only if no sim-layer code consults wall
  clocks, OS entropy, the process-global ``random`` module, or
  PYTHONHASHSEED-sensitive iteration order;
* **PAPI/perf contracts** — the eventset lifecycle and perf fd
  discipline whose violation the paper shows is *silent* (an event on
  the wrong core type counts zero, a leaked fd keeps charging syscall
  cost).

This module holds the shared vocabulary: :class:`Finding`,
:class:`Rule`, the rule registry, and :class:`SourceModule` (one parsed
file plus its ``# repro-lint: disable=...`` suppressions).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str                 # root-relative, posix separators
    line: int
    col: int
    message: str
    symbol: str = ""          # enclosing function/class qualname, if any

    def render(self) -> str:
        where = f" [{self.symbol}]" if self.symbol else ""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.severity}: {self.message}{where}"
        )


#: The suppression comment: ``disable=`` followed by a comma-separated
#: list of rule ids, or by ``all``.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_\-,\s]+|all)")


class SourceModule:
    """One parsed source file, with suppression comments resolved."""

    def __init__(self, path: str, text: str):
        self.path = path          # root-relative posix path
        self.text = text
        self.lines = text.splitlines()
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        self._origins: Optional[dict[str, str]] = None
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            self.parse_error = exc
        #: line number -> set of rule ids (or {"all"}) disabled there.
        self.suppressions: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            m = _SUPPRESS_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                self.suppressions[lineno] = rules

    @property
    def origins(self) -> dict[str, str]:
        """Cached :func:`import_origins` of this module (empty when the
        module failed to parse)."""
        if self._origins is None:
            self._origins = (
                import_origins(self.tree) if self.tree is not None else {}
            )
        return self._origins

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if not rules:
            return False
        return "all" in rules or finding.rule in rules

    @classmethod
    def load(cls, root: Path, relpath: str) -> "SourceModule":
        text = (root / relpath).read_text(encoding="utf-8")
        return cls(relpath, text)


class Rule:
    """Base class: one named invariant checked against one module.

    ``scope`` restricts the rule to files whose root-relative path
    starts with one of the given prefixes (``None`` = every analyzed
    file).  Rules are registered with :func:`register` and instantiated
    fresh per run.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    scope: Optional[tuple[str, ...]] = None

    def applies_to(self, relpath: str) -> bool:
        if self.scope is None:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: SourceModule,
        node: ast.AST,
        message: str,
        symbol: str = "",
        severity: Optional[Severity] = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=severity or self.severity,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


class ProgramRule(Rule):
    """A rule that sees the whole program at once.

    Per-module :meth:`check` is a no-op; the driver calls
    :meth:`check_program` exactly once with every parsed module.  The
    ``scope`` attribute still gates which files the rule *reports on*
    (via :meth:`applies_to`), but a program rule may read any module to
    build its call graph or protocol tables.
    """

    def check(self, module: SourceModule) -> Iterator[Finding]:
        return iter(())

    def check_program(self, modules: list[SourceModule]) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(
        self,
        path: str,
        node: ast.AST,
        message: str,
        symbol: str = "",
        severity: Optional[Severity] = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=severity or self.severity,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


#: rule id -> rule class
RULE_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"{cls.__name__} has no rule id")
    if cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def all_rules(only: Optional[Iterable[str]] = None) -> list[Rule]:
    """Fresh instances of every registered rule (or a named subset)."""
    # Importing the rule modules populates the registry.
    from repro.analysis import protocol  # noqa: F401
    from repro.analysis import rules_concurrency  # noqa: F401
    from repro.analysis import rules_determinism  # noqa: F401
    from repro.analysis import rules_papi  # noqa: F401
    from repro.analysis import rules_surface  # noqa: F401
    from repro.analysis import taint  # noqa: F401

    wanted = set(only) if only is not None else None
    rules = []
    for rule_id in sorted(RULE_REGISTRY):
        if wanted is None or rule_id in wanted:
            rules.append(RULE_REGISTRY[rule_id]())
    if wanted:
        unknown = wanted - set(RULE_REGISTRY)
        if unknown:
            raise KeyError(f"unknown rule(s): {', '.join(sorted(unknown))}")
    return rules


# -- shared AST helpers ------------------------------------------------------


def import_origins(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import time`` -> ``{"time": "time"}``;
    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime as dt`` ->
    ``{"dt": "datetime.datetime"}``.
    """
    origins: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origins[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                origins[local] = f"{node.module}.{alias.name}"
    return origins


def resolve_dotted(node: ast.expr, origins: dict[str, str]) -> Optional[str]:
    """Resolve ``np.random.seed`` to ``"numpy.random.seed"`` using the
    import map; ``None`` when the expression is not a plain dotted name.
    """
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    base = origins.get(cur.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def enclosing_symbols(tree: ast.Module) -> dict[int, str]:
    """Map every AST node id to its enclosing function/class qualname."""
    out: dict[int, str] = {}

    def visit(node: ast.AST, qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_qual = qual
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_qual = f"{qual}.{child.name}" if qual else child.name
            out[id(child)] = child_qual
            visit(child, child_qual)

    visit(tree, "")
    return out


@dataclass
class LiteralEnv:
    """Constant bindings usable for best-effort literal resolution.

    Tracks ``NAME = <literal str / list / tuple / dict>`` assignments at
    module scope and within one function, so rules can see through
    simple indirection like a module-level ``EVENTSET_CONFIGS`` table.
    """

    bindings: dict[str, ast.expr] = field(default_factory=dict)

    @classmethod
    def from_scope(
        cls, body: list[ast.stmt], parent: Optional["LiteralEnv"] = None
    ) -> "LiteralEnv":
        env = cls(dict(parent.bindings) if parent else {})
        for stmt in body:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and _is_literalish(value):
                    env.bindings[target.id] = value
        return env

    def resolve_strings(self, node: ast.expr, depth: int = 0) -> list[str]:
        """All literal strings an expression can denote (best effort)."""
        if depth > 4:
            return []
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out: list[str] = []
            for elt in node.elts:
                out.extend(self.resolve_strings(elt, depth + 1))
            return out
        if isinstance(node, ast.Name):
            bound = self.bindings.get(node.id)
            if bound is not None:
                return self.resolve_strings(bound, depth + 1)
        return []


def _is_literalish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return all(_is_literalish(e) for e in node.elts)
    if isinstance(node, ast.Dict):
        return all(k is not None and _is_literalish(k) for k in node.keys) and all(
            _is_literalish(v) for v in node.values
        )
    return False
