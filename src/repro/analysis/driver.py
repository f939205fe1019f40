"""Analysis driver: walk files, run rules, fold in suppressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.core import (
    Finding,
    ProgramRule,
    Rule,
    Severity,
    SourceModule,
    all_rules,
)

#: Default analysis roots, relative to the repo root.  tests/ is
#: deliberately excluded: tests exercise bad lifecycles on purpose.
DEFAULT_PATHS = ("src/repro", "examples", "tools", "benchmarks")

#: Directories never descended into.
SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


@dataclass(frozen=True)
class UnusedSuppression:
    """A ``disable=`` entry naming a rule that ran and found nothing there."""

    path: str
    line: int
    rule: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: unused suppression: {self.rule} "
            "found nothing on this line"
        )


@dataclass
class AnalysisResult:
    """Everything one run produced, pre-classified."""

    new_findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    unused_suppressions: list[UnusedSuppression] = field(default_factory=list)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)

    def failed(self, strict: bool = False) -> bool:
        if strict:
            return bool(
                self.new_findings or self.unused_suppressions or self.parse_errors
            )
        return bool(
            [f for f in self.new_findings if f.severity is Severity.ERROR]
            or self.parse_errors
        )


def discover_files(root: Path, paths: Sequence[str]) -> list[str]:
    """Root-relative posix paths of every ``.py`` file under ``paths``."""
    out: set[str] = set()
    for rel in paths:
        target = root / rel
        if target.is_file() and target.suffix == ".py":
            out.add(Path(rel).as_posix())
        elif target.is_dir():
            for path in target.rglob("*.py"):
                if any(part in SKIP_DIRS for part in path.parts):
                    continue
                out.add(path.relative_to(root).as_posix())
    return sorted(out)


def run_analysis(
    root: Path,
    paths: Sequence[str] = DEFAULT_PATHS,
    rules: Optional[Sequence[Rule]] = None,
    only_rules: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Analyze every file under ``paths`` (relative to ``root``).

    A suppression comment that names a rule which ran but found nothing
    on its line is reported in ``unused_suppressions``; rules left out
    of the run (``only_rules``) cannot make a suppression unused.
    """
    active = list(rules) if rules is not None else all_rules(only_rules)
    result = AnalysisResult(rules_run=[r.id for r in active])

    per_module = [r for r in active if not isinstance(r, ProgramRule)]
    program = [r for r in active if isinstance(r, ProgramRule)]

    modules: dict[str, SourceModule] = {}
    for relpath in discover_files(root, paths):
        module = SourceModule.load(root, relpath)
        modules[relpath] = module
        if module.parse_error is not None:
            result.parse_errors.append((relpath, str(module.parse_error)))

    # (path, line) -> rule ids whose findings a suppression there absorbed
    used: dict[tuple[str, int], set[str]] = {}

    def classify(module: Optional[SourceModule], finding: Finding) -> None:
        if module is not None and module.is_suppressed(finding):
            result.suppressed.append(finding)
            used.setdefault((finding.path, finding.line), set()).add(finding.rule)
        else:
            result.new_findings.append(finding)

    for relpath, module in modules.items():
        if module.parse_error is not None:
            continue
        applicable = [r for r in per_module if r.applies_to(relpath)]
        if not applicable and not program:
            continue
        result.files_checked += 1
        for rule in applicable:
            for finding in rule.check(module):
                classify(module, finding)

    parsed = [m for m in modules.values() if m.parse_error is None]
    if parsed:
        for rule in program:
            for finding in rule.check_program(parsed):
                if rule.applies_to(finding.path):
                    classify(modules.get(finding.path), finding)

    ran = set(result.rules_run)
    for module in parsed:
        for line, named in sorted(module.suppressions.items()):
            hit = used.get((module.path, line), set())
            for rule_id in sorted((named & ran) - hit):
                result.unused_suppressions.append(
                    UnusedSuppression(module.path, line, rule_id)
                )

    result.new_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return result
