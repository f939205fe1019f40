"""Human and JSON reporters for analysis results."""

from __future__ import annotations

import json

from repro.analysis.core import Finding
from repro.analysis.driver import AnalysisResult


def render_human(result: AnalysisResult, strict: bool = False) -> str:
    lines: list[str] = []
    by_file: dict[str, list[Finding]] = {}
    for finding in result.new_findings:
        by_file.setdefault(finding.path, []).append(finding)
    for path in sorted(by_file):
        for finding in by_file[path]:
            lines.append(finding.render())
    for path, err in result.parse_errors:
        lines.append(f"{path}: PARSE-ERROR error: {err}")
    for unused in result.unused_suppressions:
        lines.append(unused.render())
    lines.append("")
    verdict = "FAILED" if result.failed(strict) else "ok"
    lines.append(
        f"repro-lint: {verdict} — {result.files_checked} files, "
        f"{len(result.rules_run)} rules, "
        f"{len(result.new_findings)} finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)


def _finding_dict(finding: Finding) -> dict:
    return {
        "rule": finding.rule,
        "severity": str(finding.severity),
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "symbol": finding.symbol,
    }


def render_json(result: AnalysisResult, strict: bool = False) -> str:
    payload = {
        "version": 2,
        "failed": result.failed(strict),
        "files_checked": result.files_checked,
        "rules_run": result.rules_run,
        "findings": [_finding_dict(f) for f in result.new_findings],
        "suppressed": [_finding_dict(f) for f in result.suppressed],
        "unused_suppressions": [
            {"path": u.path, "line": u.line, "rule": u.rule}
            for u in result.unused_suppressions
        ],
        "parse_errors": [
            {"path": p, "error": e} for p, e in result.parse_errors
        ],
    }
    return json.dumps(payload, indent=2)
