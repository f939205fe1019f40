"""``python -m repro.analysis`` — the repro-lint command line.

Exit codes: 0 clean, 1 findings (or parse errors), 2 usage errors.
``--strict`` also fails on warnings and unused suppressions; the
default mode fails on errors only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.core import RULE_REGISTRY, all_rules
from repro.analysis.driver import DEFAULT_PATHS, run_analysis
from repro.analysis.report import render_human, render_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repro-lint: statically enforce the simulator's determinism "
            "and PAPI-contract invariants"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to analyze (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root paths are relative to (default: cwd)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings and unused suppressions too, not only errors",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON report",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE-ID",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    # Loads the rule modules, which fills RULE_REGISTRY.
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id:16s} [{rule.severity}] {rule.description}")
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"error: root {args.root!r} is not a directory", file=sys.stderr)
        return 2
    unknown = set(args.rules or ()) - set(RULE_REGISTRY)
    if unknown:
        print(
            f"error: unknown rule(s): {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2

    result = run_analysis(root, paths=args.paths, only_rules=args.rules)
    render = render_json if args.json else render_human
    print(render(result, strict=args.strict))
    return 1 if result.failed(strict=args.strict) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
