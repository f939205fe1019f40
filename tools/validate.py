#!/usr/bin/env python3
"""Ground-truth event validation scorecard CLI.

Runs the workload x machine x event validation matrix (see
``src/repro/validate/``) and prints per-event accuracy classes::

    python tools/validate.py                      # all preset machines
    python tools/validate.py --machines raptor-lake-i7-13700
    python tools/validate.py --strict             # any 'broken' -> exit 1
    python tools/validate.py --engines events    # one engine only
    python tools/validate.py --json scorecard.json
    python tools/validate.py --selftest           # seeded-bug mutation test

``--engines`` (default ``ticks,events``) checks that every row's
measured samples and accuracy class are bit-identical across the
requested engines (the parity law extended to the measurement stack).  ``--selftest`` arms the deliberate kernel
decode bug behind ``REPRO_VALIDATE_SELFTEST`` and exits 2 unless the
harness reports it as ``broken`` — a mutation test of the validator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.common import render_table  # noqa: E402
from repro.hw.machines import MACHINE_PRESETS  # noqa: E402
from repro.validate.harness import (  # noqa: E402
    SELFTEST_ENV,
    Accuracy,
    run_validation,
    selftest_detected,
)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="validate native events against analytic ground truth"
    )
    parser.add_argument(
        "--machines",
        default="all",
        help="comma-separated machine presets, or 'all' (default)",
    )
    parser.add_argument(
        "--engines",
        default="ticks,events",
        help="comma-separated engines to cross-check (default: ticks,events)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-mux",
        action="store_true",
        help="skip the deliberately multiplexed run",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write scorecards as JSON"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if any event classifies 'broken'",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="arm the seeded counter bug and require its detection",
    )
    parser.add_argument(
        "--per-event", action="store_true", help="print every event row"
    )
    return parser.parse_args(argv)


def _machines(arg: str) -> list[str]:
    if arg == "all":
        return sorted(MACHINE_PRESETS)
    names = [m.strip() for m in arg.split(",") if m.strip()]
    for name in names:
        if name not in MACHINE_PRESETS:
            raise SystemExit(
                f"unknown machine {name!r}; known: {sorted(MACHINE_PRESETS)}"
            )
    return names


def _run_selftest(args: argparse.Namespace) -> int:
    machine = _machines(args.machines)[0]
    old = os.environ.get(SELFTEST_ENV)
    os.environ[SELFTEST_ENV] = "1"
    try:
        card = run_validation(
            machine, seed=args.seed, include_mux=not args.no_mux
        )
    finally:
        if old is None:
            del os.environ[SELFTEST_ENV]
        else:
            os.environ[SELFTEST_ENV] = old
    detected = selftest_detected(card)
    broken = [r.event for r in card.broken()]
    print(f"selftest on {machine}: seeded decode bug, broken rows: {broken}")
    if not detected:
        print("SELFTEST FAILED: the harness did not flag the seeded bug")
        return 2
    clean = run_validation(machine, seed=args.seed, include_mux=not args.no_mux)
    if clean.broken():
        print("SELFTEST FAILED: broken rows without the seeded bug")
        return 2
    print("selftest OK: bug detected as 'broken', clean run has none")
    return 0


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if args.selftest:
        return _run_selftest(args)

    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    summary_rows = []
    cards = {}
    parity_ok = True
    any_broken = False
    for machine in _machines(args.machines):
        results = []
        for engine in engines:
            card = run_validation(
                machine,
                engine=engine,
                seed=args.seed,
                include_mux=not args.no_mux,
            )
            results.append(
                (
                    card.class_map(),
                    [(row.key, tuple(row.measured)) for row in card.rows],
                )
            )
            cards[machine] = card
        machine_parity = all(r == results[0] for r in results)
        parity_ok = parity_ok and machine_parity
        card = cards[machine]
        counts = card.counts()
        any_broken = any_broken or counts["broken"] > 0
        summary_rows.append(
            [
                machine,
                str(len(card.rows)),
                str(counts[Accuracy.EXACT.value]),
                str(counts[Accuracy.PROPORTIONAL.value]),
                str(counts[Accuracy.NOISY.value]),
                str(counts[Accuracy.BROKEN.value]),
                "yes" if machine_parity else "NO",
            ]
        )
        if args.per_event:
            for row in card.rows:
                mux = " [mux]" if row.multiplexed else ""
                print(
                    f"  {machine} {row.pmu:12s} {row.event:44s}"
                    f"{mux:6s} {row.accuracy.value}"
                )
    print(
        render_table(
            [
                "machine",
                "events",
                "exact",
                "proportional",
                "noisy",
                "broken",
                "engine-parity",
            ],
            summary_rows,
        )
    )
    if args.json:
        payload = {m: c.to_dict() for m, c in cards.items()}
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"scorecards written to {args.json}")
    if not parity_ok:
        print("FAIL: measured values or accuracy classes differ across engines")
        return 1
    if args.strict and any_broken:
        print("FAIL (--strict): some events classified 'broken'")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
