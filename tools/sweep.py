#!/usr/bin/env python3
"""Run HPL experiment sweeps under the fault-tolerant supervisor.

::

    python tools/sweep.py --out runs/sweep1
    # ... SIGKILL at any point (workers, supervisor, or both) ...
    python tools/sweep.py --out runs/sweep1 --resume

``--resume`` replays the journal, reaps the workers a killed supervisor
left running, skips runs already done, and restarts the rest from their
latest checkpoint; the results are bit-identical to a sweep that was
never interrupted (``tools/resume_equivalence.py`` is the CI gate that
enforces exactly that).  A spec whose run id already names a different
spec in the journal (say, a ``--resume`` with a changed ``--slice-s``)
is rejected with its reason, not run.  ``--dry-run`` prints the plan
the sweep would carry out — every run it would admit, skip (done or
served from ``--cache-dir``), resume, requeue, fail (attempt budget
already spent) or reject, journaled runs that were not resubmitted
included — and touches nothing.

Exit codes: 0 success; 1 failed runs, rejected specs or unfinished
runs; 3 drained on SIGTERM (``--resume`` finishes the job); 4 the
journal is corrupt or of another version and cannot be trusted
(restore ``journal.jsonl`` or start a fresh ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.supervisor import (  # noqa: E402
    DONE,
    FAILED,
    FATES,
    JournalError,
    PlannedRun,
    RunSpec,
    Supervisor,
)

#: Exit code when the sweep drained on SIGTERM (resume to continue).
EXIT_DRAINED = 3
#: Exit code when the journal is corrupt (mid-file tear, bad version,
#: unknown events): nothing was touched; restore the journal or start a
#: fresh out dir.
EXIT_JOURNAL = 4

#: Sweep presets: problem sizes kept small enough to iterate on quickly.
PRESETS = {
    "quick": {"n_values": [1000, 2000], "variants": ["openblas"]},
    "paper": {"n_values": [2000, 4000, 8000], "variants": ["openblas", "intel"]},
    # 16 jobs sized for fleet/soak testing: big enough that a pool shows
    # real overlap, small enough that CI chews through them in seconds.
    "fleet": {
        "n_values": [800, 900, 1000, 1100, 1200, 1300, 1400, 1500],
        "variants": ["openblas", "intel"],
    },
}

def build_runs(args: argparse.Namespace) -> list[RunSpec]:
    preset = PRESETS[args.preset]
    n_values = args.n or preset["n_values"]
    variants = args.variants or preset["variants"]
    runs = []
    for variant in variants:
        for n in n_values:
            params = {
                "machine": args.machine,
                "n": n,
                "nb": args.nb,
                "variant": variant,
                "slice_s": args.slice_s,
            }
            runs.append(RunSpec(f"hpl-{variant}-n{n}", "hpl", params))
    if args.flaky:
        # A deterministic self-crashing run: dies with SIGKILL mid-run on
        # attempt 1, resumes from its checkpoint on attempt 2.  For
        # exercising the crash-isolation machinery end to end.
        runs.append(
            RunSpec(
                "flaky-selftest",
                "hpl",
                {
                    "machine": args.machine,
                    # The longest point of the sweep, so the run is still
                    # in flight (with a checkpoint down) at crash_at_s.
                    "n": max(n_values),
                    "nb": args.nb,
                    "variant": variants[0],
                    "slice_s": args.slice_s,
                    "crash_at_s": 0.08,
                    "crash_on_attempts": [1],
                },
            )
        )
    if args.chaos_seed is not None:
        inject_chaos(runs, args.chaos_seed)
    return runs


def inject_chaos(runs: list[RunSpec], seed: int) -> None:
    """Deterministically seed some runs with first-attempt faults.

    Roughly a fifth of the sweep self-crashes (SIGKILL mid-run) and a
    tenth wedges (heartbeats with frozen sim time — the stuck-worker
    path), always on attempt 1 only.  The fault parameters change how a
    run *executes*, never what it computes, so a chaos sweep must still
    end byte-identical to a calm one — that is the property the chaos
    fleet tests assert.
    """
    rng = random.Random(f"chaos:{seed}")
    injected = []
    for spec in runs:
        roll = rng.random()
        if roll < 0.2:
            spec.params.update(crash_at_s=0.06, crash_on_attempts=[1])
            injected.append(f"{spec.run_id}:crash")
        elif roll < 0.3:
            spec.params.update(stall_at_s=0.06, stall_on_attempts=[1])
            injected.append(f"{spec.run_id}:stall")
    print(f"[sweep] chaos seed {seed}: {', '.join(injected) or 'no faults drawn'}")


def print_metrics(supervisor: Supervisor) -> None:
    counters = supervisor.metrics.as_dict()["counters"]
    keys = (
        "fleet.launch",
        "fleet.done",
        "fleet.retry",
        "fleet.preempt",
        "fleet.cache_hit",
        "fleet.failed",
    )
    parts = [f"{k.split('.', 1)[1]}={int(counters[k])}" for k in keys if k in counters]
    kills = [
        f"{k.split('|', 1)[1]}_kills={int(v)}"
        for k, v in counters.items()
        if k.startswith("fleet.liveness_kill|")
    ]
    print(f"[sweep] fleet metrics: {' '.join(parts + kills) or 'none'}")


def print_plan(plan: list[PlannedRun]) -> None:
    """``--dry-run``: the fate of every run, and a count per fate."""
    counts = dict.fromkeys(FATES, 0)
    print(f"{'run':28s} {'plan':8s} reason")
    for entry in plan:
        counts[entry.fate] += 1
        print(f"{entry.run_id:28s} {entry.fate:8s} {entry.reason}")
    summary = ", ".join(f"{n} {fate}" for fate, n in counts.items() if n)
    print(f"[sweep] dry run: {summary or 'nothing to do'}; no files were touched")


def run_sweep(argv) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--out", default="runs/sweep", help="output directory")
    parser.add_argument("--resume", action="store_true",
                        help="resume from an existing journal")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the fate of every run and touch nothing")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="quick")
    parser.add_argument("--machine", default="raptor-lake-i7-13700")
    parser.add_argument("--n", type=int, nargs="*", help="HPL problem sizes")
    parser.add_argument("--variants", nargs="*", help="HPL variants")
    parser.add_argument("--nb", type=int, default=128, help="HPL block size")
    parser.add_argument("--slice-s", type=float, default=0.05,
                        help="sim seconds per worker slice (checkpoint cadence)")
    parser.add_argument("--checkpoint-every-s", type=float, default=0.1,
                        help="sim seconds between checkpoints")
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--backoff-s", type=float, default=0.5,
                        help="base retry backoff (doubles per attempt)")
    parser.add_argument("--jitter-seed", type=int, default=None,
                        help="seed for backoff jitter (omit: no jitter)")
    parser.add_argument("--timeout-s", type=float, default=300.0,
                        help="wall-clock kill timeout per worker")
    parser.add_argument("--stuck-after-s", type=float, default=30.0,
                        help="kill and retry a worker whose simulated time "
                             "stops advancing for this many wall seconds")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker pool size (default: CPU-derived)")
    parser.add_argument("--cache-dir", default=None,
                        help="deterministic result cache directory "
                             "(identical resubmitted specs launch no workers)")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="deterministically inject first-attempt "
                             "crashes/stalls into the sweep (testing)")
    parser.add_argument("--flaky", action="store_true",
                        help="add a deterministic self-crashing selftest run")
    args = parser.parse_args(argv)

    runs = build_runs(args)
    supervisor = Supervisor(
        args.out,
        max_attempts=args.max_attempts,
        backoff_s=args.backoff_s,
        wall_timeout_s=args.timeout_s,
        checkpoint_every_s=args.checkpoint_every_s,
        workers=args.workers,
        stuck_after_s=args.stuck_after_s,
        jitter_seed=args.jitter_seed,
        cache_dir=args.cache_dir,
    )
    if args.dry_run:
        print_plan(supervisor.plan(runs, resume=args.resume))
        return 0

    def on_sigterm(signum, frame):
        # Async-signal-safe only: one os.write plus the flag-setting
        # drain request (print() allocates and can reenter stdout's
        # buffered writer mid-flush).
        supervisor.request_drain()
        os.write(
            2,
            b"[sweep] SIGTERM: draining (checkpoint in-flight, keep journal)\n",
        )

    signal.signal(signal.SIGTERM, on_sigterm)
    manifest = supervisor.run(runs, resume=args.resume)

    print()
    print(f"{'run':28s} {'status':8s} {'att':>3s} {'gflops':>9s} {'energy J':>9s}")
    failed = pending = 0
    for rid, rec in sorted(manifest.runs.items()):
        gflops = energy = ""
        if rec.status == DONE and rec.result_path and os.path.exists(rec.result_path):
            with open(rec.result_path) as fh:
                result = json.load(fh)
            gflops = f"{result.get('gflops', 0.0):9.2f}"
            energy = f"{result.get('energy_j', 0.0):9.1f}"
        elif rec.status == FAILED:
            failed += 1
        else:
            pending += 1
        print(f"{rid:28s} {rec.status:8s} {rec.attempts:3d} {gflops:>9s} {energy:>9s}")
    print(f"\nmanifest: {manifest.path}")
    print(f"journal:  {supervisor.journal_path}")
    print_metrics(supervisor)
    for entry in supervisor.rejected:
        print(f"[sweep] {entry.run_id} rejected: {entry.reason}")
    if failed or supervisor.rejected:
        return 1
    if supervisor.drained and pending:
        print(f"[sweep] drained with {pending} run(s) pending; "
              f"rerun with --resume to finish")
        return EXIT_DRAINED
    return 1 if pending else 0


def main(argv=None) -> int:
    try:
        return run_sweep(argv)
    except JournalError as exc:
        # A journal this code refuses to trust: nothing was modified.
        # Distinct exit code, no traceback — the operator decides
        # whether to restore journal.jsonl or start fresh.
        print(f"[sweep] journal error: {exc}", file=sys.stderr)
        return EXIT_JOURNAL


if __name__ == "__main__":
    sys.exit(main())
