#!/usr/bin/env python3
"""CI gate: a SIGKILLed-and-resumed sweep equals an uninterrupted one.

Default mode:

1. run a small sweep start to finish (the reference);
2. run the identical sweep again, SIGKILL the whole supervisor process
   group once the journal shows partial progress (some runs done, some
   not — i.e. mid-sweep, workers possibly mid-run);
3. resume it with ``--resume``;
4. compare every ``result.json`` byte for byte against the reference —
   including each run's final ``state_digest``, so "equal" means the
   restored simulations ended in bit-identical states, not just similar
   headline numbers.

``--soak`` escalates to the fleet: a 16-job sweep on a worker pool with
deterministic chaos injection (crashes + stalls → retries), where a
seeded-random *worker* is SIGKILLed mid-fleet, then the *supervisor*
itself is SIGKILLed, and the resumed sweep must still end byte-identical
to the calm reference.

In both modes the workers the killed supervisor leaves running are
deliberately left alone: reaping them before relaunching is the
``--resume`` path's own job, so this gate exercises it.

Exits 0 on equivalence, 1 on any difference or failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

TOOLS = os.path.dirname(os.path.abspath(__file__))
SWEEP = os.path.join(TOOLS, "sweep.py")

SWEEP_ARGS = [
    "--preset", "quick",
    "--slice-s", "0.02",
    "--checkpoint-every-s", "0.04",
    "--backoff-s", "0",
]

#: Fleet/soak sweep: 16 jobs on a worker pool with deterministic chaos
#: (seed 8 draws two self-crashes and two stalls → stuck-kills).
SOAK_ARGS = [
    "--preset", "fleet",
    "--slice-s", "0.02",
    "--checkpoint-every-s", "0.04",
    "--backoff-s", "0",
    "--workers", "4",
    "--stuck-after-s", "0.8",
]
SOAK_CHAOS_ARGS = [*SOAK_ARGS, "--chaos-seed", "8"]


# -- journal reading ---------------------------------------------------------
# The journal is the live record (the manifest is only materialized at
# start/exit), so mid-flight progress watching reads journal.jsonl.
# Tolerant by design: a torn tail is expected while the writer is alive.


def journal_events(out_dir: str) -> list[dict]:
    events = []
    try:
        with open(os.path.join(out_dir, "journal.jsonl"), "rb") as fh:
            for line in fh.read().split(b"\n"):
                if not line.strip():
                    continue
                try:
                    events.append(json.loads(line))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break  # torn tail: the supervisor is mid-append
    except OSError:
        pass
    return events


def journal_progress(out_dir: str) -> dict:
    """Fold the journal into {"total", "done", "running": {run_id: pid}}."""
    total: set = set()
    done: set = set()
    running: dict[str, int] = {}
    for e in journal_events(out_dir):
        etype, rid = e.get("type"), e.get("run_id")
        if etype == "add":
            total.add(rid)
        elif etype == "launch":
            running[rid] = e.get("pid")
        elif etype == "done":
            done.add(rid)
            running.pop(rid, None)
        elif etype in ("exit", "failed", "preempted"):
            running.pop(rid, None)
    return {"total": len(total), "done": len(done), "running": running}


def inflight_checkpoint(out_dir: str) -> bool:
    """True if some not-yet-done run has a checkpoint on disk."""
    events = journal_events(out_dir)
    added = {e["run_id"] for e in events if e.get("type") == "add"}
    done = {e["run_id"] for e in events if e.get("type") == "done"}
    return any(
        os.path.exists(os.path.join(out_dir, rid, "checkpoint.snap"))
        for rid in added - done
    )


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def kill_pid(pid: int, sig: int = signal.SIGKILL) -> bool:
    """Kill a process group (workers lead their own session), falling
    back to the single pid; True if something was signalled."""
    for fn in (os.killpg, os.kill):
        try:
            fn(pid, sig)
            return True
        except (ProcessLookupError, PermissionError, OSError):
            continue
    return False


# -- sweep drivers -----------------------------------------------------------


def run_sweep(out_dir: str, sweep_args: list[str], resume: bool = False) -> None:
    cmd = [sys.executable, SWEEP, "--out", out_dir, *sweep_args]
    if resume:
        cmd.append("--resume")
    subprocess.run(cmd, check=True)


def _watch_until_mid_sweep(
    proc: subprocess.Popen,
    out_dir: str,
    kill_worker_seed: int | None,
    max_wait_s: float,
) -> None:
    """Block until the journal shows a kill-worthy mid-sweep state.

    With ``kill_worker_seed`` set, first SIGKILL one seeded-random
    in-flight worker (the soak's worker-death event), wait for the fleet
    to absorb it (a retry), and only then return.
    """
    deadline = time.monotonic() + max_wait_s
    worker_killed = False
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "sweep finished (or died) before it could be killed; "
                "shrink --slice-s or grow the sweep"
            )
        progress = journal_progress(out_dir)
        if (
            kill_worker_seed is not None
            and not worker_killed
            and progress["done"] >= 1
            and progress["running"]
        ):
            rid, pid = sorted(progress["running"].items())[
                random.Random(kill_worker_seed).randrange(
                    len(progress["running"])
                )
            ]
            if kill_pid(pid):
                worker_killed = True
                print(f"[equiv] soak: SIGKILLed worker {pid} ({rid})")
            continue
        # Mid-sweep: at least one run completed, at least one not —
        # and an in-flight run has checkpointed, so the resume path
        # being exercised is restore-from-checkpoint, not restart.
        mid = (
            progress["total"]
            and 0 < progress["done"] < progress["total"]
            and inflight_checkpoint(out_dir)
        )
        if mid and (kill_worker_seed is None or worker_killed):
            return
        time.sleep(0.02)
    raise SystemExit("sweep never reached a mid-sweep state")


def run_sweep_and_kill(
    out_dir: str,
    sweep_args: list[str],
    kill_worker_seed: int | None = None,
    max_wait_s: float = 600.0,
) -> None:
    """Start the sweep in its own process group and SIGKILL it mid-sweep."""
    cmd = [sys.executable, SWEEP, "--out", out_dir, *sweep_args]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        _watch_until_mid_sweep(proc, out_dir, kill_worker_seed, max_wait_s)
    finally:
        if proc.poll() is None:
            # Kill the supervisor's whole group...
            os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    # The workers it orphaned lead their own sessions and keep running;
    # the --resume under test must reap them.
    progress = journal_progress(out_dir)
    orphans = sum(1 for pid in progress["running"].values() if pid and alive(pid))
    print(
        f"[equiv] killed sweep mid-flight "
        f"(done {progress['done']}/{progress['total']}, "
        f"{orphans} orphaned worker(s) left for --resume to reap)"
    )


# -- comparison --------------------------------------------------------------


def collect_results(out_dir: str) -> dict[str, dict]:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    results = {}
    for rid, rec in manifest["runs"].items():
        if rec["status"] != "done":
            raise SystemExit(f"run {rid} in {out_dir} is {rec['status']}, not done")
        with open(os.path.join(out_dir, rid, "result.json")) as fh:
            results[rid] = json.load(fh)
    return results


def compare(ref_dir: str, res_dir: str) -> int:
    ref = collect_results(ref_dir)
    res = collect_results(res_dir)
    if set(ref) != set(res):
        print(f"[equiv] FAIL: run sets differ: {sorted(set(ref) ^ set(res))}")
        return 1
    bad = 0
    for rid in sorted(ref):
        if ref[rid] != res[rid]:
            bad += 1
            diffs = [k for k in ref[rid] if ref[rid][k] != res[rid].get(k)]
            print(f"[equiv] FAIL: {rid} differs in fields: {diffs}")
        else:
            print(f"[equiv] ok: {rid} identical (digest {ref[rid]['state_digest'][:12]}...)")
    if bad:
        return 1
    print(f"[equiv] PASS: {len(ref)} run(s) bit-identical after kill+resume")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", default="/tmp/resume-equiv",
                        help="scratch directory")
    parser.add_argument("--soak", action="store_true",
                        help="fleet soak: chaos sweep + worker SIGKILL "
                             "+ supervisor SIGKILL + resume")
    parser.add_argument("--worker-kill-seed", type=int, default=1,
                        help="seed picking which in-flight worker dies")
    args = parser.parse_args(argv)

    base = os.path.abspath(args.base)
    ref_dir = os.path.join(base, "reference")
    killed_dir = os.path.join(base, "killed")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)

    if args.soak:
        # The reference is CALM (no chaos): the chaos+kills sweep must
        # converge on what an undisturbed sequential fleet produces.
        print("[equiv] soak phase 1: calm reference fleet (uninterrupted)")
        run_sweep(ref_dir, SOAK_ARGS)
        print("[equiv] soak phase 2: chaos fleet, worker+supervisor SIGKILL")
        run_sweep_and_kill(
            killed_dir, SOAK_CHAOS_ARGS, kill_worker_seed=args.worker_kill_seed
        )
        print("[equiv] soak phase 3: resume the killed fleet")
        run_sweep(killed_dir, SOAK_CHAOS_ARGS, resume=True)
    else:
        print("[equiv] phase 1: reference sweep (uninterrupted)")
        run_sweep(ref_dir, SWEEP_ARGS)
        print("[equiv] phase 2: same sweep, SIGKILLed mid-flight")
        run_sweep_and_kill(killed_dir, SWEEP_ARGS)
        print("[equiv] phase 3: resume the killed sweep")
        run_sweep(killed_dir, SWEEP_ARGS, resume=True)

    print("[equiv] final phase: compare results")
    return compare(ref_dir, killed_dir)


if __name__ == "__main__":
    sys.exit(main())
