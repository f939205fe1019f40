"""Chaos-fleet acceptance: the ISSUE 7 end-to-end bar.

A 16-job sweep on a worker pool with deterministic chaos (self-crashing
workers, stalls that force stuck-kills and retries), a seeded-random
worker SIGKILL, and a supervisor SIGKILL mid-fleet — resumed, it must
produce results byte-identical to a calm uninterrupted fleet.  This
drives ``tools/resume_equivalence.py --soak``, the same entry point CI
runs, as a real subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EQUIV = os.path.join(REPO, "tools", "resume_equivalence.py")


def _journal_events(path):
    events = []
    with open(path, "rb") as fh:
        for line in fh.read().split(b"\n"):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except (json.JSONDecodeError, UnicodeDecodeError):
                break  # torn tail from the SIGKILL — expected debris
    return events


def test_soak_chaos_fleet_is_bit_identical(tmp_path):
    base = str(tmp_path / "soak")
    proc = subprocess.run(
        [sys.executable, EQUIV, base, "--soak"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"soak failed:\n--- stdout ---\n{proc.stdout}\n"
        f"--- stderr ---\n{proc.stderr}"
    )
    assert "PASS: 16 run(s) bit-identical" in proc.stdout
    assert "SIGKILLed worker" in proc.stdout
    assert "killed sweep mid-flight" in proc.stdout

    # The chaos actually happened: across the killed sweep's journal
    # (pre-kill + resumed appends), the stall injection forced at least
    # one stuck-kill that was retried.
    events = _journal_events(os.path.join(base, "killed", "journal.jsonl"))
    stuck = {
        e["run_id"]
        for e in events
        if e["type"] == "exit" and e.get("liveness") == "stuck"
    }
    retried = {e["run_id"] for e in events if e["type"] == "retry"}
    assert stuck, "no stuck worker was ever detected"
    assert stuck & retried, "no stuck worker was ever retried"
    launches = [e for e in events if e["type"] == "launch"]
    slots = {e["slot"] for e in launches}
    assert len(slots) > 1, "fleet never used more than one pool slot"
    done = {e["run_id"] for e in events if e["type"] == "done"}
    assert len(done) == 16
