"""Worker heartbeats: how the pool tells *stuck* from *slow* from *dead*.

Each worker attempt writes ``heartbeat.json`` into its run directory on
the same cadence as its checkpoint checks (once per simulation slice):
its pid, attempt number, and — critically — the current **simulated**
time.  The pool's liveness monitor folds that into three verdicts:

* **dead** — the process is gone (``os.waitpid`` reaped it); no heartbeat
  needed to see it.
* **stuck** — the process is alive but simulated time has not advanced
  for ``stuck_after_s`` of wall time: a wedged run (infinite spin, lost
  wakeup) that will never finish.
* **slow** — simulated time is advancing but the attempt blew past its
  wall-clock deadline: the run is healthy but too big for the budget.

Stuck and slow workers are killed and retried alike: the retry resumes
from the latest checkpoint, so the paid-for progress is kept.  The
verdict names why the attempt died in the journal and the metrics.

Heartbeats are advisory (atomic replace, no fsync): losing one delays a
verdict by a poll interval, it never corrupts state.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

#: Liveness verdicts recorded in the journal and metrics.
LIVE = "live"
STUCK = "stuck"
SLOW = "slow"
DEAD = "dead"

HEARTBEAT_FILENAME = "heartbeat.json"


def heartbeat_path(run_dir: str) -> str:
    return os.path.join(run_dir, HEARTBEAT_FILENAME)


def write_heartbeat(
    path: str, pid: int, attempt: int, sim_time_s: Optional[float]
) -> None:
    """Atomically replace the heartbeat file (no fsync — advisory)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hb-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(
                {"pid": pid, "attempt": attempt, "sim_time_s": sim_time_s}, fh
            )
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_heartbeat(path: str) -> Optional[dict]:
    """Read a heartbeat; missing or torn files read as ``None``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, ValueError):
        return None
