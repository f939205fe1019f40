"""Run records and the sweep manifest view.

:class:`RunRecord` is the in-memory state of one run, rebuilt from the
journal (:mod:`repro.supervisor.journal`), which is the durable source
of truth.  :class:`Manifest` is a JSON view of those records (one line;
``python -m json.tool`` indents it), written to ``manifest.json`` with
:func:`atomic_write_json` when a sweep starts and when it ends; nothing
reads it back.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

MANIFEST_VERSION = 1

#: Run lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Worker exit codes (the supervisor/worker protocol; any other nonzero
#: exit or death-by-signal is a crash, classified transient).
EXIT_PERMANENT = 3
EXIT_TRANSIENT = 4
#: The worker checkpointed and exited on request (SIGTERM drain /
#: preemption): not a failure, the run goes back to pending with its
#: checkpoint and does not burn an attempt.
EXIT_PREEMPTED = 5


def atomic_write_json(path: str, payload: dict) -> None:
    """Write JSON durably: tmp file + fsync + rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".manifest-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # One line through the C encoder: json.dump and indent= both
            # run the pure-Python one, several times slower on a large
            # sweep's manifest.
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class RunRecord:
    """Durable state of one run in the sweep."""

    run_id: str
    kind: str
    params: dict
    status: str = PENDING
    attempts: int = 0
    result_path: Optional[str] = None
    checkpoint_path: Optional[str] = None
    last_error: Optional[dict] = None
    #: Stuck-thread details from the last SimTimeout (cpu + core type).
    stuck: list = field(default_factory=list)
    #: True when the result came from the deterministic result cache.
    cached: bool = False
    #: Worker pid of the latest launch, cleared when the attempt ends.
    #: After a journal replay, a RUNNING record's last_pid names the
    #: (possibly orphaned) worker process group a resuming supervisor
    #: must reap before relaunching.
    last_pid: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "params": self.params,
            "status": self.status,
            "attempts": self.attempts,
            "result_path": self.result_path,
            "checkpoint_path": self.checkpoint_path,
            "last_error": self.last_error,
            "stuck": self.stuck,
            "cached": self.cached,
            "last_pid": self.last_pid,
        }


class Manifest:
    """All runs of one sweep plus sweep-level metadata."""

    def __init__(self, path: str, meta: Optional[dict] = None):
        self.path = path
        self.meta = dict(meta or {})
        self.runs: dict[str, RunRecord] = {}

    def save(self) -> None:
        atomic_write_json(
            self.path,
            {
                "version": MANIFEST_VERSION,
                "meta": self.meta,
                "runs": {rid: rec.to_json() for rid, rec in self.runs.items()},
            },
        )

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for rec in self.runs.values():
            counts[rec.status] = counts.get(rec.status, 0) + 1
        return counts
