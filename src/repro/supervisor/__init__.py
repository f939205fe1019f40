"""The fault-tolerant sweep supervisor.

See :mod:`repro.supervisor.supervisor` for the :class:`Supervisor` that
drives a sweep, :mod:`repro.supervisor.queue` for durable admission,
:mod:`repro.supervisor.pool` for the concurrent worker pool (liveness,
migration, drain), :mod:`repro.supervisor.journal` for the crash-safe
append-only journal, :mod:`repro.supervisor.cache` for the deterministic
result cache, :mod:`repro.supervisor.worker` for the worker process
each attempt is forked into (and its by-hand ``--spec`` entry), and
:mod:`repro.supervisor.manifest` for run records and the materialized
sweep view.
"""

from repro.supervisor.cache import ResultCache, code_version, spec_digest
from repro.supervisor.heartbeat import (
    DEAD,
    LIVE,
    SLOW,
    STUCK,
    heartbeat_path,
    read_heartbeat,
    write_heartbeat,
)
from repro.supervisor.journal import Journal, JournalError, JournalState
from repro.supervisor.manifest import (
    DONE,
    EXIT_PERMANENT,
    EXIT_PREEMPTED,
    EXIT_TRANSIENT,
    FAILED,
    PENDING,
    RUNNING,
    Manifest,
    RunRecord,
)
from repro.supervisor.pool import WorkerPool, backoff_delay, default_worker_count
from repro.supervisor.queue import (
    ADMITTED,
    CACHED,
    DUPLICATE,
    REJECTED,
    AdmissionQueue,
    RunSpec,
)
from repro.supervisor.runs import RUN_KINDS, Preempted, RunContext
from repro.supervisor.supervisor import Supervisor

__all__ = [
    "DONE",
    "FAILED",
    "PENDING",
    "RUNNING",
    "DEAD",
    "LIVE",
    "SLOW",
    "STUCK",
    "ADMITTED",
    "CACHED",
    "DUPLICATE",
    "REJECTED",
    "AdmissionQueue",
    "Manifest",
    "RunRecord",
    "RUN_KINDS",
    "RunContext",
    "RunSpec",
    "Supervisor",
    "WorkerPool",
    "Journal",
    "JournalError",
    "JournalState",
    "Preempted",
    "ResultCache",
    "backoff_delay",
    "code_version",
    "default_worker_count",
    "spec_digest",
    "heartbeat_path",
    "read_heartbeat",
    "write_heartbeat",
    "EXIT_PERMANENT",
    "EXIT_PREEMPTED",
    "EXIT_TRANSIENT",
]
