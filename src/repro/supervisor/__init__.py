"""The fault-tolerant sweep supervisor.

See :mod:`repro.supervisor.supervisor` for the :class:`Supervisor` that
drives a sweep, :mod:`repro.supervisor.queue` for the plan that decides
every run's fate, :mod:`repro.supervisor.pool` for the concurrent
worker pool (liveness, retries, drain), :mod:`repro.supervisor.journal`
for the crash-safe append-only journal, :mod:`repro.supervisor.cache`
for the deterministic result cache, :mod:`repro.supervisor.worker` for
the worker process each attempt is forked into (and its by-hand
``--spec`` entry), and :mod:`repro.supervisor.manifest` for run records
and the materialized sweep view.
"""

from repro.supervisor.cache import ResultCache, code_version, spec_digest
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
from repro.supervisor.pool import (
    SLOW,
    STUCK,
    WorkerPool,
    backoff_delay,
    default_worker_count,
)
from repro.supervisor.queue import FATES, PlannedRun, RunSpec
from repro.supervisor.runs import RUN_KINDS, Preempted, RunContext
from repro.supervisor.supervisor import Supervisor

__all__ = [
    "DONE",
    "FAILED",
    "PENDING",
    "RUNNING",
    "SLOW",
    "STUCK",
    "FATES",
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
    "PlannedRun",
    "Preempted",
    "ResultCache",
    "backoff_delay",
    "code_version",
    "default_worker_count",
    "spec_digest",
    "EXIT_PERMANENT",
    "EXIT_PREEMPTED",
    "EXIT_TRANSIENT",
]
