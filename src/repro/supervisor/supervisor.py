"""The sweep supervisor: the one path that drives measurement runs.

:class:`Supervisor` owns a sweep directory end to end.  ``run()``
recovers durable state (journal replay, orphan reaping, failed runs
requeued with a fresh budget), admits the submitted specs through the
durable :class:`~repro.supervisor.queue.AdmissionQueue` — idempotent by
spec digest, one fsync per batch — steps the
:class:`~repro.supervisor.pool.WorkerPool` until idle, and seals the
journal.  What it guarantees:

* **worker crashes** — crash-isolated worker process per attempt,
  forked from this already-imported process (so a ``Supervisor`` must
  be driven from a single-threaded program), checkpointed retries with
  deterministic backoff (seedable jitter, injectable clock/sleep);
* **wedged workers** — heartbeat liveness, process-group kills, slot
  migration;
* **supervisor death** — every transition journaled before acted on;
  SIGKILL + ``resume=True`` reaps the worker groups the dead supervisor
  left running, reconstructs the exact pending/in-flight/done sets and
  finishes byte-identically;
* **repeated work** — the deterministic result cache serves identical
  specs with zero launches;
* **changed specs** — a spec whose run id already names a different
  spec is rejected with a reason (:attr:`Supervisor.rejected`), never
  silently answered with the old run;
* **shutdown** — ``request_drain()`` checkpoints in-flight workers and
  leaves a journal ``--resume`` picks up cleanly.
"""

from __future__ import annotations

import json
import os
import signal
import time
from typing import Callable, Optional

from repro.supervisor.cache import ResultCache
from repro.supervisor.journal import Journal
from repro.supervisor.manifest import (
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    Manifest,
    RunRecord,
    atomic_write_json,
)
from repro.supervisor.pool import WorkerPool, default_worker_count
from repro.supervisor.queue import REJECTED, Admission, AdmissionQueue, RunSpec
from repro.trace.tracer import MetricsRegistry

__all__ = ["RunSpec", "Supervisor"]

#: Wall seconds between two pool scheduling rounds.
POLL_INTERVAL_S = 0.02


class Supervisor:
    """Drives a sweep to completion; see the module docstring."""

    def __init__(
        self,
        out_dir: str,
        max_attempts: int = 3,
        backoff_s: float = 0.5,
        wall_timeout_s: Optional[float] = 300.0,
        checkpoint_every_s: float = 0.1,
        log: Callable[[str], None] = print,
        workers: Optional[int] = None,
        stuck_after_s: float = 30.0,
        jitter_seed: Optional[int] = None,
        cache_dir: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.out_dir = out_dir
        self.max_attempts = max_attempts
        self.checkpoint_every_s = checkpoint_every_s
        self.log = log
        self.workers = workers if workers is not None else default_worker_count()
        self.cache_dir = cache_dir
        self.sleep = sleep
        self.manifest_path = os.path.join(out_dir, "manifest.json")
        self.journal_path = os.path.join(out_dir, "journal.jsonl")
        self.metrics_path = os.path.join(out_dir, "metrics.json")
        self.metrics = MetricsRegistry()
        self.journal = Journal(self.journal_path)
        self.pool = WorkerPool(
            out_dir,
            self.journal,
            workers=self.workers,
            max_attempts=max_attempts,
            backoff_s=backoff_s,
            jitter_seed=jitter_seed,
            wall_timeout_s=wall_timeout_s,
            stuck_after_s=stuck_after_s,
            checkpoint_every_s=checkpoint_every_s,
            clock=clock,
            log=log,
            metrics=self.metrics,
            on_done=self._store_in_cache,
        )
        self.records: dict[str, RunRecord] = {}
        self.cache: Optional[ResultCache] = None
        self.admission: Optional[AdmissionQueue] = None
        #: Verdicts of the specs :meth:`run` refused, each with a reason.
        self.rejected: list[Admission] = []
        self._started = False

    # -- the sweep -----------------------------------------------------------

    def run(self, runs: list[RunSpec], resume: bool = False) -> Manifest:
        """Execute ``runs`` to completion (or drain) and return the
        materialized manifest view."""
        if self._started:
            raise RuntimeError("Supervisor.run() called twice")
        self._started = True
        self._open(resume)
        try:
            verdicts, to_enqueue = self.admission.admit(runs)
            self.pool.enqueue(to_enqueue)
            self.rejected = [v for v in verdicts if v.disposition == REJECTED]
            for verdict in self.rejected:
                self.log(f"[supervisor] {verdict.run_id}: rejected: {verdict.reason}")
            while self.pool.step():
                self.sleep(POLL_INTERVAL_S)
        finally:
            manifest = self._close()
        verb = "drained" if self.drained else "complete"
        self.log(f"[supervisor] sweep {verb}: {manifest.summary()}")
        return manifest

    def request_drain(self) -> None:
        """Graceful shutdown: stop admitting runs, checkpoint in-flight
        workers, return from :meth:`run` with the rest still pending."""
        self.pool.request_drain()

    @property
    def drained(self) -> bool:
        return self.pool.draining

    # -- recovery ------------------------------------------------------------

    def _meta(self) -> dict:
        return {
            "out_dir": self.out_dir,
            "max_attempts": self.max_attempts,
            "checkpoint_every_s": self.checkpoint_every_s,
            "workers": self.workers,
        }

    def _open(self, resume: bool) -> None:
        """Recover durable state and requeue every unfinished run.

        ``resume=True`` replays an existing journal, reaps orphaned
        worker groups, gives failed runs a fresh attempt budget and
        re-enqueues every run that is not done."""
        os.makedirs(self.out_dir, exist_ok=True)
        self.records = self._recover(resume)
        self.cache = ResultCache(self.cache_dir) if self.cache_dir else None
        self.admission = AdmissionQueue(
            self.out_dir, self.journal, self.records, self.metrics, cache=self.cache
        )
        self._reap_orphans()

        done = sum(1 for r in self.records.values() if r.status == DONE)
        if done:
            self.log(f"[supervisor] resume: {done} run(s) already done, skipped")
        requeues = []
        for record in self.records.values():
            if record.status == FAILED:
                record.status = PENDING
                record.attempts = 0
                record.last_error = None
                requeues.append(
                    {"type": "requeue", "run_id": record.run_id, "attempts": 0}
                )
        if requeues:
            self.journal.append_many(requeues)
        self._dispatch([r for r in self.records.values() if r.status != DONE])

        # Materialize the view once recovery settled.
        self.manifest = Manifest(self.manifest_path, meta=self._meta())
        self.manifest.runs = self.records
        self.manifest.save()

    def _recover(self, resume: bool) -> dict[str, RunRecord]:
        """Journal replay or a fresh start.  Leaves the journal open for
        appending."""
        exists = os.path.exists(self.journal_path)
        if resume and exists and os.path.getsize(self.journal_path) == 0:
            # Killed between creating the journal and fsyncing its
            # header: nothing was ever durably recorded, so a fresh
            # start is the correct (and only possible) resume.
            self.log(
                f"[supervisor] journal {self.journal_path} is empty "
                "(crash before the header was written); starting fresh"
            )
        elif resume and exists:
            state = Journal.replay(self.journal_path)
            if state.torn_tail:
                self.log(
                    "[supervisor] journal ended in a torn line "
                    "(crash debris); dropped it and resuming"
                )
            self.journal.open_append(
                truncate_to=state.valid_bytes if state.torn_tail else None
            )
            return state.records
        elif resume:
            self.log(
                f"[supervisor] no journal at {self.journal_path}; starting fresh"
            )
        self.journal.open_fresh(meta=self._meta())
        return {}

    def _reap_orphans(self) -> int:
        """SIGKILL worker process groups a dead supervisor left running.

        After replay, a RUNNING record's ``last_pid`` names a worker
        that may still be alive (workers lead their own sessions, so
        they survive their supervisor).  Until it is dead it holds the
        run directory — heartbeats, checkpoints — so it must be gone
        before the run is relaunched."""
        reaped = 0
        for record in self.records.values():
            if record.status != RUNNING or not record.last_pid:
                continue
            for kill in (os.killpg, os.kill):
                try:
                    kill(record.last_pid, signal.SIGKILL)
                    reaped += 1
                    break
                except (ProcessLookupError, PermissionError, OSError):
                    continue
        if reaped:
            self.metrics.counter("fleet.orphan_reaped", inc=float(reaped))
            self.log(f"[supervisor] reaped {reaped} orphaned worker group(s)")
        return reaped

    def _dispatch(self, records: list[RunRecord]) -> None:
        """Recovered (unfinished) records re-enter execution: cache hits
        are served, spent attempt budgets fail, the rest queue."""
        launchable = []
        for record in records:
            done = self.admission.serve_from_cache(record)
            if done is not None:
                self.journal.append(done)
                self.log(f"[supervisor] {record.run_id}: served from result cache")
                continue
            if record.attempts >= self.max_attempts:
                # Recovered mid-flight on its last attempt: the budget
                # is spent (matching the pre-pool retry accounting).
                record.status = FAILED
                self.journal.append(
                    {
                        "type": "failed",
                        "run_id": record.run_id,
                        "attempt": record.attempts,
                        "error": record.last_error,
                    }
                )
                self.log(
                    f"[supervisor] {record.run_id}: attempt budget already "
                    f"spent ({record.attempts}/{self.max_attempts})"
                )
                continue
            record.status = PENDING
            launchable.append(record)
        self.pool.enqueue(launchable)

    def _store_in_cache(self, record: RunRecord) -> None:
        if self.cache is None:
            return
        try:
            with open(record.result_path) as fh:  # type: ignore[arg-type]
                result = json.load(fh)
        except (OSError, TypeError, ValueError):
            return
        self.cache.put(record.kind, record.params, result)

    # -- shutdown ------------------------------------------------------------

    def _close(self) -> Manifest:
        """Seal the journal (metrics + drain/complete), materialize the
        manifest view and metrics snapshot."""
        snapshot = self.metrics.as_dict()
        summary = self.manifest.summary()
        self.journal.append({"type": "metrics", "metrics": snapshot})
        self.journal.append(
            {"type": "drain" if self.drained else "complete", "summary": summary}
        )
        self.journal.close()
        self.manifest.save()
        atomic_write_json(self.metrics_path, snapshot)
        return self.manifest
