"""The sweep supervisor: the one path that drives measurement runs.

:class:`Supervisor` owns a sweep directory end to end.  ``run()``
recovers durable state (journal replay), decides the fate of every run
with :func:`~repro.supervisor.queue.plan_runs` — the same plan
:meth:`Supervisor.plan` previews for ``tools/sweep.py --dry-run`` —
executes it, steps the :class:`~repro.supervisor.pool.WorkerPool` until
idle, and seals the journal.  What it guarantees:

* **worker crashes** — crash-isolated worker process per attempt,
  forked from this already-imported process (so a ``Supervisor`` must
  be driven from a single-threaded program), checkpointed retries with
  deterministic backoff (seedable jitter, injectable clock/sleep);
* **wedged workers** — heartbeat liveness (simulated time, beaten into
  a pipe per attempt) and process-group kills;
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
from repro.supervisor.journal import Journal, JournalState
from repro.supervisor.manifest import (
    DONE,
    FAILED,
    PENDING,
    Manifest,
    RunRecord,
    atomic_write_json,
)
from repro.supervisor.pool import WorkerPool, default_worker_count
from repro.supervisor.queue import (
    FAIL,
    REJECT,
    REQUEUE,
    RESUME,
    PlannedRun,
    RunSpec,
    plan_runs,
)
from repro.trace.tracer import MetricsRegistry

__all__ = ["RunSpec", "Supervisor"]

#: Longest wall wait between two pool scheduling rounds: it bounds how
#: late a liveness check or a drain request is acted on.  A worker's
#: exit ends the wait at once (:meth:`WorkerPool.wait`); an injected
#: ``sleep`` is always called with this interval.
POLL_INTERVAL_S = 0.02


class Supervisor:
    """Drives a sweep to completion; see the module docstring.

    Between pool steps the loop waits on the workers
    (:meth:`WorkerPool.wait`); an injected ``sleep`` replaces that wait,
    so a test can act between steps or drive a fake ``clock``.
    """

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
        sleep: Optional[Callable[[float], None]] = None,
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
        #: The specs :meth:`run` refused, each with a reason.
        self.rejected: list[PlannedRun] = []
        self._started = False

    # -- the sweep -----------------------------------------------------------

    def run(self, runs: list[RunSpec], resume: bool = False) -> Manifest:
        """Execute ``runs`` to completion (or drain) and return the
        materialized manifest view."""
        if self._started:
            raise RuntimeError("Supervisor.run() called twice")
        self._started = True
        os.makedirs(self.out_dir, exist_ok=True)
        state = self._replay(resume)
        if state is None:
            self.journal.open_fresh(meta=self._meta())
        else:
            self.journal.open_append(
                truncate_to=state.valid_bytes if state.torn_tail else None
            )
            self.records = state.records
        self.cache = ResultCache(self.cache_dir) if self.cache_dir else None
        self.manifest = Manifest(self.manifest_path, meta=self._meta())
        self.manifest.runs = self.records
        try:
            plan = plan_runs(self.records, runs, self.cache, self.max_attempts)
            self._recover(plan)
            self.manifest.save()
            self._admit(plan)
            while self.pool.step():
                if self.sleep is None:
                    self.pool.wait(POLL_INTERVAL_S)
                else:
                    self.sleep(POLL_INTERVAL_S)
        except BaseException:
            # Runs may still be in flight: close the pipes and the
            # journal but seal nothing, so a resume finds them unfinished.
            self.pool.close()
            self.journal.close()
            raise
        manifest = self._close()
        verb = "drained" if self.drained else "complete"
        self.log(f"[supervisor] sweep {verb}: {manifest.summary()}")
        return manifest

    def plan(self, runs: list[RunSpec], resume: bool = False) -> list[PlannedRun]:
        """What :meth:`run` would do to every run, touching nothing."""
        state = self._replay(resume)
        cache = ResultCache(self.cache_dir) if self.cache_dir else None
        records = state.records if state is not None else {}
        return plan_runs(records, runs, cache, self.max_attempts)

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

    def _replay(self, resume: bool) -> Optional[JournalState]:
        """The journal state to resume from, or None for a fresh start.
        Reads the journal, writes nothing."""
        if not resume:
            return None
        if not os.path.exists(self.journal_path):
            self.log(
                f"[supervisor] no journal at {self.journal_path}; starting fresh"
            )
            return None
        if os.path.getsize(self.journal_path) == 0:
            # Killed between creating the journal and fsyncing its
            # header: nothing was ever durably recorded, so a fresh
            # start is the correct (and only possible) resume.
            self.log(
                f"[supervisor] journal {self.journal_path} is empty "
                "(crash before the header was written); starting fresh"
            )
            return None
        state = Journal.replay(self.journal_path)
        if state.torn_tail:
            self.log(
                "[supervisor] journal ended in a torn line "
                "(crash debris); dropped it and resuming"
            )
        return state

    def _recover(self, plan: list[PlannedRun]) -> None:
        """Carry out the plan for the journaled runs, journaling each
        step before acting on it: reap orphans, requeue failed runs, then
        serve, fail or queue every run that is not done."""
        self._reap([entry.orphan_pid for entry in plan if entry.orphan_pid])
        done = sum(1 for r in self.records.values() if r.status == DONE)
        if done:
            self.log(f"[supervisor] resume: {done} run(s) already done, skipped")

        recovered = [(e, e.record) for e in plan if e.record is not None]
        requeues = []
        for entry, record in recovered:
            if entry.fate == REQUEUE:
                record.status = PENDING
                record.attempts = 0
                record.last_error = None
                requeues.append(
                    {"type": "requeue", "run_id": record.run_id, "attempts": 0}
                )
        if requeues:
            self.journal.append_many(requeues)

        launchable = []
        for entry, record in recovered:
            if entry.cached is not None:
                self.journal.append(self._serve(record, entry.cached))
                self.log(f"[supervisor] {record.run_id}: served from result cache")
            elif entry.fate == FAIL:
                record.status = FAILED
                self.journal.append(
                    {
                        "type": "failed",
                        "run_id": record.run_id,
                        "attempt": record.attempts,
                        "error": record.last_error,
                    }
                )
                self.log(f"[supervisor] {record.run_id}: {entry.reason}")
            elif entry.fate in (RESUME, REQUEUE):
                record.status = PENDING
                launchable.append(record)
        self.pool.enqueue(launchable)

    def _admit(self, plan: list[PlannedRun]) -> None:
        """Admit the new runs as ONE journal batch (one fsync) before any
        is queued, so every admitted run is recoverable by replay."""
        events: list[dict] = []
        admitted = []
        for entry in plan:
            if entry.record is not None or entry.fate == REJECT:
                continue
            record = RunRecord(entry.run_id, entry.kind, entry.params)
            self.records[entry.run_id] = record
            events.append(
                {
                    "type": "add",
                    "run_id": entry.run_id,
                    "kind": entry.kind,
                    "params": entry.params,
                }
            )
            if entry.cached is not None:
                events.append(self._serve(record, entry.cached))
            else:
                admitted.append(record)
        self.journal.append_many(events)
        self.pool.enqueue(admitted)

        self.rejected = [entry for entry in plan if entry.fate == REJECT]
        for entry in self.rejected:
            self.log(f"[supervisor] {entry.run_id}: rejected: {entry.reason}")

    def _reap(self, pids: list[int]) -> None:
        """SIGKILL the worker process groups a dead supervisor left
        running.  A worker leads its own session, so it survives its
        supervisor; until it is dead it holds the run directory — its
        checkpoint, its result — so it must be gone before the run is
        relaunched."""
        reaped = 0
        for pid in pids:
            for kill in (os.killpg, os.kill):
                try:
                    kill(pid, signal.SIGKILL)
                    reaped += 1
                    break
                except (ProcessLookupError, PermissionError, OSError):
                    continue
        if reaped:
            self.metrics.counter("fleet.orphan_reaped", inc=float(reaped))
            self.log(f"[supervisor] reaped {reaped} orphaned worker group(s)")

    def _serve(self, record: RunRecord, result: dict) -> dict:
        """Finish ``record`` with a cached result: write it into the run
        directory and return the ``done`` event to journal."""
        run_dir = os.path.join(self.out_dir, record.run_id)
        os.makedirs(run_dir, exist_ok=True)
        result_path = os.path.join(run_dir, "result.json")
        atomic_write_json(result_path, result)
        record.status = DONE
        record.result_path = result_path
        record.cached = True
        record.last_error = None
        self.metrics.counter("fleet.cache_hit")
        return {
            "type": "done",
            "run_id": record.run_id,
            "attempt": record.attempts,
            "result_path": result_path,
            "cached": True,
        }

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
        """Seal the journal of a finished or drained sweep (metrics +
        drain/complete), materialize the manifest view and metrics
        snapshot."""
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
