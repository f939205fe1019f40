"""The concurrent worker pool: N forked workers, liveness, migration.

This is the fleet engine under :class:`~repro.supervisor.supervisor.
Supervisor`.  It admits pending runs into up to ``workers`` slots, each
slot one worker process forked from this (already-imported) process by
:func:`repro.supervisor.worker.spawn` and leading its **own session**
(so a kill always takes the whole process group — no zombie children
surviving a timeout).  Because it forks, the pool must be driven from a
single-threaded program.  The poll loop then watches every in-flight
job three ways:

* ``os.waitpid`` — **dead** workers are reaped and classified by exit
  code (negative: killed by that signal);
* heartbeats — a worker whose **simulated** time stops advancing for
  ``stuck_after_s`` of wall time is **stuck**: killed (whole group) and
  *migrated* — requeued on a different slot, resuming from its last
  checkpoint with its attempt/backoff state carried over;
* the wall deadline — a worker that is progressing but past
  ``wall_timeout_s`` is **slow**: killed and retried from checkpoint.

Retries are scheduled, not slept: each failed attempt computes a
deterministic backoff (exponential base with seedable jitter, see
:func:`backoff_delay`) and re-enters the ready queue with a not-before
time on the injected ``clock``.  Tests inject a fake clock (and the
supervisor a matching fake sleep), so no unit test ever calls
``time.sleep`` for real.

On ``request_drain()`` (wired to SIGTERM by ``tools/sweep.py``) the pool
stops admitting, SIGTERMs in-flight workers — they checkpoint and exit
:data:`~repro.supervisor.manifest.EXIT_PREEMPTED` — and returns with the
remaining runs still pending in the journal, ready for ``--resume``.
"""

from __future__ import annotations

import heapq
import json
import os
import random
import signal
from dataclasses import dataclass
from typing import Callable, Optional

from repro.supervisor.heartbeat import (
    SLOW,
    STUCK,
    heartbeat_path,
    read_heartbeat,
)
from repro.supervisor.journal import Journal
from repro.supervisor.manifest import (
    DONE,
    EXIT_PERMANENT,
    EXIT_PREEMPTED,
    FAILED,
    PENDING,
    RUNNING,
    RunRecord,
    atomic_write_json,
)
from repro.supervisor.worker import spawn
from repro.trace.tracer import MetricsRegistry


def default_worker_count() -> int:
    """``os.cpu_count()``-derived pool size: leave one CPU for the
    supervisor, never exceed eight (every launch, reap and journal
    fsync goes through the one supervisor loop, and the fleet stops
    scaling long before that on sweep workloads)."""
    cpus = os.cpu_count() or 1
    return max(1, min(8, cpus - 1))


def backoff_delay(
    base_s: float, attempt: int, run_id: str, jitter_seed: Optional[int]
) -> float:
    """Deterministic retry delay after ``attempt`` failed.

    Exponential base (``base_s * 2**(attempt-1)``, the PR 3 schedule)
    plus up to +25% jitter drawn from a :class:`random.Random` seeded by
    ``(jitter_seed, run_id, attempt)`` — so the schedule is a pure
    function of the sweep inputs, reproducible in tests, yet desynced
    across runs (no retry stampede when a whole fleet fails at once).
    ``jitter_seed=None`` disables jitter entirely.
    """
    delay = base_s * (2 ** (attempt - 1))
    if jitter_seed is None or delay <= 0:
        return delay
    rng = random.Random(f"{jitter_seed}:{run_id}:{attempt}")
    return delay * (1.0 + 0.25 * rng.random())


@dataclass
class _Job:
    """One in-flight worker attempt."""

    record: RunRecord
    slot: int
    pid: int
    run_dir: str
    started: float
    resume_from: Optional[str]
    #: Newest simulated time seen in a heartbeat for this attempt.
    last_sim_time: Optional[float] = None
    #: Pool-clock instant sim time last advanced (starts at launch).
    last_progress: float = 0.0
    #: A heartbeat for this attempt has been observed at least once.
    hb_seen: bool = False
    #: A SIGTERM was already sent (drain); don't repeat it.
    terminated: bool = False


class WorkerPool:
    """Runs a set of :class:`RunRecord`s to completion; see module doc."""

    def __init__(
        self,
        out_dir: str,
        journal: Journal,
        *,
        workers: int,
        max_attempts: int,
        backoff_s: float,
        jitter_seed: Optional[int],
        wall_timeout_s: Optional[float],
        stuck_after_s: float,
        checkpoint_every_s: float,
        clock: Callable[[], float],
        log: Callable[[str], None],
        metrics: MetricsRegistry,
        on_done: Optional[Callable[[RunRecord], None]] = None,
        drain_grace_s: float = 10.0,
    ):
        self.out_dir = out_dir
        self.journal = journal
        self.workers = max(1, int(workers))
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.jitter_seed = jitter_seed
        self.wall_timeout_s = wall_timeout_s
        self.stuck_after_s = stuck_after_s
        self.checkpoint_every_s = checkpoint_every_s
        self.clock = clock
        self.log = log
        self.metrics = metrics
        self.on_done = on_done
        self.drain_grace_s = drain_grace_s
        self._draining = False
        self._drain_unannounced = False
        self._drain_started: Optional[float] = None
        self._seq = 0
        #: Ready-queue heap entries: (not-before on self.clock, admission
        #: seq, record).  The seq keeps admission deterministic among
        #: simultaneously-ready runs and makes heap entries comparable.
        self._queue: list[tuple[float, int, RunRecord]] = []
        self._jobs: dict[int, _Job] = {}
        self._free_slots: list[int] = list(range(self.workers))

    # -- live state ----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Launchable runs waiting in the ready queue."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a :meth:`step` could still make progress: jobs in
        flight, or queued runs that a non-draining pool will launch."""
        return bool(self._jobs) or (
            self.queue_depth > 0 and not self._draining
        )

    # -- drain ---------------------------------------------------------------

    def request_drain(self) -> None:
        """Stop admitting; in-flight workers are asked to checkpoint and
        exit (the poll loop delivers the SIGTERMs).

        Async-signal-safe by design — the sweep's SIGTERM handler lands
        here, so this only sets flags.  The log line is emitted by
        the next :meth:`step` from the main loop."""
        if not self._draining:
            self._draining = True
            self._drain_unannounced = True

    @property
    def draining(self) -> bool:
        return self._draining

    # -- the fleet loop ------------------------------------------------------

    def enqueue(self, records: list[RunRecord]) -> None:
        """Admit runs into the ready queue (launchable immediately)."""
        now = self.clock()
        for record in records:
            heapq.heappush(self._queue, (now, self._seq, record))
            self._seq += 1

    def step(self) -> bool:
        """One scheduling round: admit ready runs into free slots, reap
        dead workers, enforce liveness, drive a drain.  Never sleeps —
        the caller owns pacing.  Returns :attr:`busy`."""
        if self._drain_unannounced:
            self._drain_unannounced = False
            self.log("[fleet] drain requested: no new runs will start")
        now = self.clock()
        if not self._draining:
            while self._free_slots and self._queue and self._queue[0][0] <= now:
                _, _, record = heapq.heappop(self._queue)
                slot = self._pick_slot(self._free_slots, record)
                self._free_slots.remove(slot)
                self._jobs[slot] = self._launch(record, slot, now)
        self.metrics.gauge("fleet.queue_depth", value=float(self.queue_depth))
        self.metrics.gauge("fleet.in_flight", value=float(len(self._jobs)))

        for slot in sorted(self._jobs):
            job = self._jobs[slot]
            pid, status = os.waitpid(job.pid, os.WNOHANG)
            if pid:
                del self._jobs[slot]
                self._free_slots.append(slot)
                self._finish(job, os.waitstatus_to_exitcode(status), now)
                continue
            verdict = self._liveness(job, now)
            if verdict is not None:
                self._kill_group(job, signal.SIGKILL)
                os.waitpid(job.pid, 0)
                del self._jobs[slot]
                self._free_slots.append(slot)
                self._finish_killed(job, verdict, now)

        if self._draining and self._jobs:
            self._drive_drain(self._jobs, now)
        return self.busy

    # -- admission -----------------------------------------------------------

    def _pick_slot(self, free_slots: list[int], record: RunRecord) -> int:
        """Prefer a slot the run has not just failed on (migration)."""
        free_slots.sort()
        for slot in free_slots:
            if slot != record.last_slot:
                return slot
        return free_slots[0]

    def _launch(self, record: RunRecord, slot: int, now: float) -> _Job:
        run_dir = os.path.join(self.out_dir, record.run_id)
        os.makedirs(run_dir, exist_ok=True)
        checkpoint = os.path.join(run_dir, "checkpoint.snap")
        resume_from = checkpoint if os.path.exists(checkpoint) else None

        record.attempts += 1
        record.status = RUNNING
        record.last_slot = slot
        record.checkpoint_path = resume_from

        # A stale heartbeat from the previous attempt must not feed the
        # liveness monitor, and its error must not be read as this
        # attempt's: drop both before the new worker starts.
        for stale in (heartbeat_path(run_dir), os.path.join(run_dir, "error.json")):
            try:
                os.unlink(stale)
            except OSError:
                pass

        spec = {
            "run_id": record.run_id,
            "kind": record.kind,
            "params": record.params,
            "attempt": record.attempts,
            "out_dir": run_dir,
            "checkpoint_every_s": self.checkpoint_every_s,
            "resume_from": resume_from,
        }
        spec_path = os.path.join(run_dir, "spec.json")
        atomic_write_json(spec_path, spec)
        pid = spawn(spec_path, os.path.join(run_dir, "stderr.log"))

        origin = f"resuming from {resume_from}" if resume_from else "fresh start"
        self.log(
            f"[fleet] {record.run_id}: attempt {record.attempts}/"
            f"{self.max_attempts} on slot {slot} ({origin})"
        )
        self.journal.append(
            {
                "type": "launch",
                "run_id": record.run_id,
                "attempt": record.attempts,
                "slot": slot,
                "resume_from": resume_from,
                "pid": pid,
            }
        )
        self.metrics.counter("fleet.launch")
        record.last_pid = pid
        return _Job(
            record=record,
            slot=slot,
            pid=pid,
            run_dir=run_dir,
            started=now,
            resume_from=resume_from,
            last_progress=now,
        )

    # -- liveness ------------------------------------------------------------

    def _liveness(self, job: _Job, now: float) -> Optional[str]:
        """STUCK/SLOW when the job must be killed, else None (live)."""
        hb = read_heartbeat(heartbeat_path(job.run_dir))
        if hb is not None and hb.get("attempt") == job.record.attempts:
            if not job.hb_seen:
                # First heartbeat of the attempt: startup (fork, spec
                # load, checkpoint restore) is over — that is itself
                # progress, or a worker whose setup exceeds the stuck
                # window would be killed before its first sim step.
                job.hb_seen = True
                job.last_progress = now
            sim = hb.get("sim_time_s")
            if sim is not None and (
                job.last_sim_time is None or sim > job.last_sim_time
            ):
                job.last_sim_time = sim
                job.last_progress = now
        # Until that first heartbeat the worker is starting up, which is
        # arbitrarily slow under fleet load: give it triple rope.  A
        # worker *re-writing* heartbeats with frozen sim time gets no
        # credit — that is exactly the stuck signature.
        stuck_after = self.stuck_after_s * (1.0 if job.hb_seen else 3.0)
        if now - job.last_progress >= stuck_after:
            return STUCK
        if (
            self.wall_timeout_s is not None
            and now - job.started >= self.wall_timeout_s
        ):
            return SLOW
        return None

    def _kill_group(self, job: _Job, sig: int) -> None:
        """Signal the worker's whole process group (it leads its own
        session), so helpers it spawned die with it — no zombies."""
        try:
            os.killpg(job.pid, sig)
        except (ProcessLookupError, PermissionError):
            # Not yet its own group leader (killed between fork and
            # setsid): signal the worker alone.
            try:
                os.kill(job.pid, sig)
            except ProcessLookupError:
                pass

    # -- exit handling -------------------------------------------------------

    @staticmethod
    def _read_error(run_dir: str) -> Optional[dict]:
        try:
            with open(os.path.join(run_dir, "error.json")) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def _stderr_tail(self, run_dir: str) -> list[str]:
        try:
            with open(os.path.join(run_dir, "stderr.log"), "rb") as fh:
                return (
                    fh.read().decode(errors="replace").strip().splitlines()[-3:]
                )
        except OSError:
            return []

    def _finish(self, job: _Job, code: int, now: float) -> None:
        record = job.record
        record.last_pid = None
        checkpoint = os.path.join(job.run_dir, "checkpoint.snap")
        if os.path.exists(checkpoint):
            record.checkpoint_path = checkpoint
        self.metrics.counter("fleet.exit", key=str(code))
        self.metrics.observe("fleet.attempt_wall_s", value=now - job.started)

        if code == 0:
            record.status = DONE
            record.last_error = None
            record.result_path = os.path.join(job.run_dir, "result.json")
            self.journal.append(
                {
                    "type": "done",
                    "run_id": record.run_id,
                    "attempt": record.attempts,
                    "result_path": record.result_path,
                    "cached": False,
                }
            )
            self.metrics.counter("fleet.done")
            self.log(f"[fleet] {record.run_id}: done")
            if self.on_done is not None:
                self.on_done(record)
            return

        if code == EXIT_PREEMPTED:
            # The worker checkpointed and exited on request: not a
            # failure, no attempt burned.
            record.attempts -= 1
            record.status = PENDING
            self.journal.append(
                {
                    "type": "preempted",
                    "run_id": record.run_id,
                    "attempt": record.attempts + 1,
                    "checkpoint_path": record.checkpoint_path,
                }
            )
            self.metrics.counter("fleet.preempt")
            self.log(
                f"[fleet] {record.run_id}: preempted "
                f"(checkpoint: {record.checkpoint_path or 'none'})"
            )
            if not self._draining:
                heapq.heappush(self._queue, (now, self._seq, record))
                self._seq += 1
            return

        error = self._read_error(job.run_dir)
        record.stuck = (error or {}).get("stuck", [])
        if error is None:
            for line in self._stderr_tail(job.run_dir):
                self.log(f"[fleet] {record.run_id}: worker stderr: {line}")
        record.last_error = error or {
            "type": "WorkerCrash",
            "message": (
                f"worker died with signal {-code}"
                if code < 0
                else f"worker exited {code} without writing error.json"
            ),
            "classification": "transient",
        }
        self.journal.append(
            {
                "type": "exit",
                "run_id": record.run_id,
                "attempt": record.attempts,
                "code": code,
                "liveness": "dead" if code < 0 else "live",
                "error": record.last_error,
                "checkpoint_path": record.checkpoint_path,
            }
        )

        permanent = code == EXIT_PERMANENT
        label = "permanent" if permanent else "transient"
        self.log(
            f"[fleet] {record.run_id}: attempt {record.attempts} failed "
            f"({label}: {record.last_error.get('type')}: "
            f"{record.last_error.get('message')}); "
            f"last checkpoint: {record.checkpoint_path or 'no checkpoint taken'}; "
            f"stuck: {self._describe_stuck(record.stuck)}"
        )
        if permanent:
            self._fail(record)
            return
        self._retry_or_fail(record, now, migrated=False)

    def _finish_killed(self, job: _Job, verdict: str, now: float) -> None:
        """A liveness kill: STUCK migrates, SLOW plain-retries."""
        record = job.record
        record.last_pid = None
        checkpoint = os.path.join(job.run_dir, "checkpoint.snap")
        if os.path.exists(checkpoint):
            record.checkpoint_path = checkpoint
        self.metrics.counter("fleet.liveness_kill", key=verdict)
        self.metrics.observe("fleet.attempt_wall_s", value=now - job.started)

        if verdict == STUCK:
            message = (
                f"no simulated-time progress for {self.stuck_after_s}s "
                f"(last sim time "
                f"{job.last_sim_time if job.last_sim_time is not None else 'never reported'}); "
                "worker group killed"
            )
            error_type = "StuckWorker"
        else:
            message = (
                f"wall-clock deadline {self.wall_timeout_s}s exceeded "
                f"while still progressing (sim time {job.last_sim_time}); "
                "worker group killed"
            )
            error_type = "WallTimeout"
        record.last_error = {
            "type": error_type,
            "message": message,
            "classification": "transient",
            "liveness": verdict,
        }
        self.journal.append(
            {
                "type": "exit",
                "run_id": record.run_id,
                "attempt": record.attempts,
                "code": -signal.SIGKILL,
                "liveness": verdict,
                "error": record.last_error,
                "checkpoint_path": record.checkpoint_path,
            }
        )
        self.log(f"[fleet] {record.run_id}: {verdict}: {message}")
        self._retry_or_fail(record, now, migrated=(verdict == STUCK))

    def _retry_or_fail(
        self, record: RunRecord, now: float, migrated: bool
    ) -> None:
        if record.attempts >= self.max_attempts:
            self._fail(record)
            self.log(
                f"[fleet] {record.run_id}: giving up after "
                f"{record.attempts} attempts"
            )
            return
        delay = backoff_delay(
            self.backoff_s, record.attempts, record.run_id, self.jitter_seed
        )
        if migrated:
            record.migrations += 1
            self.metrics.counter("fleet.migration")
            self.log(
                f"[fleet] {record.run_id}: migrating off slot "
                f"{record.last_slot} (retry in {delay:.2f}s from "
                f"{record.checkpoint_path or 'scratch'})"
            )
        elif delay > 0:
            self.log(f"[fleet] {record.run_id}: retrying in {delay:.2f}s")
        record.status = PENDING
        self.journal.append(
            {
                "type": "retry",
                "run_id": record.run_id,
                "next_attempt": record.attempts + 1,
                "delay_s": delay,
                "migrated": migrated,
                "from_slot": record.last_slot,
            }
        )
        self.metrics.counter("fleet.retry")
        if not self._draining:
            # Draining pools don't requeue: the retry stays journaled as
            # pending for --resume.
            heapq.heappush(self._queue, (now + delay, self._seq, record))
            self._seq += 1

    def _fail(self, record: RunRecord) -> None:
        record.status = FAILED
        self.journal.append(
            {
                "type": "failed",
                "run_id": record.run_id,
                "attempt": record.attempts,
                "error": record.last_error,
            }
        )
        self.metrics.counter("fleet.failed")

    # -- drain mechanics -----------------------------------------------------

    def _drive_drain(self, jobs: dict[int, _Job], now: float) -> None:
        if self._drain_started is None:
            self._drain_started = now
        past_grace = now - self._drain_started > self.drain_grace_s
        for job in jobs.values():
            if not job.terminated:
                self._kill_group(job, signal.SIGTERM)
                job.terminated = True
            elif past_grace:
                # A worker ignoring SIGTERM past the grace window gets
                # the hard kill; its exit is classified as a crash.
                self._kill_group(job, signal.SIGKILL)

    @staticmethod
    def _describe_stuck(stuck: list) -> str:
        parts = []
        for d in stuck or []:
            parts.append(
                f"{d.get('name')!r} on cpu {d.get('cpu')} "
                f"[{d.get('core_type') or 'off-cpu'}]"
            )
        return ", ".join(parts) if parts else "none reported"
