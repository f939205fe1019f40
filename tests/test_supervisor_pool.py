"""Worker pool: backoff, concurrency, liveness kills, migration, drain.

Backoff tests drive the pool on an injected fake clock/sleep pair — no
real ``time.sleep`` anywhere in the scheduling path.  Liveness tests use
real forked workers wedged by the deterministic ``stall_at_s`` /
``spawner`` fixtures in :mod:`repro.supervisor.runs`.  Tests that must
act mid-run (kill a worker, request a drain) do it from the injected
``sleep`` once a heartbeat shows simulated progress, so no helper
thread is alive when the pool forks.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

from repro.checkpoint.snapshot import read_header
from repro.checkpoint.surface import global_counter_state, set_global_counter_state
from repro.supervisor import (
    DONE,
    FAILED,
    PENDING,
    RunSpec,
    Supervisor,
    backoff_delay,
    default_worker_count,
    heartbeat_path,
    read_heartbeat,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Small, fast HPL point used throughout.
HPL_PARAMS = {"n": 1000, "nb": 128, "slice_s": 0.02, "dt_s": 0.01}


def _journal_events(sup, etype=None):
    with open(sup.journal_path) as fh:
        events = [json.loads(line) for line in fh]
    if etype is not None:
        events = [e for e in events if e["type"] == etype]
    return events


def _result(sup, run_id):
    with open(os.path.join(sup.out_dir, run_id, "result.json")) as fh:
        return json.load(fh)


def _when_progressing(run_dir, attempt, action):
    """An injectable ``sleep`` that calls ``action(heartbeat)`` once, as
    soon as ``attempt``'s heartbeat in ``run_dir`` reports sim time."""
    fired = []

    def sleep(seconds: float) -> None:
        hb = read_heartbeat(heartbeat_path(run_dir))
        if (
            not fired
            and hb is not None
            and hb.get("attempt") == attempt
            and hb.get("sim_time_s") is not None
        ):
            fired.append(hb)
            action(hb)
        time.sleep(seconds)

    return sleep


class FakeTime:
    """Injectable clock/sleep: sleeping advances the clock, instantly."""

    def __init__(self):
        self.now = 0.0
        self.slept: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


class TestBackoffDelay:
    def test_pure_function_of_inputs(self):
        a = backoff_delay(0.5, 2, "run-a", jitter_seed=7)
        assert a == backoff_delay(0.5, 2, "run-a", jitter_seed=7)
        assert a != backoff_delay(0.5, 2, "run-b", jitter_seed=7)
        assert a != backoff_delay(0.5, 2, "run-a", jitter_seed=8)

    def test_exponential_base_without_jitter(self):
        delays = [backoff_delay(0.5, k, "r", jitter_seed=None) for k in (1, 2, 3)]
        assert delays == [0.5, 1.0, 2.0]

    def test_jitter_bounded_at_quarter(self):
        for attempt in (1, 2, 3):
            base = 0.5 * 2 ** (attempt - 1)
            d = backoff_delay(0.5, attempt, "r", jitter_seed=1)
            assert base <= d <= base * 1.25

    def test_zero_base_stays_zero(self):
        assert backoff_delay(0.0, 3, "r", jitter_seed=1) == 0.0

    def test_default_worker_count_bounds(self):
        n = default_worker_count()
        assert 1 <= n <= 8


class TestBackoffSchedule:
    def test_retries_follow_the_deterministic_schedule(self, tmp_path):
        """A run crashing on attempts 1 and 2 re-enters the queue at
        exactly clock + backoff_delay(...) — verified on a fake clock, so
        the whole backoff wait costs zero wall time."""
        ft = FakeTime()
        sup = Supervisor(
            str(tmp_path / "sweep"),
            max_attempts=3,
            backoff_s=0.5,
            jitter_seed=11,
            # The fake clock races ahead of real worker progress, so
            # wall-clock liveness must be off for this test.
            wall_timeout_s=None,
            stuck_after_s=1e9,
            checkpoint_every_s=10.0,  # pin checkpoint before the crash point
            workers=1,
            log=lambda m: None,
            clock=ft.clock,
            sleep=ft.sleep,
        )
        manifest = sup.run(
            [
                RunSpec(
                    "crashy",
                    "hpl",
                    dict(HPL_PARAMS, crash_at_s=0.08, crash_on_attempts=[1, 2]),
                )
            ]
        )
        assert manifest.runs["crashy"].status == DONE
        assert manifest.runs["crashy"].attempts == 3

        retries = _journal_events(sup, "retry")
        assert [r["next_attempt"] for r in retries] == [2, 3]
        # Journaled delays are exactly the pure-function schedule.
        expected = [backoff_delay(0.5, k, "crashy", jitter_seed=11) for k in (1, 2)]
        assert [r["delay_s"] for r in retries] == expected
        assert all(d > 0.5 * 2 ** k / 2 for k, d in enumerate(expected, 1))

        # The backoff waits happened on the fake clock: the pool slept
        # (virtually) at least the scheduled delays, in zero wall time.
        assert sum(ft.slept) >= sum(expected)
        launches = _journal_events(sup, "launch")
        assert len(launches) == 3


class TestConcurrency:
    def test_jobs_spread_across_slots(self, tmp_path):
        sup = Supervisor(
            str(tmp_path / "sweep"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=2,
            log=lambda m: None,
        )
        specs = [
            RunSpec(f"job{i}", "hpl", dict(HPL_PARAMS, n=1000 + 100 * i))
            for i in range(4)
        ]
        manifest = sup.run(specs)
        assert all(rec.status == DONE for rec in manifest.runs.values())
        slots = {e["slot"] for e in _journal_events(sup, "launch")}
        assert slots == {0, 1}
        assert sup.metrics.counters[("fleet.launch", None)] == 4.0
        assert sup.metrics.counters[("fleet.done", None)] == 4.0


class TestLiveness:
    def test_stuck_worker_is_migrated_and_converges(self, tmp_path):
        """A worker heartbeating with frozen sim time is stuck: killed,
        requeued on a different slot, resumed from checkpoint, and the
        final result is bit-identical to a run that never stalled."""
        sup = Supervisor(
            str(tmp_path / "sweep"),
            max_attempts=3,
            backoff_s=0.0,
            wall_timeout_s=120.0,
            stuck_after_s=0.6,
            checkpoint_every_s=0.04,
            workers=2,
            log=lambda m: None,
        )
        manifest = sup.run(
            [
                RunSpec("steady", "hpl", dict(HPL_PARAMS)),
                RunSpec(
                    "staller",
                    "hpl",
                    dict(HPL_PARAMS, stall_at_s=0.08, stall_on_attempts=[1]),
                ),
            ]
        )
        staller = manifest.runs["staller"]
        assert staller.status == DONE
        assert staller.attempts == 2
        assert staller.migrations == 1
        assert staller.last_error is None
        # The stuck verdict and the migration are journaled.
        exits = [
            e
            for e in _journal_events(sup, "exit")
            if e["run_id"] == "staller"
        ]
        assert exits[0]["liveness"] == "stuck"
        assert exits[0]["error"]["type"] == "StuckWorker"
        retries = [
            e
            for e in _journal_events(sup, "retry")
            if e["run_id"] == "staller"
        ]
        assert retries[0]["migrated"] is True
        # Migrated to a different slot.
        launches = [
            e
            for e in _journal_events(sup, "launch")
            if e["run_id"] == "staller"
        ]
        assert len(launches) == 2
        assert launches[1]["slot"] != launches[0]["slot"]
        assert launches[1]["resume_from"]  # from checkpoint, not scratch
        assert sup.metrics.counters[("fleet.migration", None)] == 1.0
        # Bit-identical convergence despite the stall + migration.
        assert (
            _result(sup, "staller")["state_digest"]
            == _result(sup, "steady")["state_digest"]
        )

    def test_timeout_kill_takes_the_whole_process_group(self, tmp_path):
        """Zombie-window regression: a worker that spawned a helper and
        wedged is killed as a *group*, so the helper dies with it."""
        sup = Supervisor(
            str(tmp_path / "sweep"),
            max_attempts=1,
            backoff_s=0.0,
            wall_timeout_s=120.0,
            stuck_after_s=0.5,
            workers=1,
            log=lambda m: None,
        )
        manifest = sup.run([RunSpec("wedge", "spawner", {})])
        rec = manifest.runs["wedge"]
        assert rec.status == FAILED
        assert rec.last_error["type"] == "StuckWorker"

        child_pid = json.load(
            open(os.path.join(sup.out_dir, "wedge", "child.json"))
        )["pid"]
        # The helper must be gone; poll briefly for the reparent+reap.
        deadline = time.time() + 10.0
        while time.time() < deadline:
            try:
                os.kill(child_pid, 0)
            except ProcessLookupError:
                break  # dead — the group kill took it
            time.sleep(0.05)
        else:
            os.kill(child_pid, 9)  # clean up before failing the test
            raise AssertionError(
                f"helper child {child_pid} survived the group kill"
            )


class TestCrashClassification:
    def test_crash_is_not_journaled_with_the_previous_attempts_error(
        self, tmp_path
    ):
        """Attempt 1 times out (error.json: SimTimeout, stuck threads);
        attempt 2 resumes, wedges and is SIGKILLed before writing any
        error.  Its exit must read as a bare crash, not as attempt 1's
        leftover error.json."""
        out = tmp_path / "sweep"
        sup = Supervisor(
            str(out),
            max_attempts=2,
            backoff_s=0.0,
            checkpoint_every_s=1.0,
            workers=1,
            log=lambda m: None,
            sleep=_when_progressing(
                str(out / "flaky"), 2, lambda hb: os.kill(hb["pid"], signal.SIGKILL)
            ),
        )
        params = dict(
            HPL_PARAMS, max_sim_s=0.05, stall_at_s=0.03, stall_on_attempts=[2]
        )
        manifest = sup.run([RunSpec("flaky", "hpl", params)])

        exits = _journal_events(sup, "exit")
        assert [e["attempt"] for e in exits] == [1, 2]
        assert exits[0]["error"]["type"] == "SimTimeout"
        assert exits[0]["error"]["stuck"]
        assert exits[1]["code"] == -signal.SIGKILL
        assert exits[1]["error"]["type"] == "WorkerCrash"
        assert exits[1]["error"]["message"] == "worker died with signal 9"
        assert "stuck" not in exits[1]["error"]
        assert manifest.runs["flaky"].stuck == []


class TestForkedWorker:
    def test_forked_worker_matches_a_fresh_interpreter(self, tmp_path):
        """A worker forked from a process whose global counters moved
        writes the same result and checkpoint globals as
        ``python -m repro.supervisor.worker --spec`` in a new process."""
        g0 = global_counter_state()
        set_global_counter_state({"kernel.perf.next_event_id": 12345})
        try:
            sup = Supervisor(
                str(tmp_path / "sweep"),
                checkpoint_every_s=0.04,
                workers=1,
                log=lambda m: None,
            )
            manifest = sup.run([RunSpec("point", "hpl", dict(HPL_PARAMS))])
        finally:
            set_global_counter_state(g0)
        assert manifest.runs["point"].status == DONE
        forked_dir = tmp_path / "sweep" / "point"

        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        spec = json.loads((forked_dir / "spec.json").read_text())
        spec["out_dir"] = str(fresh_dir)
        (fresh_dir / "spec.json").write_text(json.dumps(spec))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.supervisor.worker",
                "--spec",
                str(fresh_dir / "spec.json"),
            ],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

        assert (forked_dir / "result.json").read_bytes() == (
            fresh_dir / "result.json"
        ).read_bytes()
        forked = read_header(str(forked_dir / "checkpoint.snap"))["globals"]
        fresh = read_header(str(fresh_dir / "checkpoint.snap"))["globals"]
        assert forked == fresh


class TestDrain:
    def test_drain_preempts_and_resume_converges(self, tmp_path):
        """SIGTERM path: drain mid-run → worker checkpoints and exits
        preempted (no attempt burned) → --resume finishes the run
        bit-identical to an uninterrupted control run."""
        control = Supervisor(
            str(tmp_path / "control"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda m: None,
        )
        big = dict(HPL_PARAMS, n=20000)
        control.run([RunSpec("big", "hpl", big)])
        digest = _result(control, "big")["state_digest"]

        sup = Supervisor(
            str(tmp_path / "sweep"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda m: None,
            sleep=_when_progressing(
                str(tmp_path / "sweep" / "big"),
                1,
                lambda hb: sup.request_drain(),
            ),
        )
        manifest = sup.run([RunSpec("big", "hpl", big)])
        assert sup.drained
        rec = manifest.runs["big"]
        assert rec.status == PENDING
        assert rec.attempts == 0  # preemption refunded the attempt
        assert rec.checkpoint_path and os.path.exists(rec.checkpoint_path)
        preempts = _journal_events(sup, "preempted")
        assert preempts and preempts[0]["checkpoint_path"]
        assert _journal_events(sup, "drain")

        sup2 = Supervisor(
            str(tmp_path / "sweep"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda m: None,
        )
        manifest2 = sup2.run([RunSpec("big", "hpl", big)], resume=True)
        rec2 = manifest2.runs["big"]
        assert rec2.status == DONE
        assert rec2.attempts == 1  # the preempted attempt was free
        launches = _journal_events(sup2, "launch")
        assert launches[-1]["resume_from"]  # continued from the checkpoint
        assert _result(sup2, "big")["state_digest"] == digest
