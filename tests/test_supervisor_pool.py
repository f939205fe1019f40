"""Worker pool: backoff, concurrency, liveness kills, drain, the wait.

Backoff tests drive the pool on an injected fake clock/sleep pair — no
real ``time.sleep`` anywhere in the scheduling path.  Liveness tests use
real forked workers wedged by the deterministic ``stall_at_s`` /
``spawner`` fixtures in :mod:`repro.supervisor.runs`.  Tests that must
act mid-run (kill a worker, request a drain) do it from the injected
``sleep`` once a file the sweep writes anyway shows the moment — a
``launch`` in the journal, a checkpoint on disk — so no helper thread
is alive when the pool forks.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.supervisor.supervisor as supervisor_module
from repro.checkpoint import read_header
from repro.kernel.perf import PerfEventAttr
from repro.supervisor import (
    DONE,
    FAILED,
    PENDING,
    RunSpec,
    Supervisor,
    backoff_delay,
    default_worker_count,
)
from repro.system import System

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


def _once(ready, action):
    """An injectable ``sleep`` that calls ``action(found)`` once, as soon
    as ``ready()`` finds something (anything but None)."""
    fired = []

    def sleep(seconds: float) -> None:
        if not fired:
            found = ready()
            if found is not None:
                fired.append(found)
                action(found)
        time.sleep(seconds)

    return sleep


def _launched(sup, attempt):
    """``attempt``'s journaled ``launch`` event, or None before it."""
    for event in _journal_events(sup, "launch"):
        if event["attempt"] == attempt:
            return event
    return None


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
    def test_stuck_worker_is_retried_from_checkpoint_and_converges(self, tmp_path):
        """A worker heartbeating with frozen sim time is stuck: killed,
        retried from its checkpoint, and the final result is
        bit-identical to a run that never stalled."""
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
        assert staller.last_error is None
        # The stuck verdict and the retry are journaled.
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
        assert retries[0]["next_attempt"] == 2
        launches = [
            e
            for e in _journal_events(sup, "launch")
            if e["run_id"] == "staller"
        ]
        assert len(launches) == 2
        assert launches[1]["resume_from"]  # from checkpoint, not scratch
        assert sup.metrics.counters[("fleet.liveness_kill", "stuck")] == 1.0
        assert sup.metrics.counters[("fleet.retry", None)] == 1.0
        # Bit-identical convergence despite the stall.
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
        attempt 2, which would resume and wedge, is SIGKILLed once its
        launch is journaled, before it can write any error.  Its exit
        must read as a bare crash, not as attempt 1's leftover
        error.json."""
        out = tmp_path / "sweep"
        sup = Supervisor(
            str(out),
            max_attempts=2,
            backoff_s=0.0,
            checkpoint_every_s=1.0,
            workers=1,
            log=lambda m: None,
            sleep=_once(
                lambda: _launched(sup, 2),
                lambda launch: os.kill(launch["pid"], signal.SIGKILL),
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
        """A worker forked from a process that already opened perf events
        on another System writes the same result — ``state_digest``
        included — as ``python -m repro.supervisor.worker --spec`` in a
        new process."""
        other = System("raptor-lake-i7-13700", dt_s=0.01)
        ptype = other.perf.registry.by_name["cpu_core"].type
        for _ in range(3):
            other.perf.perf_event_open(
                PerfEventAttr(type=ptype, config=0x00C0), pid=-1, cpu=0
            )
        sup = Supervisor(
            str(tmp_path / "sweep"),
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda m: None,
        )
        manifest = sup.run([RunSpec("point", "hpl", dict(HPL_PARAMS))])
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

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd"
    )
    def test_worker_keeps_only_its_own_descriptors(self, tmp_path):
        """A forked worker holds stdio and its beat pipe's write end: not
        the supervisor's journal, not spare copies of ``stderr.log`` or
        ``/dev/null``, not the pipe of the worker forked before it."""
        seen = {}
        checkpoint = str(tmp_path / "sweep" / "staller" / "checkpoint.snap")

        def wedged():
            """The staller's pid once it has written its last checkpoint
            (at the stall point) and holds no file open."""
            if not os.path.exists(checkpoint):
                return None
            if read_header(checkpoint)["meta"]["sim_time_s"] < 0.07:
                return None
            for event in _journal_events(sup, "launch"):
                if event["run_id"] == "staller":
                    return event["pid"]
            return None

        def inspect(pid):
            fd_dir = f"/proc/{pid}/fd"
            for fd in os.listdir(fd_dir):
                seen[int(fd)] = os.readlink(os.path.join(fd_dir, fd))

        sup = Supervisor(
            str(tmp_path / "sweep"),
            max_attempts=2,
            backoff_s=0.0,
            stuck_after_s=1.0,
            checkpoint_every_s=0.04,
            workers=2,
            log=lambda m: None,
            sleep=_once(wedged, inspect),
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
        assert all(rec.status == DONE for rec in manifest.runs.values())
        assert len(seen) == 4, seen
        assert seen[0] == seen[1] == os.devnull
        assert seen[2] == str(tmp_path / "sweep" / "staller" / "stderr.log")
        (beats,) = [target for fd, target in seen.items() if fd > 2]
        assert beats.startswith("pipe:")
        assert sup.journal_path not in seen.values()


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

        checkpoint = tmp_path / "sweep" / "big" / "checkpoint.snap"
        sup = Supervisor(
            str(tmp_path / "sweep"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda m: None,
            sleep=_once(
                lambda: checkpoint if checkpoint.exists() else None,
                lambda _: sup.request_drain(),
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


class TestWait:
    def test_a_worker_exit_ends_the_wait(self, tmp_path, monkeypatch):
        """With the liveness interval at 5 s, three one-slot runs in a
        row finish inside one interval: each exit wakes the loop, which
        refills the slot before waiting again.  A loop that slept the
        interval out would need at least 15 s."""
        monkeypatch.setattr(supervisor_module, "POLL_INTERVAL_S", 5.0)
        sup = Supervisor(
            str(tmp_path / "sweep"),
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda m: None,
        )
        specs = [
            RunSpec(f"job{i}", "hpl", dict(HPL_PARAMS, n=800 + 100 * i))
            for i in range(3)
        ]
        t0 = time.monotonic()
        manifest = sup.run(specs)
        assert time.monotonic() - t0 < 5.0
        assert all(rec.status == DONE for rec in manifest.runs.values())

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd"
    )
    def test_no_descriptor_outlives_a_sweep(self, tmp_path):
        """A crash retry and a stuck kill leave the supervisor holding
        exactly the descriptors it started with: no heartbeat pipe
        leaks."""
        before = len(os.listdir("/proc/self/fd"))
        sup = Supervisor(
            str(tmp_path / "sweep"),
            max_attempts=3,
            backoff_s=0.0,
            stuck_after_s=0.6,
            checkpoint_every_s=0.04,
            workers=2,
            log=lambda m: None,
        )
        manifest = sup.run(
            [
                RunSpec(
                    "crashy",
                    "hpl",
                    dict(HPL_PARAMS, crash_at_s=0.08, crash_on_attempts=[1]),
                ),
                RunSpec(
                    "staller",
                    "hpl",
                    dict(HPL_PARAMS, stall_at_s=0.08, stall_on_attempts=[1]),
                ),
            ]
        )
        assert all(rec.status == DONE for rec in manifest.runs.values())
        assert sup.metrics.counters[("fleet.retry", None)] == 2.0
        assert sup.metrics.counters[("fleet.liveness_kill", "stuck")] == 1.0
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd"
    )
    def test_a_sweep_cut_short_closes_its_pipes(self, tmp_path):
        """An exception out of the loop leaves the worker running (a
        resume reaps it) but closes its heartbeat pipe."""

        class CutShort(Exception):
            pass

        def sleep(seconds: float) -> None:
            raise CutShort

        before = len(os.listdir("/proc/self/fd"))
        sup = Supervisor(
            str(tmp_path / "sweep"),
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda m: None,
            sleep=sleep,
        )
        with pytest.raises(CutShort):
            sup.run([RunSpec("big", "hpl", dict(HPL_PARAMS, n=20000))])
        pid = _launched(sup, 1)["pid"]
        # The worker may not lead its own group yet: kill it by pid.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        assert len(os.listdir("/proc/self/fd")) == before
