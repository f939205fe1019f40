"""Journal, recovery, result-cache and sweep crash-safety tests.

Torn last lines are clean resumes, anything worse is a *clear* error —
never a crash, never a silent skip.  The deterministic result cache's
hits must be byte-identical and free.  And a ``tools/sweep.py``
supervisor SIGKILLed mid-run or mid-drain must, on ``--resume``, reap
the workers it left behind and finish every run exactly once.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.supervisor import (
    DONE,
    PENDING,
    RUNNING,
    Journal,
    JournalError,
    ResultCache,
    RunSpec,
    Supervisor,
    spec_digest,
)
from repro.checkpoint import SnapshotError, read_header

#: Small, fast HPL point used throughout.
HPL_PARAMS = {"n": 1000, "nb": 128, "slice_s": 0.02, "dt_s": 0.01}


def _journal(tmp_path, events):
    path = str(tmp_path / "journal.jsonl")
    j = Journal(path)
    j.open_fresh(meta={"k": 1})
    for event in events:
        j.append(event)
    j.close()
    return path


ADD_A = {"type": "add", "run_id": "a", "kind": "hpl", "params": {"n": 4}}


class TestJournalReplay:
    def test_fold_roundtrip(self, tmp_path):
        path = _journal(
            tmp_path,
            [
                ADD_A,
                {"type": "add", "run_id": "b", "kind": "hpl", "params": {}},
                {"type": "launch", "run_id": "a", "attempt": 1, "slot": 0,
                 "resume_from": None, "pid": 1234},
                {"type": "done", "run_id": "a", "attempt": 1,
                 "result_path": "a/result.json", "cached": False},
                {"type": "launch", "run_id": "b", "attempt": 1, "slot": 1,
                 "resume_from": None, "pid": 1235},
            ],
        )
        state = Journal.replay(path)
        assert state.meta == {"k": 1}
        assert not state.torn_tail
        assert state.records["a"].status == DONE
        assert state.records["a"].result_path == "a/result.json"
        assert state.records["b"].status == RUNNING
        assert state.records["b"].attempts == 1

    def test_journal_with_retired_retry_fields_replays(self, tmp_path):
        """A version 2 journal whose ``retry`` events still carry the
        retired ``migrated``/``from_slot`` fields replays; the fields
        are ignored."""
        path = _journal(
            tmp_path,
            [
                ADD_A,
                {"type": "launch", "run_id": "a", "attempt": 1, "slot": 0,
                 "resume_from": None, "pid": 1},
                {"type": "exit", "run_id": "a", "attempt": 1, "code": -9,
                 "liveness": "stuck", "error": {"type": "StuckWorker"},
                 "checkpoint_path": "a/checkpoint.snap"},
                {"type": "retry", "run_id": "a", "next_attempt": 2,
                 "delay_s": 0.5, "migrated": True, "from_slot": 0},
            ],
        )
        record = Journal.replay(path).records["a"]
        assert record.status == PENDING
        assert record.attempts == 1
        assert record.last_pid is None
        assert record.checkpoint_path == "a/checkpoint.snap"
        assert record.last_error["type"] == "StuckWorker"
        assert set(record.to_json()) == {
            "run_id", "kind", "params", "status", "attempts", "result_path",
            "checkpoint_path", "last_error", "stuck", "cached", "last_pid",
        }

    def test_torn_last_line_is_clean_resume(self, tmp_path):
        path = _journal(tmp_path, [ADD_A])
        good_size = os.path.getsize(path)
        with open(path, "a") as fh:
            fh.write('{"type": "done", "run_id": "a", "resu')  # torn append
        state = Journal.replay(path)
        assert state.torn_tail
        assert state.valid_bytes == good_size
        assert state.records["a"].status == PENDING  # torn done dropped

    def test_torn_middle_line_is_an_error(self, tmp_path):
        path = _journal(tmp_path, [ADD_A])
        with open(path, "a") as fh:
            fh.write('{"type": "done", "run_id": "a", "resu\n')  # torn + newline
            fh.write(json.dumps({"type": "complete"}) + "\n")
        with pytest.raises(JournalError, match="not the last line"):
            Journal.replay(path)

    def test_version_mismatch_is_an_error(self, tmp_path):
        # Version 1 journals may carry `cancel` events and state-bearing
        # `add` events that this replay no longer speaks.
        path = str(tmp_path / "journal.jsonl")
        for version in (1, 999):
            with open(path, "w") as fh:
                fh.write(json.dumps({"type": "header", "version": version}) + "\n")
                fh.write(json.dumps({"type": "cancel", "run_id": "a"}) + "\n")
            with pytest.raises(JournalError, match=f"version {version}"):
                Journal.replay(path)

    def test_unknown_run_is_an_error(self, tmp_path):
        path = _journal(
            tmp_path,
            [{"type": "done", "run_id": "ghost", "attempt": 1,
              "result_path": "x", "cached": False}],
        )
        with pytest.raises(JournalError, match="unknown run 'ghost'"):
            Journal.replay(path)

    def test_unknown_event_type_is_an_error(self, tmp_path):
        path = _journal(tmp_path, [{"type": "frobnicate", "run_id": "a"}])
        with pytest.raises(JournalError, match="unknown event type"):
            Journal.replay(path)

    def test_duplicate_add_is_an_error(self, tmp_path):
        path = _journal(tmp_path, [ADD_A, ADD_A])
        with pytest.raises(JournalError, match="twice"):
            Journal.replay(path)

    def test_open_append_truncates_torn_tail(self, tmp_path):
        path = _journal(tmp_path, [ADD_A])
        with open(path, "a") as fh:
            fh.write('{"type": "done"')  # crash debris
        state = Journal.replay(path)
        j = Journal(path)
        j.open_append(truncate_to=state.valid_bytes)
        j.append({"type": "complete"})
        j.close()
        # The re-opened journal replays cleanly: debris gone, new event in.
        state2 = Journal.replay(path)
        assert not state2.torn_tail
        assert state2.events == state.events + 1


class TestSupervisorRecovery:
    """End-to-end: a damaged sweep directory resumes or errors clearly."""

    def _completed_sweep(self, tmp_path):
        sup = Supervisor(
            str(tmp_path / "sweep"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda msg: None,
        )
        manifest = sup.run([RunSpec("only", "hpl", dict(HPL_PARAMS))])
        assert manifest.runs["only"].status == DONE
        return sup

    def test_resume_with_torn_journal_tail(self, tmp_path):
        sup = self._completed_sweep(tmp_path)
        with open(sup.journal_path, "a") as fh:
            fh.write('{"type": "launch", "run_id": "only", "att')
        events = []
        sup2 = Supervisor(sup.out_dir, workers=1, log=events.append)
        manifest = sup2.run([RunSpec("only", "hpl", dict(HPL_PARAMS))], resume=True)
        assert manifest.runs["only"].status == DONE
        assert any("torn line" in e for e in events)
        # The sweep is skipped, not re-run: the done event survived.
        assert any("skipped" in e for e in events)

    def test_resume_with_corrupt_journal_is_a_clear_error(self, tmp_path):
        sup = self._completed_sweep(tmp_path)
        lines = open(sup.journal_path).read().splitlines()
        lines[1] = '{"type": "add", "run_'  # torn line NOT at the end
        with open(sup.journal_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        sup2 = Supervisor(sup.out_dir, workers=1, log=lambda m: None)
        with pytest.raises(JournalError, match="not the last line"):
            sup2.run([RunSpec("only", "hpl", dict(HPL_PARAMS))], resume=True)

    def test_resume_with_empty_journal_starts_fresh(self, tmp_path):
        sup = self._completed_sweep(tmp_path)
        open(sup.journal_path, "w").close()  # crash before header fsync
        events = []
        sup2 = Supervisor(
            sup.out_dir,
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=events.append,
        )
        manifest = sup2.run([RunSpec("only", "hpl", dict(HPL_PARAMS))], resume=True)
        assert manifest.runs["only"].status == DONE
        assert any("starting fresh" in e for e in events)

    def test_resume_without_journal_starts_fresh(self, tmp_path):
        """A directory with a manifest but no journal holds nothing
        durable: resume starts the sweep from scratch."""
        sup = self._completed_sweep(tmp_path)
        os.unlink(sup.journal_path)
        events = []
        sup2 = Supervisor(
            sup.out_dir, backoff_s=0.0, workers=1, log=events.append
        )
        manifest = sup2.run([RunSpec("only", "hpl", dict(HPL_PARAMS))], resume=True)
        assert manifest.runs["only"].status == DONE
        assert any("no journal" in e for e in events)
        assert not any("skipped" in e for e in events)


class TestResultCache:
    def test_spec_digest_canonical(self):
        a = spec_digest("hpl", {"n": 1000, "nb": 128})
        b = spec_digest("hpl", {"nb": 128, "n": 1000})  # key order irrelevant
        c = spec_digest("hpl", {"n": 1000, "nb": 64})
        assert a == b
        assert a != c
        assert a != spec_digest("failing", {"n": 1000, "nb": 128})

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), version="v1")
        assert cache.get("hpl", {"n": 4}) is None
        cache.put("hpl", {"n": 4}, {"gflops": 1.5})
        assert cache.get("hpl", {"n": 4}) == {"gflops": 1.5}

    def test_code_version_invalidates(self, tmp_path):
        root = str(tmp_path / "cache")
        ResultCache(root, version="v1").put("hpl", {"n": 4}, {"gflops": 1.5})
        assert ResultCache(root, version="v2").get("hpl", {"n": 4}) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), version="v1")
        path = cache._path(cache.key("hpl", {"n": 4}))
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as fh:
            fh.write("{garbage")
        assert cache.get("hpl", {"n": 4}) is None

    def test_cached_resubmission_launches_zero_workers(self, tmp_path):
        """The acceptance bar: an identical resubmitted sweep is served
        entirely from cache — zero worker launches, byte-identical
        results."""
        cache_dir = str(tmp_path / "cache")
        specs = [
            RunSpec("r1", "hpl", dict(HPL_PARAMS)),
            RunSpec("r2", "hpl", dict(HPL_PARAMS, n=2000)),
        ]
        sup1 = Supervisor(
            str(tmp_path / "a"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=2,
            cache_dir=cache_dir,
            log=lambda m: None,
        )
        m1 = sup1.run(specs)
        assert all(rec.status == DONE for rec in m1.runs.values())
        assert not any(rec.cached for rec in m1.runs.values())

        sup2 = Supervisor(
            str(tmp_path / "b"),
            workers=2,
            cache_dir=cache_dir,
            log=lambda m: None,
        )
        m2 = sup2.run(specs)
        assert all(rec.status == DONE for rec in m2.runs.values())
        assert all(rec.cached for rec in m2.runs.values())
        # Zero launches: no launch event journaled, no launch counted.
        launches = [
            e
            for e in map(json.loads, open(sup2.journal_path))
            if e["type"] == "launch"
        ]
        assert launches == []
        assert ("fleet.launch", None) not in sup2.metrics.counters
        assert sup2.metrics.counters[("fleet.cache_hit", None)] == 2.0
        # Byte-identical result files.
        for rid in ("r1", "r2"):
            a = open(os.path.join(sup1.out_dir, rid, "result.json"), "rb").read()
            b = open(os.path.join(sup2.out_dir, rid, "result.json"), "rb").read()
            assert a == b


SWEEP = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "sweep.py",
)

#: Two HPL runs; chaos seed 17 wedges ``hpl-openblas-n1000`` at sim
#: 0.06 s on attempt 1 (alive, heartbeating, no progress) and leaves
#: ``hpl-openblas-n1100`` calm.  The long stuck window keeps the wedged
#: worker in flight until the test kills its supervisor.  Checkpoints
#: land at sim 0.02 s and then every 0.039 s of it, so one lands at the
#: stall point itself (at 0.04 the float gap 0.06 - 0.02 falls short).
WEDGE = "hpl-openblas-n1000"
WEDGE_SWEEP_ARGS = [
    "--n", "1000", "1100",
    "--variants", "openblas",
    "--chaos-seed", "17",
    "--stuck-after-s", "60",
    "--workers", "2",
    "--backoff-s", "0",
    "--slice-s", "0.02",
    "--checkpoint-every-s", "0.039",
]


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_dead(pid: int, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while _alive(pid):
        if time.monotonic() > deadline:
            os.killpg(pid, signal.SIGKILL)
            raise AssertionError(f"orphan worker {pid} still alive")
        time.sleep(0.05)


def _journal_events(out: str) -> list[dict]:
    """Journal events up to a torn tail (SIGKILL debris)."""
    events = []
    with open(os.path.join(out, "journal.jsonl"), "rb") as fh:
        for line in fh.read().splitlines():
            try:
                events.append(json.loads(line))
            except (json.JSONDecodeError, UnicodeDecodeError):
                break
    return events


class TestSweepCrashSafety:
    """SIGKILL a one-shot ``tools/sweep.py`` supervisor — never its
    workers — at the worst instants; ``--resume`` must lose nothing and
    double-run nothing.

    "Nothing lost": every run reaches ``done``.  "Nothing doubled":
    replay itself proves it — a duplicate ``add`` is a
    :class:`JournalError` — and each run records exactly one ``done``.
    """

    def _start_wedged_sweep(self, tmp_path):
        """Start the sweep in its own session and wait until the wedged
        worker checkpoints at its stall point; returns (proc, out dir,
        wedged worker pid, log path)."""
        out = str(tmp_path / "sweep")
        log_path = str(tmp_path / "sweep.log")
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, SWEEP, "--out", out, *WEDGE_SWEEP_ARGS],
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        checkpoint = os.path.join(out, WEDGE, "checkpoint.snap")
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                sim_time_s = read_header(checkpoint)["meta"]["sim_time_s"]
            except (OSError, SnapshotError):
                sim_time_s = 0.0
            if sim_time_s >= 0.06:
                # The journaled launch carries the worker's pid.
                for event in _journal_events(out):
                    if event["type"] == "launch" and event["run_id"] == WEDGE:
                        return proc, out, event["pid"], log_path
            assert proc.poll() is None, open(log_path).read()
            time.sleep(0.02)
        proc.kill()
        raise AssertionError("the wedged run never reached its stall point")

    def _resume(self, out):
        return subprocess.run(
            [sys.executable, SWEEP, "--out", out, *WEDGE_SWEEP_ARGS, "--resume"],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def _assert_exactly_once(self, out):
        # Replay raises on duplicated adds.
        state = Journal.replay(os.path.join(out, "journal.jsonl"))
        events = _journal_events(out)
        assert set(state.records) == {WEDGE, "hpl-openblas-n1100"}
        for rid, record in state.records.items():
            assert record.status == DONE
            dones = [
                e for e in events
                if e["type"] == "done" and e.get("run_id") == rid
            ]
            assert len(dones) == 1, f"{rid} finished {len(dones)} times"

    def test_sigkill_mid_run_reaps_orphan_and_finishes(self, tmp_path):
        """The supervisor dies while a worker is wedged mid-run: the
        worker (its own session leader) survives as an orphan.  The
        resumed sweep must kill its group before relaunching the run."""
        proc, out, pid, _ = self._start_wedged_sweep(tmp_path)
        proc.kill()
        proc.wait()
        assert _alive(pid), "the wedged worker should outlive its supervisor"

        resumed = self._resume(out)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        _wait_dead(pid)
        # The reap precedes the wedged run's relaunch.
        lines = resumed.stdout.splitlines()
        reaped = [i for i, l in enumerate(lines) if "orphaned worker group" in l]
        relaunch = [
            i for i, l in enumerate(lines) if f"{WEDGE}: attempt 2/" in l
        ]
        assert reaped and relaunch and reaped[0] < relaunch[0], resumed.stdout
        self._assert_exactly_once(out)

    def test_sigkill_mid_drain_resumes_clean(self, tmp_path):
        """SIGTERM starts a drain the wedged worker never honours (the
        pool waits out its grace window), then SIGKILL lands mid-drain:
        drain is a runtime request, not durable state, so the resumed
        sweep simply finishes the journaled backlog."""
        proc, out, pid, log_path = self._start_wedged_sweep(tmp_path)
        os.kill(proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + 10
        while "SIGTERM: draining" not in open(log_path).read():
            assert time.monotonic() < deadline, "SIGTERM never acknowledged"
            time.sleep(0.02)
        assert proc.poll() is None, "the drain finished before the kill"
        proc.kill()
        proc.wait()
        events = _journal_events(out)
        assert not [e for e in events if e["type"] in ("drain", "complete")]

        resumed = self._resume(out)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        _wait_dead(pid)
        self._assert_exactly_once(out)
