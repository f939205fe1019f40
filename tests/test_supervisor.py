"""Supervisor: admission, crash isolation, retry classification, resume.

The acceptance bar: SIGKILLing a sweep (supervisor or worker, any
moment) and resuming must produce results bit-identical to a sweep that
was never interrupted.  Workers run as real subprocesses here — these
tests exercise the same code path ``tools/sweep.py`` drives.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from repro.supervisor import (
    ADMITTED,
    CACHED,
    DONE,
    DUPLICATE,
    EXIT_PERMANENT,
    EXIT_TRANSIENT,
    FAILED,
    PENDING,
    REJECTED,
    AdmissionQueue,
    Journal,
    Manifest,
    ResultCache,
    RunRecord,
    RunSpec,
    Supervisor,
    spec_digest,
)
from repro.supervisor import journal as journal_module
from repro.supervisor.worker import run_spec
from repro.trace.tracer import MetricsRegistry

#: Small, fast HPL point used throughout.
HPL_PARAMS = {"n": 1000, "nb": 128, "slice_s": 0.02, "dt_s": 0.01}


def _supervisor(tmp_path, **kw):
    kw.setdefault("max_attempts", 3)
    kw.setdefault("backoff_s", 0.0)
    kw.setdefault("wall_timeout_s", 120.0)
    kw.setdefault("checkpoint_every_s", 0.04)
    kw.setdefault("log", lambda msg: None)
    return Supervisor(str(tmp_path / "sweep"), **kw)


def _result(sup, run_id):
    with open(os.path.join(sup.out_dir, run_id, "result.json")) as fh:
        return json.load(fh)


class TestManifest:
    def test_round_trip(self, tmp_path):
        """The manifest view holds every record field as JSON."""
        path = str(tmp_path / "manifest.json")
        m = Manifest(path, meta={"k": 1})
        m.runs["a"] = RunRecord(run_id="a", kind="hpl", params={"n": 4})
        m.runs["a"].status = DONE
        m.runs["a"].stuck = [{"name": "t", "cpu": 3, "core_type": "E-core"}]
        m.save()
        back = json.load(open(path))
        assert back["meta"] == {"k": 1}
        assert back["runs"]["a"] == m.runs["a"].to_json()


def _admission(tmp_path, cache=None):
    journal = Journal(str(tmp_path / "journal.jsonl"))
    journal.open_fresh()
    return AdmissionQueue(
        str(tmp_path), journal, {}, MetricsRegistry(), cache=cache
    )


class TestAdmission:
    def test_idempotent_by_digest(self, tmp_path):
        """The same spec under any id converges on one run: duplicate
        verdicts point at the existing run, nothing is re-journaled."""
        queue = _admission(tmp_path)
        queue.admit([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
        size = os.path.getsize(queue.journal.path)
        again, to_enqueue = queue.admit(
            [RunSpec("r1", "hpl", dict(HPL_PARAMS)),
             RunSpec("other-name", "hpl", dict(HPL_PARAMS)),
             RunSpec("", "hpl", dict(HPL_PARAMS))]
        )
        assert [v.disposition for v in again] == [DUPLICATE] * 3
        assert {v.run_id for v in again} == {"r1"}
        assert to_enqueue == []
        assert os.path.getsize(queue.journal.path) == size  # no new bytes
        assert len(queue.records) == 1

    def test_anonymous_spec_gets_digest_id(self, tmp_path):
        queue = _admission(tmp_path)
        [verdict], _ = queue.admit([RunSpec("", "hpl", dict(HPL_PARAMS))])
        digest = spec_digest("hpl", dict(HPL_PARAMS))
        assert verdict.run_id == f"hpl-{digest[:12]}"

    def test_id_conflict_is_rejected(self, tmp_path):
        queue = _admission(tmp_path)
        queue.admit([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
        [verdict], to_enqueue = queue.admit(
            [RunSpec("r1", "hpl", dict(HPL_PARAMS, n=2000))]
        )
        assert verdict.disposition == REJECTED
        assert "different spec" in verdict.reason
        assert to_enqueue == []
        assert queue.records["r1"].params["n"] == HPL_PARAMS["n"]

    def test_admission_cache_hit_is_zero_launch(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), version="v1")
        cache.put("hpl", dict(HPL_PARAMS), {"gflops": 1.5})
        queue = _admission(tmp_path, cache=cache)
        [verdict], to_enqueue = queue.admit([RunSpec("r2", "hpl", dict(HPL_PARAMS))])
        queue.journal.close()
        assert verdict.disposition == CACHED
        assert verdict.status == DONE
        assert to_enqueue == []  # never reaches the pool
        record = queue.records["r2"]
        assert record.cached
        assert json.load(open(record.result_path)) == {"gflops": 1.5}
        # The cached result was journaled inside the admission batch.
        types = [
            json.loads(line)["type"] for line in open(queue.journal.path)
        ]
        assert types == ["header", "add", "done"]
        assert Journal.replay(queue.journal.path).records["r2"].cached


class TestAdmissionScale:
    @pytest.mark.slow
    @pytest.mark.timeout(120)
    def test_batched_admission_at_1e4_scale(self, tmp_path, monkeypatch):
        """One batched admission of ten thousand specs lands within a
        wall-time bound, in bounded memory, with one journal fsync — and
        a full resubmit is pure dedup."""
        n = 10_000
        queue = _admission(tmp_path)
        specs = [
            RunSpec(f"r{i:05d}", "hpl", dict(HPL_PARAMS, n=1000 + i))
            for i in range(n)
        ]
        fsyncs = []
        real_fsync = journal_module.os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
        )
        tracemalloc.start()
        t0 = time.monotonic()
        verdicts, to_enqueue = queue.admit(specs)
        admit_s = time.monotonic() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert len(fsyncs) == 1
        assert [v.disposition for v in verdicts] == [ADMITTED] * n
        assert len(to_enqueue) == n
        assert admit_s < 30.0, f"admission took {admit_s:.1f}s for {n} specs"
        assert peak < 256 * 1024 * 1024, f"peak {peak / 1e6:.0f} MB"

        # Everything admitted is durable — replay sees all n, pending.
        state = Journal.replay(queue.journal.path)
        assert len(state.records) == n
        assert all(r.status == PENDING for r in state.records.values())

        # Resubmitting the whole batch is pure dedup: zero new journal
        # bytes, nothing to enqueue, and it must also be fast.
        size = os.path.getsize(queue.journal.path)
        t0 = time.monotonic()
        verdicts, to_enqueue = queue.admit(specs)
        dedup_s = time.monotonic() - t0
        assert all(v.disposition == DUPLICATE for v in verdicts)
        assert to_enqueue == []
        assert os.path.getsize(queue.journal.path) == size
        assert dedup_s < 10.0, f"dedup took {dedup_s:.1f}s"
        queue.journal.close()


class TestWorkerExitCodes:
    """``run_spec`` is the worker main minus argv; drive it in-process."""

    def test_unknown_kind_is_permanent(self, tmp_path):
        out = str(tmp_path / "r")
        code = run_spec({"run_id": "x", "kind": "nope", "params": {}, "out_dir": out})
        assert code == EXIT_PERMANENT
        err = json.load(open(os.path.join(out, "error.json")))
        assert err["classification"] == "permanent"
        assert "unknown run kind" in err["message"]

    def test_deterministic_exception_is_permanent(self, tmp_path):
        out = str(tmp_path / "r")
        code = run_spec(
            {"run_id": "x", "kind": "failing", "params": {"message": "boom"},
             "out_dir": out}
        )
        assert code == EXIT_PERMANENT
        err = json.load(open(os.path.join(out, "error.json")))
        assert err["type"] == "ValueError"
        assert "boom" in err["message"]

    def test_sim_timeout_is_transient_with_stuck_details(self, tmp_path):
        out = str(tmp_path / "r")
        params = dict(HPL_PARAMS, max_sim_s=0.05)  # far too little sim time
        code = run_spec(
            {"run_id": "x", "kind": "hpl", "params": params, "out_dir": out,
             "checkpoint_every_s": 0.02}
        )
        assert code == EXIT_TRANSIENT
        err = json.load(open(os.path.join(out, "error.json")))
        assert err["type"] == "SimTimeout"
        assert err["classification"] == "transient"
        # Satellite: the timeout names the stuck threads' CPU and core
        # type, and the last checkpoint taken before the wedge.
        assert err["stuck"], "stuck thread details missing"
        for d in err["stuck"]:
            assert "cpu" in d and "core_type" in d and d["name"].startswith("hpl-")
        assert err["checkpoint_path"] == os.path.join(out, "checkpoint.snap")
        assert os.path.exists(err["checkpoint_path"])

    def test_corrupt_checkpoint_is_transient(self, tmp_path):
        out = str(tmp_path / "r")
        bad = str(tmp_path / "bad.snap")
        open(bad, "wb").write(b"garbage")
        code = run_spec(
            {"run_id": "x", "kind": "hpl", "params": HPL_PARAMS, "out_dir": out,
             "resume_from": bad}
        )
        assert code == EXIT_TRANSIENT
        err = json.load(open(os.path.join(out, "error.json")))
        assert err["bad_checkpoint"] == bad

    def test_success_writes_result(self, tmp_path):
        out = str(tmp_path / "r")
        code = run_spec(
            {"run_id": "x", "kind": "hpl", "params": HPL_PARAMS, "out_dir": out}
        )
        assert code == 0
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["gflops"] > 0
        assert len(result["state_digest"]) == 64


class TestSupervisorSweeps:
    def test_crashed_run_resumes_from_checkpoint_bit_identical(self, tmp_path):
        """A worker SIGKILLed mid-run retries from its checkpoint and
        ends bit-identical to a run that never crashed."""
        sup = _supervisor(tmp_path)
        manifest = sup.run(
            [
                RunSpec("steady", "hpl", dict(HPL_PARAMS)),
                RunSpec(
                    "flaky",
                    "hpl",
                    dict(HPL_PARAMS, crash_at_s=0.08, crash_on_attempts=[1]),
                ),
            ]
        )
        assert manifest.runs["steady"].status == DONE
        assert manifest.runs["steady"].attempts == 1
        flaky = manifest.runs["flaky"]
        assert flaky.status == DONE
        assert flaky.attempts == 2
        assert flaky.last_error is None
        # The retry resumed from the checkpoint, not from scratch, and
        # still converged on the identical final state.
        assert flaky.checkpoint_path and os.path.exists(flaky.checkpoint_path)
        assert (
            _result(sup, "flaky")["state_digest"]
            == _result(sup, "steady")["state_digest"]
        )

    def test_permanent_failure_stops_retrying(self, tmp_path):
        sup = _supervisor(tmp_path)
        manifest = sup.run([RunSpec("bad", "failing", {"message": "nope"})])
        rec = manifest.runs["bad"]
        assert rec.status == FAILED
        assert rec.attempts == 1  # no retries burned on a deterministic error
        assert rec.last_error["classification"] == "permanent"

    def test_transient_failures_exhaust_attempts(self, tmp_path):
        # A huge checkpoint cadence pins the only checkpoint at the first
        # slice boundary, so every retry replays through crash_at_s and
        # dies again instead of resuming past it.
        sup = _supervisor(tmp_path, max_attempts=2, checkpoint_every_s=10.0)
        manifest = sup.run(
            [
                RunSpec(
                    "always-crashes",
                    "hpl",
                    dict(HPL_PARAMS, crash_at_s=0.08, crash_on_attempts=[1, 2, 3]),
                )
            ]
        )
        rec = manifest.runs["always-crashes"]
        assert rec.status == FAILED
        assert rec.attempts == 2
        assert rec.last_error["type"] == "WorkerCrash"

    def test_resume_skips_done_and_restores_in_flight(self, tmp_path):
        """Simulates a killed sweep: first run done, second was mid-run
        with a checkpoint on disk when the supervisor died.  The forged
        crash state is produced the way a real crash produces it — by
        cutting the journal after "two" launched but before it finished."""
        sup = _supervisor(tmp_path)
        runs = [
            RunSpec("one", "hpl", dict(HPL_PARAMS)),
            RunSpec("two", "hpl", dict(HPL_PARAMS, n=2000)),
        ]
        sup.run(runs)
        digest_two = _result(sup, "two")["state_digest"]

        # Rewind the journal to the instant after "two"'s worker was
        # launched: exactly what a SIGKILLed supervisor leaves behind
        # (its "done" was never journaled).
        with open(sup.journal_path) as fh:
            lines = fh.read().splitlines(keepends=True)
        kept = [
            line
            for line in lines
            if not (
                json.loads(line).get("run_id") == "two"
                and json.loads(line)["type"] not in ("add", "launch")
            )
        ]
        with open(sup.journal_path, "w") as fh:
            fh.writelines(kept)
        os.unlink(os.path.join(sup.out_dir, "two", "result.json"))

        events = []
        sup2 = _supervisor(tmp_path, log=events.append)
        manifest2 = sup2.run(runs, resume=True)
        assert manifest2.runs["one"].status == DONE
        assert manifest2.runs["two"].status == DONE
        assert any("skipped" in e for e in events)
        assert any("resuming from" in e for e in events)
        # Restored continuation == the uninterrupted original.
        assert _result(sup2, "two")["state_digest"] == digest_two

    def test_resume_requeues_failed_run_with_fresh_budget(self, tmp_path):
        spec = RunSpec(
            "boom", "hpl",
            dict(HPL_PARAMS, crash_at_s=0.02, crash_on_attempts=[1, 2, 3]),
        )
        manifest = _supervisor(tmp_path, max_attempts=1).run([spec])
        assert manifest.runs["boom"].status == FAILED
        sup = _supervisor(tmp_path, max_attempts=1)
        manifest = sup.run([spec], resume=True)
        # One fresh attempt, spent on the same deterministic crash.
        assert manifest.runs["boom"].status == FAILED
        assert manifest.runs["boom"].attempts == 1
        with open(sup.journal_path) as fh:
            requeues = [e for e in map(json.loads, fh) if e["type"] == "requeue"]
        assert requeues == [{"type": "requeue", "run_id": "boom", "attempts": 0}]

    def test_wall_clock_timeout_kills_worker(self, tmp_path):
        sup = _supervisor(tmp_path, wall_timeout_s=0.2, max_attempts=1)
        manifest = sup.run([RunSpec("slow", "hpl", dict(HPL_PARAMS, n=20000))])
        rec = manifest.runs["slow"]
        assert rec.status == FAILED
        # The pool's liveness monitor names the verdict: past the wall
        # deadline (a "slow" kill), classified transient.
        assert rec.last_error["type"] in ("WallTimeout", "StuckWorker")
        assert rec.last_error["classification"] == "transient"


SWEEP = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "sweep.py"
)
ONE_RUN = ["--n", "1000", "--variants", "openblas", "--backoff-s", "0"]


def _sweep(*args):
    return subprocess.run(
        [sys.executable, SWEEP, *ONE_RUN, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def finished_sweep(tmp_path_factory):
    """A one-run sweep finished with ``--slice-s 0.05``."""
    out = str(tmp_path_factory.mktemp("sweep") / "out")
    done = _sweep("--out", out, "--slice-s", "0.05")
    assert done.returncode == 0, done.stdout + done.stderr
    return out


class TestSweepCliRejectsChangedSpecs:
    """``--resume`` with changed parameters names a different spec under
    an existing run id: the sweep must say so and fail, not print the
    old run as complete."""

    def test_resume_with_changed_spec_exits_1_and_says_why(self, finished_sweep):
        resumed = _sweep("--out", finished_sweep, "--resume", "--slice-s", "0.02")
        assert resumed.returncode == 1, resumed.stdout + resumed.stderr
        assert (
            "hpl-openblas-n1000 rejected: run id 'hpl-openblas-n1000' "
            "already names a different spec"
        ) in resumed.stdout
        assert "fleet metrics: none" in resumed.stdout  # nothing launched

    def test_dry_run_plans_a_reject_with_the_reason(self, finished_sweep):
        before = open(os.path.join(finished_sweep, "journal.jsonl"), "rb").read()
        plan = _sweep(
            "--out", finished_sweep, "--resume", "--dry-run", "--slice-s", "0.02"
        )
        assert plan.returncode == 0, plan.stdout + plan.stderr
        [row] = [l for l in plan.stdout.splitlines() if l.startswith("hpl-openblas")]
        assert row.split()[1] == "reject"
        assert "already names a different spec" in row
        assert "1 reject" in plan.stdout
        after = open(os.path.join(finished_sweep, "journal.jsonl"), "rb").read()
        assert after == before
