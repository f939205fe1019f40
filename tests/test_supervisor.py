"""Supervisor: the run plan, crash isolation, retry classification, resume.

The acceptance bar: SIGKILLing a sweep (supervisor or worker, any
moment) and resuming must produce results bit-identical to a sweep that
was never interrupted.  Workers run as real forked processes here — these
tests exercise the same code path ``tools/sweep.py`` drives.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from repro.supervisor import (
    DONE,
    EXIT_PERMANENT,
    EXIT_TRANSIENT,
    FAILED,
    PENDING,
    Journal,
    Manifest,
    ResultCache,
    RunRecord,
    RunSpec,
    Supervisor,
)
from repro.supervisor import journal as journal_module
from repro.supervisor.worker import run_spec

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


def _journal_types(sup):
    """Event types of ``sup``'s journal, without the seal every
    ``run()`` ends with."""
    with open(sup.journal_path) as fh:
        types = [json.loads(line)["type"] for line in fh]
    assert types[-2] == "metrics" and types[-1] in ("complete", "drain")
    return types[:-2]


def _drained(path, **kw):
    """A supervisor that admits and journals but launches nothing."""
    sup = Supervisor(str(path), workers=1, log=lambda msg: None, **kw)
    sup.request_drain()
    return sup


class TestAdmission:
    def test_idempotent_by_digest(self, tmp_path):
        """Resubmitting a known run id with the same spec is a no-op:
        nothing is journaled for it and nothing runs again."""
        spec = RunSpec("r1", "hpl", dict(HPL_PARAMS))
        _drained(tmp_path / "sweep").run([spec])
        sup = _drained(tmp_path / "sweep")
        [entry] = sup.plan([spec, spec], resume=True)
        assert (entry.run_id, entry.fate) == ("r1", "resume")
        size = os.path.getsize(sup.journal_path)
        sup.run([RunSpec("r1", "hpl", dict(HPL_PARAMS))] * 2, resume=True)
        with open(sup.journal_path) as fh:
            fh.seek(size)
            assert [json.loads(line)["type"] for line in fh] == ["metrics", "drain"]
        assert list(sup.records) == ["r1"]

    def test_run_spec_needs_a_run_id(self):
        with pytest.raises(ValueError, match="needs a run id"):
            RunSpec("", "hpl", dict(HPL_PARAMS))

    def test_id_conflict_is_rejected(self, tmp_path):
        _drained(tmp_path / "sweep").run([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
        sup = _drained(tmp_path / "sweep")
        sup.run([RunSpec("r1", "hpl", dict(HPL_PARAMS, n=2000))], resume=True)
        [entry] = sup.rejected
        assert entry.run_id == "r1" and entry.fate == "reject"
        assert "different spec" in entry.reason
        assert sup.records["r1"].params["n"] == HPL_PARAMS["n"]
        assert _journal_types(sup).count("add") == 1

    def test_admission_cache_hit_is_zero_launch(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put("hpl", dict(HPL_PARAMS), {"gflops": 1.5})
        sup = Supervisor(
            str(tmp_path / "sweep"), cache_dir=cache.root, log=lambda m: None
        )
        manifest = sup.run([RunSpec("r2", "hpl", dict(HPL_PARAMS))])
        record = manifest.runs["r2"]
        assert record.status == DONE and record.cached
        assert json.load(open(record.result_path)) == {"gflops": 1.5}
        assert ("fleet.launch", None) not in sup.metrics.counters  # no worker
        # The cached result was journaled inside the admission batch.
        assert _journal_types(sup) == ["header", "add", "done"]
        assert Journal.replay(sup.journal_path).records["r2"].cached


class TestAdmissionScale:
    @pytest.mark.slow
    @pytest.mark.timeout(120)
    def test_batched_admission_at_1e4_scale(self, tmp_path, monkeypatch):
        """Ten thousand specs are admitted within a wall-time bound, in
        bounded memory, with one journal write for the whole batch, so
        the sweep pays as many fsyncs as a one-spec sweep — and a full
        resubmit journals no admission bytes."""
        n = 10_000
        specs = [
            RunSpec(f"r{i:05d}", "hpl", dict(HPL_PARAMS, n=1000 + i))
            for i in range(n)
        ]
        fsyncs = []
        real_fsync = journal_module.os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
        )
        batches = []
        real_append_many = Journal.append_many

        def append_many(journal, events):
            events = list(events)
            batches.append([e["type"] for e in events])
            return real_append_many(journal, events)

        monkeypatch.setattr(Journal, "append_many", append_many)

        _drained(tmp_path / "one").run(specs[:1])
        one_spec_fsyncs = len(fsyncs)
        fsyncs.clear()
        batches.clear()
        sup = _drained(tmp_path / "sweep")
        tracemalloc.start()
        t0 = time.monotonic()
        sup.run(specs)
        admit_s = time.monotonic() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert len(fsyncs) == one_spec_fsyncs
        assert ["add"] * n in batches
        assert sum(types.count("add") for types in batches) == n
        assert admit_s < 30.0, f"admission took {admit_s:.1f}s for {n} specs"
        assert peak < 256 * 1024 * 1024, f"peak {peak / 1e6:.0f} MB"

        # Everything admitted is durable — replay sees all n, pending.
        state = Journal.replay(sup.journal_path)
        assert len(state.records) == n
        assert all(r.status == PENDING for r in state.records.values())

        # Resubmitting the whole batch journals no admission events and
        # must also be fast.
        size = os.path.getsize(sup.journal_path)
        again = _drained(tmp_path / "sweep")
        t0 = time.monotonic()
        again.run(specs, resume=True)
        dedup_s = time.monotonic() - t0
        with open(again.journal_path) as fh:
            fh.seek(size)
            assert [json.loads(line)["type"] for line in fh] == ["metrics", "drain"]
        assert again.rejected == []
        assert dedup_s < 10.0, f"dedup took {dedup_s:.1f}s"


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


# -- the plan is what a resume does -------------------------------------------


def _failing(run_id, **params):
    """A spec whose worker fails at once (permanent): cheap to launch."""
    return RunSpec(run_id, "failing", {"message": run_id, **params})


def _add(run_id, **params):
    spec = _failing(run_id, **params)
    return {"type": "add", "run_id": run_id, "kind": spec.kind, "params": spec.params}


def _launch(run_id, attempt=1, pid=None):
    return {"type": "launch", "run_id": run_id, "attempt": attempt, "slot": 0,
            "resume_from": None, "pid": pid}


def _done(run_id):
    return {"type": "done", "run_id": run_id, "attempt": 1,
            "result_path": f"{run_id}/result.json", "cached": False}


def _failed(run_id):
    return [
        _launch(run_id),
        {"type": "exit", "run_id": run_id, "attempt": 1, "code": EXIT_PERMANENT,
         "liveness": "live", "error": {"type": "ValueError"},
         "checkpoint_path": None},
        {"type": "failed", "run_id": run_id, "attempt": 1,
         "error": {"type": "ValueError"}},
    ]


def _journaled_fates(sup, since, journaled):
    """Every (run id, fate) as the journal tells it: the events ``run()``
    appended after byte ``since``, the rejections, and the journaled runs
    it left alone."""
    with open(sup.journal_path) as fh:
        fh.seek(since)
        events = [json.loads(line) for line in fh]
    types: dict[str, list[str]] = {}
    for event in events:
        if "run_id" in event:
            types.setdefault(event["run_id"], []).append(event["type"])
    first_event_fate = {
        "requeue": "requeue", "launch": "resume", "failed": "fail", "done": "skip"
    }
    fates = set()
    for run_id, seen in types.items():
        if seen[0] == "add":
            fates.add((run_id, "skip" if seen[1:2] == ["done"] else "admit"))
        else:
            fates.add((run_id, first_event_fate[seen[0]]))
    rejected = {entry.run_id for entry in sup.rejected}
    fates |= {(run_id, "reject") for run_id in rejected}
    fates |= {
        (run_id, "skip")
        for run_id in journaled
        if run_id not in types and run_id not in rejected
    }
    return fates


#: (journal events, submitted specs, cached specs, expected plan)
PLAN_CASES = {
    "done": ([_add("d"), _launch("d"), _done("d")], [_failing("d")], [],
             [("d", "skip")]),
    "failed": ([_add("f"), *_failed("f")], [_failing("f")], [],
               [("f", "requeue")]),
    "in-flight": ([_add("i"), _launch("i", pid="ORPHAN")], [_failing("i")], [],
                  [("i", "resume")]),
    "spent-budget": ([_add("s"), _launch("s", attempt=3)], [_failing("s")], [],
                     [("s", "fail")]),
    "cache-servable": ([_add("c")], [_failing("c"), _failing("n")],
                       [_failing("c"), _failing("n")],
                       [("c", "skip"), ("n", "skip")]),
    "conflicting": ([_add("d"), _launch("d"), _done("d"), _add("p")],
                    [_failing("d", x=1), _failing("p", x=1)], [],
                    [("p", "resume"), ("d", "reject"), ("p", "reject")]),
    "not-resubmitted": ([_add("f"), *_failed("f"), _add("d"), _launch("d"),
                         _done("d"), _add("p")],
                        [_failing("n")], [],
                        [("f", "requeue"), ("d", "skip"), ("p", "resume"),
                         ("n", "admit")]),
}


class TestPlanIsWhatResumeDoes:
    """``Supervisor.plan`` (what ``--dry-run`` prints) lists exactly the
    runs and fates the following ``run(resume=True)`` journals."""

    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    def test_plan_matches_the_resumed_journal(self, tmp_path, case):
        events, specs, cached, expected = PLAN_CASES[case]
        cache = ResultCache(str(tmp_path / "cache"))
        for spec in cached:
            cache.put(spec.kind, spec.params, {"cached": spec.run_id})
        # A worker the dead supervisor left running, in its own session.
        orphan = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"],
            start_new_session=True,
        )
        try:
            events = [
                dict(e, pid=orphan.pid) if e.get("pid") == "ORPHAN" else e
                for e in events
            ]
            out = tmp_path / "sweep"
            out.mkdir()
            journal = Journal(str(out / "journal.jsonl"))
            journal.open_fresh()
            journal.append_many(events)
            journal.close()
            journaled = set(Journal.replay(journal.path).records)

            def supervisor():
                return _supervisor(
                    tmp_path, workers=2, cache_dir=cache.root, max_attempts=3
                )

            before = open(journal.path, "rb").read()
            plan = supervisor().plan(specs, resume=True)
            assert open(journal.path, "rb").read() == before  # touches nothing
            assert [(e.run_id, e.fate) for e in plan] == expected
            assert all(e.reason for e in plan)
            orphans = {e.run_id: e.orphan_pid for e in plan if e.orphan_pid}
            assert orphans == ({"i": orphan.pid} if case == "in-flight" else {})

            sup = supervisor()
            sup.run(specs, resume=True)
            assert _journaled_fates(sup, len(before), journaled) == set(expected)
            if case == "in-flight":
                assert orphan.wait(timeout=10) == -signal.SIGKILL
        finally:
            orphan.kill()
            orphan.wait()


def _plan_rows(stdout):
    """The (run id, fate) rows ``tools/sweep.py --dry-run`` printed."""
    lines = stdout.splitlines()
    start = lines.index(next(l for l in lines if l.split()[:2] == ["run", "plan"]))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("[sweep] dry run:"):
            return rows
        rows.append(tuple(line.split()[:2]))
    raise AssertionError(f"no dry-run summary in:\n{stdout}")


class TestSweepCliDryRun:
    """The previews ``tools/sweep.py --dry-run`` used to get wrong."""

    def test_dry_run_lists_a_failed_run_that_was_not_resubmitted(self, tmp_path):
        out = str(tmp_path / "out")
        chaos = ["--chaos-seed", "19", "--max-attempts", "1"]  # n2000 crashes
        first = _sweep("--out", out, "--n", "1000", "2000", *chaos)
        assert first.returncode == 1, first.stdout + first.stderr
        dry = _sweep("--out", out, "--resume", "--n", "1000", *chaos, "--dry-run")
        assert dry.returncode == 0, dry.stdout + dry.stderr
        rows = _plan_rows(dry.stdout)
        assert rows == [
            ("hpl-openblas-n1000", "skip"), ("hpl-openblas-n2000", "requeue")
        ]
        size = os.path.getsize(os.path.join(out, "journal.jsonl"))
        resumed = _sweep("--out", out, "--resume", "--n", "1000", *chaos)
        assert resumed.returncode == 1, resumed.stdout + resumed.stderr
        assert "launch=1" in resumed.stdout
        sup = Supervisor(out, log=lambda m: None)
        assert _journaled_fates(sup, size, {r for r, _ in rows}) == set(rows)

    def test_dry_run_lists_a_cache_hit_as_skip(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        warm = _sweep("--out", str(tmp_path / "a"), *cache)
        assert warm.returncode == 0, warm.stdout + warm.stderr
        out = str(tmp_path / "b")
        dry = _sweep("--out", out, *cache, "--dry-run")
        assert _plan_rows(dry.stdout) == [("hpl-openblas-n1000", "skip")]
        assert "served from the result cache" in dry.stdout
        assert not os.path.exists(out)
        served = _sweep("--out", out, *cache)
        assert served.returncode == 0, served.stdout + served.stderr
        assert "cache_hit=1" in served.stdout and "launch=" not in served.stdout
