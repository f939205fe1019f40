"""Tests for repro-lint's whole-program passes.

Covers the interprocedural reach of the PAPI typestate
(``PAPI-LIFECYCLE`` through helpers and ``self.<field>``), the journal
protocol-exhaustiveness pass (``PROTO-JOURNAL``), the determinism taint
pass (``DET-TAINT``) and fork/signal safety
(``FORK-SAFETY``/``SIGNAL-SAFETY``).  Each rule gets a good/bad
fixture pair; the seeding tests mutate a copy of the *real* supervisor
sources to prove a fresh asymmetry is caught.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

from repro.analysis import run_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_many(tmp_path, files, only=None):
    """Write a multi-file fixture repo and analyze it."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run_analysis(tmp_path, paths=sorted(files), only_rules=only)


def rule_ids(result):
    return sorted(f.rule for f in result.new_findings)


# -- interprocedural PAPI typestate ------------------------------------------


class TestInterprocLifecycle:
    def test_helper_created_handle_leaks_at_call_site(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/x.py": """
                def make(papi):
                    es = papi.create_eventset()
                    return es

                def use(papi):
                    es = make(papi)
                    papi.start(es)
                    papi.stop(es)
                """
            },
            only=["PAPI-LIFECYCLE"],
        )
        assert rule_ids(result) == ["PAPI-LIFECYCLE"]
        assert result.new_findings[0].symbol.endswith("use")

    def test_helper_created_handle_destroyed_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/x.py": """
                def make(papi):
                    es = papi.create_eventset()
                    return es

                def use(papi):
                    es = make(papi)
                    papi.start(es)
                    papi.stop(es)
                    papi.destroy_eventset(es)
                """
            },
            only=["PAPI-LIFECYCLE"],
        )
        assert result.new_findings == []

    def test_closer_helper_transitions_the_argument(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/x.py": """
                def cleanup(es, papi):
                    papi.destroy_eventset(es)

                def use(papi):
                    es = papi.create_eventset()
                    papi.start(es)
                    papi.stop(es)
                    cleanup(es, papi)
                """
            },
            only=["PAPI-LIFECYCLE"],
        )
        assert result.new_findings == []

    def test_field_stored_handle_with_no_closing_method(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/x.py": """
                class Meter:
                    def __init__(self, papi):
                        self._es = papi.create_eventset()
                """
            },
            only=["PAPI-LIFECYCLE"],
        )
        assert rule_ids(result) == ["PAPI-LIFECYCLE"]
        assert "self._es" in result.new_findings[0].message

    def test_field_stored_handle_with_closing_method_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/x.py": """
                class Meter:
                    def __init__(self, papi):
                        self._papi = papi
                        self._es = papi.create_eventset()

                    def close(self):
                        self._papi.destroy_eventset(self._es)
                """
            },
            only=["PAPI-LIFECYCLE"],
        )
        assert result.new_findings == []


# -- journal protocol exhaustiveness -----------------------------------------

JOURNAL_MODULE = """
    EVENT_TYPES = ("header", "add", "done")


    class Journal:
        def append(self, event):
            pass

        def _apply(self, state, event):
            etype = event["type"]
            if etype == "header":
                return
            if etype == "add":
                state.add(event)
            elif etype == "done":
                state.done(event)
"""


class TestJournalProtocol:
    def test_matched_protocol_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/journal.py": JOURNAL_MODULE,
                "src/repro/supervisor/pool.py": """
                def produce(journal):
                    journal.append({"type": "header"})
                    journal.append({"type": "add"})
                    journal.append({"type": "done"})
                """,
            },
            only=["PROTO-JOURNAL"],
        )
        assert result.new_findings == []

    def test_undeclared_kind_is_an_error_at_the_append(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/journal.py": JOURNAL_MODULE,
                "src/repro/supervisor/pool.py": """
                def produce(journal):
                    journal.append({"type": "header"})
                    journal.append({"type": "add"})
                    journal.append({"type": "done"})
                    journal.append({"type": "retry"})
                """,
            },
            only=["PROTO-JOURNAL"],
        )
        assert rule_ids(result) == ["PROTO-JOURNAL"]
        [finding] = result.new_findings
        assert "'retry'" in finding.message
        assert finding.path == "src/repro/supervisor/pool.py"

    def test_declared_but_unconsumed_kind_is_an_error(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/journal.py": JOURNAL_MODULE.replace(
                    '("header", "add", "done")',
                    '("header", "add", "done", "metrics")',
                ),
                "src/repro/supervisor/pool.py": """
                def produce(journal):
                    journal.append({"type": "header"})
                    journal.append({"type": "add"})
                    journal.append({"type": "done"})
                    journal.append({"type": "metrics"})
                """,
            },
            only=["PROTO-JOURNAL"],
        )
        assert rule_ids(result) == ["PROTO-JOURNAL"]
        [finding] = result.new_findings
        assert "'metrics'" in finding.message
        assert "never consumed" in finding.message
        assert finding.path == "src/repro/supervisor/journal.py"

    def test_declared_but_never_produced_kind_is_a_warning(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/journal.py": JOURNAL_MODULE,
                "src/repro/supervisor/pool.py": """
                def produce(journal):
                    journal.append({"type": "header"})
                    journal.append({"type": "add"})
                """,
            },
            only=["PROTO-JOURNAL"],
        )
        [finding] = result.new_findings
        assert "'done'" in finding.message
        assert "dead protocol" in finding.message
        assert finding.severity.value == "warning"

    def test_ifexp_and_helper_returned_kinds_resolve(self, tmp_path):
        """The real repo's production idioms: IfExp kinds and records
        built by a helper the append site only calls."""
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/journal.py": JOURNAL_MODULE,
                "src/repro/supervisor/pool.py": """
                def add_event(rid):
                    return {"type": "add", "run_id": rid}

                def produce(journal, drained):
                    journal.append({"type": "header"})
                    journal.append(add_event("r1"))
                    journal.append({"type": "done" if drained else "done"})
                """,
            },
            only=["PROTO-JOURNAL"],
        )
        assert result.new_findings == []


# -- seeding asymmetries into a copy of the real supervisor ------------------


class TestSeededServiceAsymmetries:
    """Acceptance: mutate a fixture copy of the real supervisor sources
    and prove the protocol passes catch the fresh asymmetry."""

    def _copy_supervisor(self, tmp_path) -> Path:
        dest = tmp_path / "src" / "repro" / "supervisor"
        shutil.copytree(REPO_ROOT / "src" / "repro" / "supervisor", dest)
        return dest

    def test_real_supervisor_copy_is_clean(self, tmp_path):
        self._copy_supervisor(tmp_path)
        result = run_analysis(
            tmp_path,
            paths=["src/repro/supervisor"],
            only_rules=["PROTO-JOURNAL"],
        )
        assert result.new_findings == []

    def test_seeded_unhandled_journal_kind_is_detected(self, tmp_path):
        dest = self._copy_supervisor(tmp_path)
        pool = dest / "pool.py"
        text = pool.read_text()
        assert '"type": "done"' in text
        pool.write_text(text.replace('"type": "done"', '"type": "done2"', 1))
        result = run_analysis(
            tmp_path,
            paths=["src/repro/supervisor"],
            only_rules=["PROTO-JOURNAL"],
        )
        assert any(
            "'done2'" in f.message and "not declared" in f.message
            for f in result.new_findings
        )


# -- determinism taint -------------------------------------------------------


class TestDeterminismTaint:
    def test_wallclock_into_journal_append(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import time


                class Pool:
                    def __init__(self, journal):
                        self.journal = journal

                    def finish(self, rid):
                        now = time.time()
                        self.journal.append(
                            {"type": "done", "run_id": rid, "at": now}
                        )
                """
            },
            only=["DET-TAINT"],
        )
        assert rule_ids(result) == ["DET-TAINT"]
        assert "journal append" in result.new_findings[0].message

    def test_taint_through_helper_return_into_digest(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/queue.py": """
                import time


                def stamp():
                    return time.time()


                def cache_key(spec, spec_digest):
                    salt = stamp()
                    return spec_digest(spec, salt)
                """
            },
            only=["DET-TAINT"],
        )
        assert rule_ids(result) == ["DET-TAINT"]
        assert "digest input" in result.new_findings[0].message
        assert "'salt'" in result.new_findings[0].message

    def test_injected_clock_for_scheduling_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import time


                class Pool:
                    def __init__(self, journal, clock=time.monotonic):
                        self.clock = clock
                        self.journal = journal

                    def finish(self, rid, deadline):
                        now = self.clock()
                        if now > deadline:
                            return
                        self.journal.append({"type": "done", "run_id": rid})
                """
            },
            only=["DET-TAINT"],
        )
        assert result.new_findings == []


# -- fork / signal safety ----------------------------------------------------


class TestForkSafety:
    def test_popen_without_new_session(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import subprocess


                def launch(cmd):
                    return subprocess.Popen(cmd)
                """
            },
            only=["FORK-SAFETY"],
        )
        assert rule_ids(result) == ["FORK-SAFETY"]
        assert "start_new_session" in result.new_findings[0].message

    def test_popen_with_new_session_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import subprocess


                def launch(cmd):
                    return subprocess.Popen(cmd, start_new_session=True)
                """
            },
            only=["FORK-SAFETY"],
        )
        assert result.new_findings == []

    def test_fork_without_setsid(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/worker.py": """
                import os


                def spawn(run):
                    pid = os.fork()
                    if pid == 0:
                        os._exit(run())
                    return pid
                """
            },
            only=["FORK-SAFETY"],
        )
        assert rule_ids(result) == ["FORK-SAFETY"]
        assert "os.setsid()" in result.new_findings[0].message

    def test_fork_with_setsid_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/worker.py": """
                import os


                def spawn(run):
                    pid = os.fork()
                    if pid == 0:
                        os.setsid()
                        os._exit(run())
                    return pid
                """
            },
            only=["FORK-SAFETY"],
        )
        assert result.new_findings == []


class TestSignalSafety:
    def test_logging_handler_is_flagged_transitively(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/supervisor.py": """
                import signal


                class Sweep:
                    def log(self, msg):
                        print(msg)

                    def _on_term(self, signum, frame):
                        self.log("bye")

                    def serve(self):
                        signal.signal(signal.SIGTERM, self._on_term)
                """
            },
            only=["SIGNAL-SAFETY"],
        )
        assert rule_ids(result) == ["SIGNAL-SAFETY"]
        assert "print()" in result.new_findings[0].message
        assert "_on_term" in result.new_findings[0].message

    def test_flags_and_os_write_handler_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/supervisor.py": """
                import os
                import signal


                class Sweep:
                    def request_drain(self):
                        self._draining = True

                    def _on_term(self, signum, frame):
                        self._shutdown = True
                        self.request_drain()
                        os.write(2, b"term\\n")

                    def serve(self):
                        signal.signal(signal.SIGTERM, self._on_term)
                """
            },
            only=["SIGNAL-SAFETY"],
        )
        assert result.new_findings == []

    def test_live_supervisor_handlers_are_safe(self):
        """The shipped pool and sweep handlers must stay flag-only."""
        result = run_analysis(
            REPO_ROOT,
            paths=["src/repro/supervisor", "tools"],
            only_rules=["SIGNAL-SAFETY"],
        )
        assert result.new_findings == []
