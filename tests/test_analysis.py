"""Tests for repro.analysis — the repro-lint static analyzer.

Each rule gets a good/bad fixture pair, plus suppression handling
(including unused suppressions), reporters, CLI exit codes, and the
meta-test that the live repository is lint-clean.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Severity, run_analysis
from repro.analysis.core import all_rules
from repro.analysis.report import render_human, render_json

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


def lint(tmp_path: Path, relpath: str, source: str, only=None):
    """Write one fixture file into a scratch repo and analyze it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return run_analysis(tmp_path, paths=[relpath], only_rules=only)


def rule_ids(result):
    return sorted(f.rule for f in result.new_findings)


def _doc_rule_ids(relpath: str) -> set[str]:
    """Rule ids in the first column of a document's ``| Rule | …`` table."""
    lines = (REPO_ROOT / relpath).read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| Rule |"))
    ids = set()
    for line in lines[start + 2:]:  # skip the header and |---| rows
        if not line.startswith("|"):
            break
        ids.add(line.split("|")[1].strip().strip("`"))
    return ids


# -- determinism rules -------------------------------------------------------


class TestWallClock:
    BAD = """
        import time

        def elapsed():
            return time.time()
    """

    def test_bad(self, tmp_path):
        result = lint(tmp_path, "src/repro/sim/x.py", self.BAD)
        assert rule_ids(result) == ["DET-WALLCLOCK"]
        assert "time.time" in result.new_findings[0].message

    def test_datetime_now(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/hw/x.py",
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
        )
        assert rule_ids(result) == ["DET-WALLCLOCK"]

    def test_good_sim_clock(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            def elapsed(clock):
                return clock.now_s
            """,
        )
        assert result.new_findings == []

    def test_out_of_scope(self, tmp_path):
        """Wall-clock use outside the deterministic layers is fine."""
        result = lint(tmp_path, "tools/x.py", self.BAD, only=["DET-WALLCLOCK"])
        assert result.new_findings == []


class TestUnseededRandom:
    def test_module_rng_banned(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/kernel/x.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        assert rule_ids(result) == ["DET-RANDOM"]

    def test_os_urandom_banned(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/faults/x.py",
            """
            import os

            def token():
                return os.urandom(8)
            """,
        )
        assert rule_ids(result) == ["DET-RANDOM"]

    def test_numpy_global_rng_banned(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            import numpy as np

            def noise():
                return np.random.rand()
            """,
        )
        assert rule_ids(result) == ["DET-RANDOM"]

    def test_seeded_sources_allowed(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            import random
            import numpy as np

            def make(seed):
                return random.Random(seed), np.random.default_rng(seed)
            """,
        )
        assert result.new_findings == []


class TestHashOrderIteration:
    def test_for_over_set_literal(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            def walk():
                for cpu in {0, 1, 2}:
                    print(cpu)
            """,
        )
        assert rule_ids(result) == ["DET-HASH-ITER"]

    def test_list_over_set_variable(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/kernel/x.py",
            """
            def snapshot(xs):
                online = set(xs)
                return list(online)
            """,
        )
        assert rule_ids(result) == ["DET-HASH-ITER"]

    def test_sorted_launders_order(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            def walk(xs):
                online = set(xs)
                for cpu in sorted(online):
                    print(cpu)
                return sorted(online)
            """,
        )
        assert result.new_findings == []


class TestIdentityOrder:
    def test_key_id(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            def order(threads):
                return sorted(threads, key=id)
            """,
        )
        assert rule_ids(result) == ["DET-ID-ORDER"]

    def test_lambda_wrapping_id(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            def order(threads):
                threads.sort(key=lambda t: (id(t), t.weight))
            """,
        )
        assert rule_ids(result) == ["DET-ID-ORDER"]

    def test_stable_key_ok(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            def order(threads):
                return sorted(threads, key=lambda t: t.tid)
            """,
        )
        assert result.new_findings == []


# -- snapshot-surface cross-check -------------------------------------------


SURFACE_GOOD = """
    from repro.checkpoint.surface import snapshot_surface

    @snapshot_surface(state=("a", "b"), note="test")
    class C:
        def __init__(self):
            self.a = 1
            self.b = 2
"""


class TestSnapshotSurface:
    def test_declared_surface_matches(self, tmp_path):
        result = lint(tmp_path, "src/repro/x.py", SURFACE_GOOD)
        assert result.new_findings == []

    def test_missing_state_declaration(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/x.py",
            """
            from repro.checkpoint.surface import snapshot_surface

            @snapshot_surface(note="test")
            class C:
                def __init__(self):
                    self.a = 1
            """,
        )
        assert rule_ids(result) == ["SURFACE-DECL"]

    def test_undeclared_attribute(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/x.py",
            """
            from repro.checkpoint.surface import snapshot_surface

            @snapshot_surface(state=("a",), note="test")
            class C:
                def __init__(self):
                    self.a = 1

                def mutate(self):
                    self.hidden = 3
            """,
        )
        assert rule_ids(result) == ["SURFACE-DECL"]
        assert "hidden" in result.new_findings[0].message

    def test_declared_but_never_assigned(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/x.py",
            """
            from repro.checkpoint.surface import snapshot_surface

            @snapshot_surface(state=("a", "ghost"), note="test")
            class C:
                def __init__(self):
                    self.a = 1
            """,
        )
        assert rule_ids(result) == ["SURFACE-DECL"]
        assert "ghost" in result.new_findings[0].message


# -- PAPI / perf contract rules ---------------------------------------------


class TestEventSetLifecycle:
    GOOD = """
        def run(papi, thread):
            es = papi.create_eventset()
            papi.attach(es, thread)
            papi.add_event(es, "PAPI_TOT_INS")
            papi.start(es)
            values = papi.stop(es)
            papi.destroy_eventset(es)
            return values
    """

    def test_full_lifecycle_clean(self, tmp_path):
        result = lint(tmp_path, "examples/x.py", self.GOOD)
        assert result.new_findings == []

    def test_read_before_start(self, tmp_path):
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def run(papi):
                es = papi.create_eventset()
                papi.add_event(es, "PAPI_TOT_INS")
                values = papi.read(es)
                papi.destroy_eventset(es)
                return values
            """,
        )
        assert "PAPI-LIFECYCLE" in rule_ids(result)
        assert any(
            "before it is ever started" in f.message for f in result.new_findings
        )

    def test_double_start(self, tmp_path):
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def run(papi):
                es = papi.create_eventset()
                papi.add_event(es, "PAPI_TOT_INS")
                papi.start(es)
                papi.start(es)
                papi.stop(es)
                papi.destroy_eventset(es)
            """,
        )
        assert any("started twice" in f.message for f in result.new_findings)

    def test_leak(self, tmp_path):
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def run(papi):
                es = papi.create_eventset()
                papi.add_event(es, "PAPI_TOT_INS")
                papi.start(es)
                return papi.stop(es)
            """,
        )
        assert any("never destroyed" in f.message for f in result.new_findings)

    def test_use_after_destroy(self, tmp_path):
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def run(papi):
                es = papi.create_eventset()
                papi.destroy_eventset(es)
                papi.start(es)
            """,
        )
        assert any("after destroy" in f.message for f in result.new_findings)

    def test_branch_merges_conservatively(self, tmp_path):
        """A handle destroyed on only one branch is not a must-violation."""
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def run(papi, early):
                es = papi.create_eventset()
                papi.add_event(es, "PAPI_TOT_INS")
                if early:
                    papi.destroy_eventset(es)
                    return None
                papi.start(es)
                out = papi.stop(es)
                papi.destroy_eventset(es)
                return out
            """,
        )
        assert result.new_findings == []

    def test_escaped_handle_not_tracked(self, tmp_path):
        """Handles stored into containers leave the analysis silently."""
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def run(papi, registry):
                es = papi.create_eventset()
                registry["es"] = es
            """,
        )
        assert result.new_findings == []


class TestPerfFdLeak:
    def test_leak(self, tmp_path):
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def run(perf, attr):
                fd = perf.perf_event_open(attr, pid=0, cpu=-1)
                perf.ioctl(fd, 1)
            """,
        )
        assert rule_ids(result) == ["PAPI-FD-LEAK"]
        assert "never closed" in result.new_findings[0].message

    def test_closed_is_clean(self, tmp_path):
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def run(perf, attr):
                fd = perf.perf_event_open(attr, pid=0, cpu=-1)
                perf.ioctl(fd, 1)
                perf.close(fd)
            """,
        )
        assert result.new_findings == []

    def test_double_close(self, tmp_path):
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def run(perf, attr):
                fd = perf.perf_event_open(attr, pid=0, cpu=-1)
                perf.close(fd)
                perf.close(fd)
            """,
        )
        assert any("closed twice" in f.message for f in result.new_findings)


class TestPmuMix:
    def test_cross_core_type_mix_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def setup(papi, es):
                papi.add_event(es, "adl_glc::INST_RETIRED:ANY")
                papi.add_event(es, "adl_grt::INST_RETIRED:ANY")
            """,
        )
        assert rule_ids(result) == ["PAPI-PMU-MIX"]
        finding = result.new_findings[0]
        assert finding.severity is Severity.WARNING
        assert "adl_glc" in finding.message and "adl_grt" in finding.message

    def test_single_pmu_clean(self, tmp_path):
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def setup(papi, es):
                papi.add_event(es, "adl_glc::INST_RETIRED:ANY")
                papi.add_event(es, "adl_glc::CPU_CLK_UNHALTED:THREAD")
            """,
        )
        assert result.new_findings == []

    def test_arm_biglittle_mix_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            def setup(papi, es):
                papi.add_event(es, "arm_a72::INST_RETIRED")
                papi.add_event(es, "arm_a53::INST_RETIRED")
            """,
        )
        assert rule_ids(result) == ["PAPI-PMU-MIX"]

    def test_module_constant_resolution(self, tmp_path):
        """Event lists bound to module-level literals are seen through."""
        result = lint(
            tmp_path,
            "examples/x.py",
            """
            P_EVENT = "adl_glc::INST_RETIRED:ANY"
            E_EVENT = "adl_grt::INST_RETIRED:ANY"

            def setup(papi, es):
                papi.add_event(es, P_EVENT)
                papi.add_event(es, E_EVENT)
            """,
        )
        assert rule_ids(result) == ["PAPI-PMU-MIX"]


# -- suppressions ------------------------------------------------------------


class TestSuppressions:
    def test_line_suppression_honored_and_counted(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            import time

            def elapsed():
                return time.time()  # repro-lint: disable=DET-WALLCLOCK
            """,
        )
        assert result.new_findings == []
        assert [f.rule for f in result.suppressed] == ["DET-WALLCLOCK"]

    def test_disable_all(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            import time

            def elapsed():
                return time.time()  # repro-lint: disable=all
            """,
        )
        assert result.new_findings == []
        assert len(result.suppressed) == 1

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        result = lint(
            tmp_path,
            "src/repro/sim/x.py",
            """
            import time

            def elapsed():
                return time.time()  # repro-lint: disable=DET-RANDOM
            """,
        )
        assert rule_ids(result) == ["DET-WALLCLOCK"]
        assert result.suppressed == []

    def test_unused_suppression_reported_and_fails_strict(self, tmp_path):
        source = """
            def elapsed(clock):
                return clock.now_s  # repro-lint: disable=DET-WALLCLOCK
        """
        result = lint(tmp_path, "src/repro/sim/x.py", source)
        assert result.new_findings == []
        assert [(u.line, u.rule) for u in result.unused_suppressions] == [
            (3, "DET-WALLCLOCK")
        ]
        assert result.failed(strict=True)
        assert not result.failed(strict=False)
        assert "unused suppression: DET-WALLCLOCK" in render_human(result)

        # A rule left out of the run cannot make its suppression unused.
        partial = lint(tmp_path, "src/repro/sim/x.py", source, only=["DET-RANDOM"])
        assert partial.unused_suppressions == []
        assert not partial.failed(strict=True)


# -- reporters ---------------------------------------------------------------


class TestReporters:
    def test_json_report_shape(self, tmp_path):
        result = lint(tmp_path, "src/repro/sim/x.py", TestWallClock.BAD)
        payload = json.loads(render_json(result, strict=True))
        assert payload["failed"] is True
        assert payload["files_checked"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET-WALLCLOCK"
        assert finding["path"] == "src/repro/sim/x.py"

    def test_human_report_verdict(self, tmp_path):
        bad = lint(tmp_path, "src/repro/sim/x.py", TestWallClock.BAD)
        text = render_human(bad, strict=True)
        assert "FAILED" in text and "DET-WALLCLOCK" in text

        good = lint(tmp_path, "src/repro/sim/y.py", "X = 1\n")
        assert "repro-lint: ok" in render_human(good, strict=True)

    def test_parse_error_always_fails(self, tmp_path):
        result = lint(tmp_path, "src/repro/sim/x.py", "def broken(:\n")
        assert result.parse_errors
        assert result.failed(strict=False) and result.failed(strict=True)


# -- CLI ---------------------------------------------------------------------


def run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
    )


class TestCli:
    def test_strict_zero_on_clean_tree(self, tmp_path):
        good = tmp_path / "src" / "repro" / "sim" / "x.py"
        good.parent.mkdir(parents=True)
        good.write_text("def f(clock):\n    return clock()\n")
        proc = run_cli("--strict", "--root", str(tmp_path), cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro-lint: ok" in proc.stdout

    def test_nonzero_on_bad_fixture(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim" / "x.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        proc = run_cli("--strict", "--root", str(tmp_path), cwd=REPO_ROOT)
        assert proc.returncode == 1
        assert "DET-WALLCLOCK" in proc.stdout

    def test_unknown_rule_is_usage_error(self):
        proc = run_cli(
            "--rule", "NO-SUCH-RULE", "--root", str(REPO_ROOT), cwd=REPO_ROOT
        )
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = run_cli("--list-rules", cwd=REPO_ROOT)
        assert proc.returncode == 0
        for rule_id in (
            "DET-WALLCLOCK",
            "DET-RANDOM",
            "DET-HASH-ITER",
            "DET-ID-ORDER",
            "SURFACE-DECL",
            "PAPI-LIFECYCLE",
            "PAPI-FD-LEAK",
            "PAPI-PMU-MIX",
        ):
            assert rule_id in proc.stdout


# -- the live repository ----------------------------------------------------


class TestLiveRepo:
    def test_repo_clean(self):
        result = run_analysis(REPO_ROOT)
        assert result.parse_errors == []
        assert result.new_findings == [], [
            f.render() for f in result.new_findings
        ]
        assert result.unused_suppressions == [], [
            u.render() for u in result.unused_suppressions
        ]
        # The CLI's exit rule: `repro-lint --strict` on this tree exits 0.
        assert not result.failed(strict=True)

    def test_all_snapshot_surfaces_statically_declared(self):
        """Every @snapshot_surface class passes the static cross-check."""
        result = run_analysis(
            REPO_ROOT, paths=["src/repro"], only_rules=["SURFACE-DECL"]
        )
        assert result.new_findings == []

        # The static check covers the same classes the runtime registry
        # sees: every registered surface carries a non-empty state tuple.
        import repro.system  # noqa: F401  (imports the whole stack)
        import repro.faults.injector  # noqa: F401
        import repro.monitor.sampler  # noqa: F401
        from repro.checkpoint.surface import SNAPSHOT_SURFACES

        assert len(SNAPSHOT_SURFACES) >= 14
        for name, surface in SNAPSHOT_SURFACES.items():
            assert surface["state"], f"{name} declares an empty state surface"

    def test_rule_registry_complete(self):
        registered = {r.id for r in all_rules()}
        assert registered >= {
            "DET-WALLCLOCK",
            "DET-RANDOM",
            "DET-HASH-ITER",
            "DET-ID-ORDER",
            "SURFACE-DECL",
            "PAPI-LIFECYCLE",
            "PAPI-FD-LEAK",
            "PAPI-PMU-MIX",
        }
        # The documented rule tables list exactly the registered rules.
        assert _doc_rule_ids("README.md") == registered
        assert _doc_rule_ids("docs/ARCHITECTURE.md") == registered


# -- regression: the lifecycle/fd leaks this linter caught -------------------


class TestLeakRegressions:
    """The analyzer found real leaks; these pin the fixes."""

    FIXED_FILES = [
        "src/repro/experiments/overhead.py",
        "src/repro/workloads/guided.py",
        "examples/overflow_profiling.py",
        "tests/test_experiments.py",
    ]

    def test_fixed_files_stay_clean(self):
        result = run_analysis(
            REPO_ROOT,
            paths=self.FIXED_FILES,
            only_rules=["PAPI-LIFECYCLE", "PAPI-FD-LEAK"],
        )
        assert result.new_findings == [], [
            f.render() for f in result.new_findings
        ]

    def test_measurement_releases_kernel_resources(self):
        """The fixed pattern actually frees eventsets and fds at runtime."""
        from repro.papi import Papi
        from repro.sim.task import Program, SimThread
        from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
        from repro.system import System

        system = System("raptor-lake-i7-13700", dt_s=1e-4)
        papi = Papi(system, mode="hybrid")
        t = system.machine.spawn(
            SimThread(
                "app",
                Program([ComputePhase(1e5, constant_rates(PhaseRates(ipc=2.0)))]),
                affinity={0},
            )
        )
        es = papi.create_eventset()
        papi.attach(es, t)
        papi.add_event(es, "adl_glc::INST_RETIRED:ANY")
        papi.start(es)
        system.machine.run_until_done([t], max_s=2.0)
        papi.stop(es)
        papi.destroy_eventset(es)

        assert not papi._eventsets
        assert all(ev.closed for ev in system.perf._fds.values())


# -- toolchain config (ruff / mypy ride-alongs) ------------------------------


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "src/repro", "tools", "examples", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_clean():
    proc = subprocess.run(
        ["mypy"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
