"""Checkpoint/restore: the restore-then-run ≡ run-straight-through law.

The tentpole invariant: for any deterministic scenario, snapshotting at
time T, restoring (same or fresh process) and running to the end is
bit-identical — ``state_digest`` equal — to never having snapshotted.
Plus the envelope machinery around it: versioning, integrity checking,
per-kernel perf event ids, closure capture, and the digest's own
stability rules.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import zlib

import pytest

import repro
from repro.checkpoint import (
    SNAPSHOT_SURFACES,
    SnapshotIntegrityError,
    SnapshotPicklingError,
    SnapshotVersionError,
    load_object,
    read_header,
    save_object,
    state_digest,
)
from repro.checkpoint.pickler import dumps, loads
from repro.checkpoint.surface import snapshot_surface
from repro.sim.task import Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System

MACHINE = "raptor-lake-i7-13700"
RATES = constant_rates(
    PhaseRates(ipc=2.0, llc_refs_per_instr=0.01, llc_miss_rate=0.3)
)


def _spawn_workload(system):
    return system.machine.spawn_program(
        "app", [ComputePhase(3e9, RATES)], affinity={0}
    )


class TestRestoreEquivalence:
    @pytest.mark.parametrize("engine", ["events", "ticks"])
    def test_restore_then_run_is_bit_identical(self, tmp_path, engine):
        straight = System(MACHINE, dt_s=0.001, engine=engine)
        _spawn_workload(straight)
        straight.machine.run_until_done(straight.machine.threads, max_s=10)
        d_straight = straight.state_digest()

        snapped = System(MACHINE, dt_s=0.001, engine=engine)
        _spawn_workload(snapped)
        snapped.machine.run_for(0.05)
        path = str(tmp_path / "mid.snap")
        snapped.save(path)

        restored = System.restore(path)
        restored.machine.run_until_done(restored.machine.threads, max_s=10)
        assert restored.state_digest() == d_straight

        # Saving must not have perturbed the donor either.
        snapped.machine.run_until_done(snapped.machine.threads, max_s=10)
        assert snapped.state_digest() == d_straight

    def test_fresh_process_restore_via_cli(self, tmp_path):
        """The ``python -m repro.checkpoint run`` driver replays the tail
        of an HPL run (closure-heavy state) in a new interpreter."""
        from repro.hpl.dat import HplConfig
        from repro.hpl.runner import start_hpl

        straight = System(MACHINE, dt_s=0.01)
        start_hpl(straight, HplConfig(n=1000, nb=128))
        straight.machine.run_until_done(straight.machine.threads, max_s=100)
        d_straight = straight.state_digest()

        snapped = System(MACHINE, dt_s=0.01)
        handle = start_hpl(snapped, HplConfig(n=1000, nb=128))
        snapped.machine.run_for(0.04)
        assert not handle.done
        path = str(tmp_path / "hpl.snap")
        snapped.save(path)

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "repro.checkpoint", "run", path],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == d_straight

    def test_traced_restore_stitches_one_seamless_trace(self, tmp_path):
        """Snapshot mid-run with tracing on, restore in a *fresh process*,
        finish the run: the stitched trace (prefix carried inside the
        snapshot + events emitted after restore) must equal the trace of
        a never-interrupted run, event for event, timestamp for
        timestamp — and so must the state digest."""
        from repro.trace import to_text

        def spawn(system):
            return system.machine.spawn_program(
                "app", [ComputePhase(3e9, RATES)]
            )

        straight = System(MACHINE, dt_s=0.01, trace=True, migrate_jitter=0.03)
        spawn(straight)
        straight.machine.run_until_done(straight.machine.threads, max_s=10)
        want_digest = straight.state_digest()
        want_trace = to_text(straight.tracer.events_list())

        snapped = System(MACHINE, dt_s=0.01, trace=True, migrate_jitter=0.03)
        spawn(snapped)
        snapped.machine.run_for(0.07)
        assert snapped.tracer.events_list(), "nothing traced before the snap"
        path = str(tmp_path / "traced.snap")
        snapped.save(path)

        script = (
            "import sys\n"
            "from repro.system import System\n"
            "from repro.trace import to_text\n"
            "system = System.restore(sys.argv[1])\n"
            "system.machine.run_until_done(system.machine.threads, max_s=10)\n"
            "print(system.state_digest())\n"
            "sys.stdout.write(to_text(system.tracer.events_list()))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == 0, out.stderr
        got_digest, _, got_trace = out.stdout.partition("\n")
        assert got_digest == want_digest
        assert got_trace == want_trace

    def test_save_meta_and_describe(self, tmp_path):
        system = System(MACHINE, dt_s=0.01)
        system.machine.run_for(0.1)
        path = str(tmp_path / "sys.snap")
        header = system.save(path, meta={"note": "hello"})
        assert header["meta"]["note"] == "hello"
        assert header["meta"]["spec"] == MACHINE
        assert header["meta"]["state_digest"] == system.state_digest()
        assert system.machine.last_checkpoint_path == path

        # read_header parses without unpickling; the CLI prints it.
        assert read_header(path)["meta"]["sim_time_s"] == pytest.approx(0.1)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "repro.checkpoint", "describe", path],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["meta"]["note"] == "hello"


class TestEnvelope:
    def test_corrupt_payload_raises_integrity_error(self, tmp_path):
        path = str(tmp_path / "c.snap")
        save_object({"x": 1}, path)
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(SnapshotIntegrityError):
            load_object(path)

    def test_version_mismatch_raises_version_error(self, tmp_path):
        # A version-1 payload can pickle an engine class this build no
        # longer has; the envelope must refuse it by version, before
        # unpickling could fail with an ImportError.
        path = str(tmp_path / "v.snap")
        save_object({"x": 1}, path)
        with open(path, "rb") as fh:
            magic = fh.readline()
            header = json.loads(fh.readline())
        payload = zlib.compress(b"\x80\x02crepro.sim.fastpath\nFastPathEngine\n)\x81.")
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        for version in (1, 999):
            header["version"] = version
            with open(path, "wb") as fh:
                fh.write(magic)
                fh.write((json.dumps(header) + "\n").encode())
                fh.write(payload)
            with pytest.raises(SnapshotVersionError):
                load_object(path)

    def test_not_a_snapshot_rejected(self, tmp_path):
        from repro.checkpoint import SnapshotError

        path = str(tmp_path / "junk.snap")
        open(path, "wb").write(b"definitely not a snapshot\n")
        with pytest.raises(SnapshotError):
            read_header(path)

    def test_event_ids_belong_to_the_kernel(self, tmp_path):
        """Two Systems built one after the other open the same event
        under the same id and digest equal; restoring an older snapshot
        leaves a live System's next id where it was."""
        from repro.kernel.perf import PerfEventAttr

        def open_event(system):
            t = system.machine.spawn_program("w", [ComputePhase(1e8, RATES)])
            ptype = system.perf.registry.by_name["cpu_core"].type
            fd = system.perf.perf_event_open(
                PerfEventAttr(type=ptype, config=0x00C0), pid=t.tid, cpu=-1
            )
            return system.perf._fds[fd].id

        old = System(MACHINE, dt_s=0.01)
        path = str(tmp_path / "old.snap")
        old.save(path)

        first, second = System(MACHINE, dt_s=0.01), System(MACHINE, dt_s=0.01)
        assert open_event(first) == open_event(second)
        assert first.state_digest() == second.state_digest()

        restored = System.restore(path)
        assert open_event(second) == open_event(first)
        assert first.state_digest() == second.state_digest()
        assert open_event(restored) == 1

    def test_restore_rejects_wrong_payload_type(self, tmp_path):
        from repro.checkpoint import SnapshotError

        path = str(tmp_path / "dict.snap")
        save_object({"system": 1}, path)
        with pytest.raises(SnapshotError):
            System.restore(path)


class TestClosurePickling:
    def test_closures_and_shared_cells_survive(self):
        def make_counter():
            n = [0]

            def bump():
                n[0] += 1
                return n[0]

            def peek():
                return n[0]

            return bump, peek

        bump, peek = make_counter()
        bump()
        bump2, peek2 = loads(dumps((bump, peek)))
        # The restored pair shares one cell, like the original.
        assert peek2() == 1
        assert bump2() == 2
        assert peek2() == 2

    def test_lambda_with_defaults_and_globals(self):
        factor = 3.5
        f = lambda x, k=2: x * k * factor * RATES(None).ipc  # noqa: E731
        g = loads(dumps(f))
        assert g(2.0) == f(2.0)
        assert g(2.0, k=5) == f(2.0, k=5)

    def test_unpicklable_object_raises_typed_error(self):
        import threading

        with pytest.raises(SnapshotPicklingError):
            dumps(threading.Lock())


class TestDigest:
    def test_function_digest_stable_across_pickle_roundtrip(self):
        scale = 2.0
        f = lambda x: x * scale  # noqa: E731
        assert state_digest(loads(dumps(f))) == state_digest(f)

    def test_aliasing_is_part_of_the_digest(self):
        shared = [1, 2]
        assert state_digest([shared, shared]) != state_digest(
            [[1, 2], [1, 2]]
        )

    def test_set_digest_is_order_insensitive(self):
        assert state_digest({"a", "b", "c"}) == state_digest({"c", "a", "b"})

    def test_nan_and_negative_zero_are_bitwise(self):
        assert state_digest(float("nan")) == state_digest(float("nan"))
        assert state_digest(0.0) != state_digest(-0.0)

    def test_digest_excludes_engine_path_but_not_state(self):
        a = System(MACHINE, dt_s=0.01, engine="events")
        b = System(MACHINE, dt_s=0.01, engine="ticks")
        assert a.state_digest() == b.state_digest()
        b.machine.run_for(0.01)
        assert a.state_digest() != b.state_digest()


class TestSurfaceRegistry:
    def test_caches_without_a_rebuild_method_are_refused(self):
        """A dropped cache nothing rebuilds would restore as a missing
        attribute; the declaration itself must fail."""
        with pytest.raises(TypeError, match="rebuild"):

            @snapshot_surface(state=("x",), caches=("_memo",))
            class Forgetful:
                def __init__(self):
                    self.x = 1
                    self._memo = {}

    def test_declared_caches_have_rebuilders(self):
        for cls, spec in SNAPSHOT_SURFACES.items():
            if spec["caches"]:
                assert spec["rebuild"], f"{cls.__name__} caches need a rebuild hook"
                assert callable(getattr(cls, spec["rebuild"]))

    def test_core_layers_are_declared(self):
        # Declarations register at class-creation time; pull in every
        # layer module so the registry is complete.
        import repro.faults.injector  # noqa: F401
        import repro.monitor.sampler  # noqa: F401
        import repro.papi.library  # noqa: F401

        declared = {cls.__qualname__ for cls in SNAPSHOT_SURFACES}
        for name in (
            "Machine",
            "SimThread",
            "SimClock",
            "Scheduler",
            "PerfSubsystem",
            "KernelPerfEvent",
            "EventSet",
            "Papi",
            "Sampler",
            "FaultInjector",
            "DvfsGovernor",
            "ThermalModel",
            "RaplPackage",
            "PowerModel",
            "SysFs",
            "Tracer",
            "TraceConfig",
            "MetricsRegistry",
        ):
            assert name in declared, f"{name} must declare its snapshot surface"

    def test_machine_caches_dropped_and_rebuilt(self, tmp_path):
        system = System(MACHINE, dt_s=0.01)
        system.machine._rate_vecs_by_id[1] = "poison"
        path = str(tmp_path / "m.snap")
        system.save(path)
        restored = System.restore(path)
        assert restored.machine._rate_vecs_by_id == {}
        assert restored.machine._rec is None

    @pytest.mark.parametrize("order", [("system", "papi"), ("papi", "system")])
    def test_sysfs_tree_rebuilt_on_the_restored_machine(self, tmp_path, order):
        """The /sys tree is a cache: a snapshot carries none of its
        provider closures, and the rebuilt tree reads and writes the
        restored machine, whichever object the payload reaches first,
        with a PAPI overflow drain hook among the machine's tick hooks."""
        from repro.papi import Papi

        system = System(MACHINE, dt_s=0.01)
        papi = Papi(system)
        es = papi.create_eventset()
        papi.attach(es, _spawn_workload(system))
        papi.add_event(es, "adl_glc::INST_RETIRED:ANY")
        papi.overflow(es, "adl_glc::INST_RETIRED:ANY", 10**8, lambda esid, s: None)
        papi.start(es)
        system.machine.run_for(0.05)
        assert set(system.sysfs.__getstate__()) == {
            "machine",
            "perf",
            "expose_cpu_types",
        }

        objects = {"system": system, "papi": papi}
        path = str(tmp_path / "s.snap")
        save_object({name: objects[name] for name in order}, path)
        restored = load_object(path)
        s2 = restored["system"]
        m2 = s2.machine
        assert restored["papi"].system is s2
        m2.run_for(0.05)  # only the restored machine moves on

        cur_freq = "/sys/devices/system/cpu/cpu{}/cpufreq/scaling_cur_freq"
        for cpu in (0, s2.topology.cpus_of_type("E-core")[0]):
            assert s2.sysfs.read(cur_freq.format(cpu)) == str(
                round(m2.governor.freq_of_cpu_mhz(cpu) * 1000)
            )
        temp = f"/sys/class/thermal/thermal_zone{s2.spec.thermal_zone_index}/temp"
        assert s2.sysfs.read(temp) == str(m2.thermal.zone.read_millic())
        energy = "/sys/class/powercap/intel-rapl/intel-rapl:0/energy_uj"
        assert s2.sysfs.read(energy) == str(m2.rapl.package.read_uj())
        assert int(s2.sysfs.read(energy)) > int(system.sysfs.read(energy))

        s2.sysfs.write("/sys/devices/system/cpu/cpu5/online", "0")
        assert 5 in s2.topology.offline_cpus()
        assert 5 not in system.topology.offline_cpus()
