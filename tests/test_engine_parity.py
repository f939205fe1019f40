"""Engine parity matrix: both engines must be bit-identical on every
deterministic workload.

Every scenario here runs once per engine — ``engine="ticks"`` (the
plain single-tick loop, the reference oracle) and ``engine="events"``
(the event-driven production engine) — and asserts
equality of the *whole snapshot surface* via ``state_digest``: thread
counters, perf read values and event clocks, scheduler RNG position,
RAPL energy, thermal state, everything the checkpoint layer declares as
state.  The experiments' correctness claims rest on the counter
semantics, so no tolerance is allowed; any new state a layer grows is
covered automatically.  Structured trace streams must match byte for
byte too, and a mid-run checkpoint/restore under the event engine must
rejoin the same digest.
"""

from __future__ import annotations

import random

import numpy as np

from repro.checkpoint import state_digest
from repro.hw.coretype import ArchEvent, N_ARCH_EVENTS
from repro.papi import Papi
from repro.sim.task import LEDGER_CAP, ControlOp, Program, SimThread
from repro.sim.workload import (
    ComputePhase,
    PhaseRates,
    SleepPhase,
    SpinBarrier,
    arch_event_rates,
    constant_rates,
)
from repro.system import System

MACHINE = "raptor-lake-i7-13700"
RATES = PhaseRates(
    ipc=2.0,
    flops_per_instr=0.5,
    llc_refs_per_instr=0.01,
    llc_miss_rate=0.3,
    l2_refs_per_instr=0.05,
    l2_miss_rate=0.2,
)


#: The full engine matrix, in "reference first" order.
ENGINES = ("ticks", "events")


def _run_matrix(build, **system_kw):
    """Run ``build(system) -> result`` once per engine; returns
    ``[(system, result), ...]`` in :data:`ENGINES` order."""
    out = []
    for engine in ENGINES:
        system = System(MACHINE, engine=engine, **system_kw)
        out.append((system, build(system)))
    return out


def _assert_threads_identical(threads_ref, threads_other):
    """Per-thread digest equality (localizes a whole-system mismatch)."""
    assert len(threads_ref) == len(threads_other)
    for a, b in zip(threads_ref, threads_other):
        assert state_digest(a) == state_digest(b), (
            f"{a.name} diverges between engines"
        )


def _assert_systems_identical(*systems):
    """The tight form: one digest over the full snapshot surface.

    ``engine`` selection is declared ``digest_exclude`` and the engine's
    internals (tick recorder, placement cache) are snapshot caches on the
    Machine's surface, so both engines must digest equal — everything
    else (counters, clocks, RNGs, energies, sample buffers) is covered
    with zero tolerance.
    """
    digests = [s.state_digest() for s in systems]
    assert len(set(digests)) == 1, (
        f"engine digests diverge: {dict(zip(ENGINES, digests))}"
    )


def _replayed(machine, run):
    """Run ``run()`` counting real ``tick()`` executions; return (real,
    clock) tick counts so tests can assert replay actually engaged."""
    real = [0]
    orig = machine.tick

    def counted():
        real[0] += 1
        orig()

    machine.tick = counted
    start = machine.clock.ticks
    try:
        run()
    finally:
        # Remove the shadowing instance attribute entirely (assigning
        # ``orig`` back would leave a bound method in ``__dict__`` and
        # show up as a digest difference vs. an untouched machine).
        del machine.tick
    return real[0], machine.clock.ticks - start


class TestSteadyScenarios:
    def test_compute_spin_sleep_parity(self):
        """Threads computing, spinning at a barrier and sleeping."""

        def build(system):
            barrier = SpinBarrier(2)
            rates = constant_rates(RATES)

            def mk():
                return [
                    ComputePhase(
                        5e9, rates, on_complete=lambda t: barrier.arrive()
                    ),
                    barrier.wait_phase(),
                    SleepPhase(duration_s=0.3),
                    ComputePhase(2e9, rates),
                ]

            ts = [
                system.machine.spawn(SimThread(f"w{i}", Program(mk())))
                for i in range(2)
            ]
            assert system.machine.run_until_done(ts, max_s=100)
            return ts

        (ss, ts_slow), (se, ts_ev) = _run_matrix(build, dt_s=0.01)
        _assert_threads_identical(ts_slow, ts_ev)
        _assert_systems_identical(ss, se)

    def test_idle_cooldown_parity_and_batching(self):
        """A long idle cooldown must leap and stay identical."""

        def build(system):
            system.machine.thermal.temp_c = 80.0
            system.machine.thermal.zone.temp_c = 80.0
            return None

        (ss, _), (se, _) = _run_matrix(build, dt_s=0.01)
        ss.machine.run_ticks(3000)
        real, ticks = _replayed(se.machine, lambda: se.machine.run_ticks(3000))
        assert ticks == 3000
        assert real < 100  # the vast majority of ticks were replayed
        _assert_systems_identical(ss, se)

    def test_run_until_done_without_deadline(self, monkeypatch):
        """``max_s=inf`` is an unlimited budget, not one capped leap: with
        leaps capped far below the run's length, the event engine still
        leaps and finishes on the reference's tick."""
        from repro.sim import events

        monkeypatch.setattr(events, "_MAX_LEAP", 64)

        def build(system):
            rates = constant_rates(RATES)
            t = system.machine.spawn(
                SimThread(
                    "w",
                    Program(
                        [
                            ComputePhase(5e10, rates),
                            SleepPhase(duration_s=0.5),
                            ComputePhase(2e10, rates),
                        ]
                    ),
                )
            )
            machine = system.machine
            ok = []
            real, ticks = _replayed(
                machine,
                lambda: ok.append(machine.run_until_done([t], max_s=float("inf"))),
            )
            assert ok == [True]
            return ticks, real

        (ss, (ticks_s, _)), (se, (ticks_e, real_e)) = _run_matrix(build, dt_s=0.01)
        assert ticks_s == ticks_e
        assert real_e < ticks_e // 10
        _assert_systems_identical(ss, se)

    def test_all_done_rescans_only_after_a_retirement(self, monkeypatch):
        """``run_until_done``'s condition looks at its threads again only
        once the machine retired one: a staggered finish scans them once
        per retirement, plus the first check, on both engines."""
        scans = [0]
        done = SimThread.done

        def counted(thread):
            scans[0] += 1
            return done.fget(thread)

        monkeypatch.setattr(SimThread, "done", property(counted))

        def build(system):
            scans[0] = 0
            ts = [
                system.machine.spawn(
                    SimThread(
                        f"w{i}",
                        Program([
                            ComputePhase(1e9 * (i + 1), constant_rates(RATES)),
                            SleepPhase(duration_s=0.01),
                            ComputePhase(1e8, constant_rates(RATES)),
                        ]),
                    )
                )
                for i in range(3)
            ]
            assert system.machine.run_until_done(ts, max_s=10)
            return scans[0]

        (ss, slow), (se, fast) = _run_matrix(build, dt_s=0.001)
        # One scan stops at the first unfinished thread; the last sees
        # all three done.
        assert slow <= 3 * 4 and fast <= 3 * 4
        _assert_systems_identical(ss, se)

    def test_run_until_cooldown_parity(self):
        (ss, _), (se, _) = _run_matrix(lambda s: None, dt_s=0.01)
        for system in (ss, se):
            system.machine.thermal.temp_c = 70.0
            system.machine.thermal.zone.temp_c = 70.0
            assert system.machine.cool_down(target_c=36.0, max_s=600)
        _assert_systems_identical(ss, se)


class TestPerfAndPapiParity:
    def test_quickstart_eventset_parity(self):
        """The quickstart scenario: hybrid EventSet calipering reps."""

        def build(system):
            papi = Papi(system, mode="hybrid")
            rates = constant_rates(RATES)
            results = []
            holder = {}

            def setup(thread):
                es = papi.create_eventset()
                papi.attach(es, thread)
                papi.add_event(es, "adl_glc::INST_RETIRED:ANY", caller=thread)
                papi.add_event(es, "adl_grt::INST_RETIRED:ANY", caller=thread)
                papi.start(es, caller=thread)
                holder["es"] = es

            def measure(thread):
                results.append(tuple(papi.read(holder["es"], caller=thread)))
                papi.reset(holder["es"], caller=thread)

            items = [ControlOp(setup)]
            for _ in range(10):
                items.append(ComputePhase(5e6, rates))
                items.append(ControlOp(measure))
            items.append(ControlOp(lambda th: papi.stop(holder["es"], caller=th)))
            t = system.machine.spawn(SimThread("caliper", Program(items)))
            assert system.machine.run_until_done([t], max_s=10)
            return t, results

        (ss, (t_slow, r_slow)), (se, (t_ev, r_ev)) = _run_matrix(build, dt_s=2e-5)
        assert r_slow == r_ev
        _assert_threads_identical([t_slow], [t_ev])
        _assert_systems_identical(ss, se)

    def test_migration_scenario_parity(self):
        """With scheduler jitter both engines run tick-by-tick; the RNG
        stream and therefore migrations must match exactly."""

        def build(system):
            t = system.machine.spawn(
                SimThread("app", Program([ComputePhase(2e7, constant_rates(RATES))]))
            )
            fd_p = _open_counting(system, "cpu_core", t.tid)
            fd_e = _open_counting(system, "cpu_atom", t.tid)
            assert system.machine.run_until_done([t], max_s=10)
            return t, (
                system.perf.read(fd_p),
                system.perf.read(fd_e),
            )

        (ss, (t_slow, r_slow)), (se, (t_ev, r_ev)) = _run_matrix(
            build,
            dt_s=1e-4,
            seed=2,
            migrate_jitter=0.1,
            rebalance_jitter=0.1,
        )
        assert t_slow.nr_migrations == t_ev.nr_migrations > 0
        assert r_slow == r_ev
        _assert_threads_identical([t_slow], [t_ev])
        _assert_systems_identical(ss, se)

    def test_perf_read_values_identical_across_batches(self):
        """Per-thread perf events survive replayed spans bit-for-bit."""

        def build(system):
            t = system.machine.spawn(
                SimThread(
                    "app", Program([ComputePhase(5e9, constant_rates(RATES))])
                )
            )
            fds = [
                _open_counting(system, "cpu_core", t.tid, config=c)
                for c in (0x00C0, 0x003C)
            ]
            assert system.machine.run_until_done([t], max_s=100)
            return [system.perf.read(fd) for fd in fds]

        (ss, r_slow), (se, r_ev) = _run_matrix(build, dt_s=0.01)
        assert r_slow == r_ev
        _assert_systems_identical(ss, se)


class TestMultiplexedBatching:
    """Satellite regression: enabled/running scaling of multiplexed
    events must accrue identically when ticks are replayed in a span."""

    def test_mux_scaling_parity_across_batches(self):
        """Three events time-sharing one counter across a long steady
        compute phase: both engines must agree bit-for-bit on value,
        time_enabled and time_running."""

        def build(system):
            glc = system.perf.registry.by_name["cpu_core"]
            # Leave a single free generic counter so the three events
            # must rotate; rotation happens *within* replayed spans.
            system.perf.reserve_counters(
                "cpu_core", glc.n_counters + glc.n_fixed - 1
            )
            p_cpu = system.topology.cpus_of_type("P-core")[0]
            t = system.machine.spawn(
                SimThread(
                    "app",
                    Program([ComputePhase(2e9, constant_rates(RATES))]),
                    affinity={p_cpu},
                )
            )
            fds = [
                _open_counting(system, "cpu_core", t.tid, config=0x00C0)
                for _ in range(3)
            ]
            assert system.machine.run_until_done([t], max_s=100)
            return t, [system.perf.read(fd) for fd in fds]

        (ss, (t_slow, r_slow)), (se, (t_ev, r_ev)) = _run_matrix(build, dt_s=0.001)
        assert r_slow == r_ev
        # The events really were multiplexed, and the scaled estimate
        # still reconstructs the full instruction count.
        for rv in r_ev:
            assert rv.time_running_ns < rv.time_enabled_ns
        total_scaled = sum(rv.scaled_value() for rv in r_ev)
        assert abs(total_scaled - 3 * 2e9) / (3 * 2e9) < 0.3
        _assert_threads_identical([t_slow], [t_ev])
        _assert_systems_identical(ss, se)

    def test_mux_batch_engages_while_rotating(self):
        """Rotation alone must not end a span: at each slot change the
        span switches the rotating events' increments and leaps on."""
        system = System(MACHINE, dt_s=0.0001)
        glc = system.perf.registry.by_name["cpu_core"]
        system.perf.reserve_counters("cpu_core", glc.n_counters + glc.n_fixed - 1)
        p_cpu = system.topology.cpus_of_type("P-core")[0]
        t = system.machine.spawn(
            SimThread(
                "app",
                Program([ComputePhase(1e10, constant_rates(RATES))]),
                affinity={p_cpu},
            )
        )
        for _ in range(2):
            _open_counting(system, "cpu_core", t.tid)
        real, ticks = _replayed(
            system.machine, lambda: system.machine.run_ticks(2000)
        )
        assert ticks == 2000
        # Fifty 40-tick rotation slots, crossed inside one span: a few
        # real ticks record it, none restart it at a slot boundary.
        assert real <= 5

    def test_scorecard_mux_run_is_one_span(self, monkeypatch):
        """The scorecard's multiplexed run (24 rotating groups, about 60
        slot changes) records a handful of real ticks in all."""
        from repro.sim.engine import Machine
        from repro.validate import harness

        real = [0]
        tick = Machine.tick

        def counted(machine):
            real[0] += 1
            tick(machine)

        monkeypatch.setattr(Machine, "tick", counted)
        harness._run_mux_once("raptor-lake-i7-13700", None, 0, 1e-4)
        assert real[0] <= 6


def _reads(system):
    """Every open perf fd's read value, in fd order."""
    return [system.perf.read(fd) for fd in sorted(system.perf._fds)]


class TestRotationCrossing:
    """A span crosses multiplex rotations: on the exact tick a thread's
    slot changes, its rotating events' per-tick increments switch to the
    new slot's window, and the span leaps on.  Every layout below must
    be bit-identical to the single-tick reference, whole
    ``PerfReadValue``s included, and each crossing layout must really
    cross (few real ticks for many rotations)."""

    @staticmethod
    def _thread(system, name, cpu, instructions=2e9, sleep_s=None):
        phases = [ComputePhase(instructions, constant_rates(RATES))]
        if sleep_s is not None:
            phases.insert(0, SleepPhase(duration_s=sleep_s))
        return system.machine.spawn(SimThread(name, Program(phases), affinity={cpu}))

    @staticmethod
    def _leave(system, pmu_name, n):
        pmu = system.perf.registry.by_name[pmu_name]
        system.perf.reserve_counters(pmu_name, pmu.n_counters + pmu.n_fixed - n)

    @staticmethod
    def _parity(build, dt_s=1e-4):
        """Run the threads ``build(system)`` returns for 1,300 ticks,
        mid-phase and mid-slot, then to completion, on both engines;
        the reads must match at both points.  (Three groups taking one
        40-tick slot each return to their window every 120 ticks, so a
        tick early or late at each switch would cancel out at 1,240,
        but not at 1,300.)  Returns the event engine's
        final reads, real ticks and ticks."""
        out = []
        for engine in ENGINES:
            system = System(MACHINE, engine=engine, dt_s=dt_s)
            m = system.machine
            threads = build(system)
            real, ticks = _replayed(m, lambda: m.run_ticks(1300))
            assert not any(t.done for t in threads)
            mid = _reads(system)
            real2, ticks2 = _replayed(m, lambda: m.run_until_done(threads, max_s=10))
            out.append((system, mid, _reads(system), real + real2, ticks + ticks2))
        (ss, mid_slow, r_slow, _, n_slow), (se, mid_ev, r_ev, real, n_ev) = out
        assert n_slow == n_ev
        assert mid_slow == mid_ev
        assert r_slow == r_ev
        assert any(0 < rv.time_running_ns < rv.time_enabled_ns for rv in r_ev)
        _assert_systems_identical(ss, se)
        return r_ev, real, n_ev

    def test_multiplexed_eventset_across_many_rotations(self):
        def build(system):
            papi = Papi(system)
            t = self._thread(system, "app", system.topology.cpus_of_type("P-core")[0])
            es = papi.create_eventset()
            papi.attach(es, t)
            papi.set_multiplex(es)
            for name in ("INST_RETIRED:ANY", "BR_INST_RETIRED:ALL_BRANCHES"):
                for _ in range(8):
                    papi.add_event(es, f"adl_glc::{name}")
            papi.start(es)
            return [t]

        _, real, ticks = self._parity(build)
        assert ticks > 40 * 40 and real <= 8

    def test_two_threads_rotating_on_different_ticks(self):
        """A sleep shifts the second thread's runtime by a fraction of a
        rotation period, so the two threads change slot on different
        ticks of one span."""

        def build(system):
            self._leave(system, "cpu_core", 2)
            self._leave(system, "cpu_atom", 1)
            ts = [
                self._thread(system, "p", system.topology.cpus_of_type("P-core")[0]),
                self._thread(
                    system, "e", system.topology.cpus_of_type("E-core")[0],
                    sleep_s=0.0013,
                ),
            ]
            for t, pmu, n in ((ts[0], "cpu_core", 5), (ts[1], "cpu_atom", 3)):
                for _ in range(n):
                    _open_counting(system, pmu, t.tid)
            return ts

        _, real, ticks = self._parity(build)
        assert ticks > 40 * 40 and real <= 14

    def test_pinned_groups_beside_rotating_groups(self):
        def build(system):
            self._leave(system, "cpu_core", 3)
            t = self._thread(system, "app", system.topology.cpus_of_type("P-core")[0])
            _open_counting(system, "cpu_core", t.tid, config=0x003C, pinned=True)
            for config in (0x00C0, 0x00C4, 0x00C5, 0x412E):
                _open_counting(system, "cpu_core", t.tid, config=config)
            return [t]

        reads, real, _ = self._parity(build)
        pinned = reads[0]
        assert pinned.time_running_ns == pinned.time_enabled_ns
        assert real <= 8

    def test_multi_event_groups_rotate(self):
        """Groups of three counters (and a software member, which runs
        but counts nothing itself) rotate through a four-counter budget
        one group at a time."""
        from repro.kernel.perf.attr import SwConfig

        def build(system):
            self._leave(system, "cpu_core", 4)
            t = self._thread(system, "app", system.topology.cpus_of_type("P-core")[0])
            for configs in ((0x00C0, 0x00C4, 0x00C5), (0x003C, 0x4F2E, 0x412E),
                            (0x01C7, 0x1F24, 0x3F24)):
                leader = _open_counting(system, "cpu_core", t.tid, config=configs[0])
                for config in configs[1:]:
                    _open_counting(system, "cpu_core", t.tid, config, group_fd=leader)
                _open_counting(system, "software", t.tid, int(SwConfig.TASK_CLOCK),
                               group_fd=leader)
            return [t]

        _, real, ticks = self._parity(build)
        assert ticks > 40 * 40 and real <= 8

    def test_rotating_sampling_event_ends_spans_at_rotations(self):
        """Each threshold crossing of a rotating sampling event must run
        live, so these spans end where the slot changes instead."""

        def build(system):
            self._leave(system, "cpu_core", 1)
            t = self._thread(system, "app", system.topology.cpus_of_type("P-core")[0])
            _open_counting(system, "cpu_core", t.tid, sample_period=50_000_000)
            for _ in range(2):
                _open_counting(system, "cpu_core", t.tid)
            return [t]

        _, real, ticks = self._parity(build)
        rotations = ticks * 1e-4 / 0.004
        assert real > rotations / 2

    def test_one_counter_left_by_a_reservation(self):
        def build(system):
            self._leave(system, "cpu_core", 1)
            t = self._thread(system, "app", system.topology.cpus_of_type("P-core")[0])
            for config in (0x00C0, 0x00C4, 0x003C):
                _open_counting(system, "cpu_core", t.tid, config=config)
            return [t]

        _, real, ticks = self._parity(build)
        assert ticks > 40 * 40 and real <= 8


class TestBulkReplay:
    """A guard-free leap applies its ticks in bulk: one
    ``np.add.accumulate`` over every float target, ``j * sum`` per int
    cell.  These spans cover the block's layouts; each must stay
    bit-identical to the single-tick reference."""

    @staticmethod
    def _bulk_leaps(monkeypatch):
        """Record (leap length, ticks one block holds, width, int cells,
        compute chains) for every bulk replay."""
        from repro.sim import events

        leaps = []
        apply = events._Block.apply

        def recorded(block, j):
            per_block = events._BLOCK_FLOATS // (block.width * block.tick.shape[1])
            leaps.append((j, per_block, block.width, len(block.ints), len(block.phases)))
            apply(block, j)

        monkeypatch.setattr(events._Block, "apply", recorded)
        return leaps

    @staticmethod
    def _shared_cpu(system, instructions):
        """Two compute threads time-sharing one P-core CPU: the scheduler
        switches between them every tick (int ``nr_switches`` and
        ``total_switches`` increments), and the CPU's PMU totals take two
        vectors per tick."""
        p_cpu = system.topology.cpus_of_type("P-core")[0]
        return [
            system.machine.spawn(
                SimThread(
                    f"share{i}",
                    Program([ComputePhase(instructions, constant_rates(RATES))]),
                    affinity={p_cpu},
                )
            )
            for i in range(2)
        ]

    def test_multi_block_leap_with_multiplexed_hybrid_eventset(self, monkeypatch):
        """Leaps longer than one accumulate block, under a multiplexed
        hybrid EventSet whose uncore event counts both threads' slices:
        two increments per tick on one float cell, the rest padded."""
        from repro.validate.harness import _core_plans, _package_events

        leaps = self._bulk_leaps(monkeypatch)

        def build(system):
            ts = self._shared_cpu(system, 2e8)
            papi = Papi(system, mode="hybrid")
            natives = [n for plan in _core_plans(system, papi.pfm) for n, _ in plan.events]
            uncore = _package_events(papi.pfm, "uncore_llc")[0][0]
            es = papi.create_eventset()
            papi.attach(es, ts[0])
            papi.set_multiplex(es)
            for name in natives + natives + [uncore]:
                papi.add_event(es, name)
            papi.start(es)
            assert system.machine.run_until_done(ts, max_s=10)
            return papi.stop(es)

        (ss, v_slow), (se, v_ev) = _run_matrix(build, dt_s=1e-5)
        assert v_slow == v_ev
        _assert_systems_identical(ss, se)
        assert any(j > per_block and width == 2 for j, per_block, width, _, _ in leaps)

    def test_int_cells_and_compute_chains_in_one_span(self, monkeypatch):
        leaps = self._bulk_leaps(monkeypatch)

        def build(system):
            ts = self._shared_cpu(system, 5e7)
            assert system.machine.run_until_done(ts, max_s=10)
            return ts

        (ss, ts_slow), (se, ts_ev) = _run_matrix(build, dt_s=1e-4)
        _assert_threads_identical(ts_slow, ts_ev)
        _assert_systems_identical(ss, se)
        assert ts_ev[0].nr_switches > 50
        assert any(ints == 3 and chains == 2 for _, _, _, ints, chains in leaps)

    def test_strict_deadline_inside_a_leap(self, monkeypatch):
        """``run_until_done`` solves its deadline on the tick grid: the
        leap stops on the tick per-tick polling would stop on, and the
        SimTimeout names the same threads."""
        from repro.sim.engine import SimTimeout

        leaps = self._bulk_leaps(monkeypatch)

        def build(system):
            t = system.machine.spawn(
                SimThread("long", Program([ComputePhase(1e12, constant_rates(RATES))]))
            )
            try:
                system.machine.run_until_done([t], max_s=0.3337, strict=True)
            except SimTimeout as exc:
                return exc, system.machine.clock.ticks
            raise AssertionError("no SimTimeout")

        (ss, (e_slow, n_slow)), (se, (e_ev, n_ev)) = _run_matrix(build, dt_s=0.001)
        assert n_slow == n_ev == 334
        assert max(j for j, _, _, _, _ in leaps) > 300  # one leap to the deadline
        assert str(e_slow) == str(e_ev)
        assert [t.name for t in e_slow.stuck] == [t.name for t in e_ev.stuck] == ["long"]
        assert e_slow.stuck_details() == e_ev.stuck_details()
        _assert_systems_identical(ss, se)


class TestQuietHardware:
    """While a leap's ticks are quiet — RAPL holds its scale and every
    active cluster's IPA grant covers its max-frequency power — RAPL and
    thermal advance in one pass each, without the per-tick methods.
    These leaps end, or keep counting throttle events, inside the quiet
    pass; each must stay bit-identical to the single-tick reference."""

    @staticmethod
    def _quiet_log(monkeypatch):
        """Record (model, ticks asked, quiet ticks, throttle events
        added) for every quiet advance of RAPL and of thermal."""
        from repro.hw.rapl import RaplPackage
        from repro.hw.thermal import ThermalModel

        log = []
        rapl_advance = RaplPackage.advance_quiet
        quiet_ticks = ThermalModel.quiet_ticks
        thermal_advance = ThermalModel.advance_quiet

        def rapl(self, package_w, cores_w, dram_w, dt_s, n):
            events0 = self.throttle_events
            j = rapl_advance(self, package_w, cores_w, dram_w, dt_s, n)
            log.append(("rapl", n, j, self.throttle_events - events0))
            return j

        def thermal_test(self, activity, other_w, power_w, dt_s, n):
            j = quiet_ticks(self, activity, other_w, power_w, dt_s, n)
            log.append(("thermal", n, j, 0))
            return j

        def thermal(self, power_w, dt_s, n):
            events0 = self.throttle_events
            thermal_advance(self, power_w, dt_s, n)
            log.append(("thermal-commit", n, n, self.throttle_events - events0))

        monkeypatch.setattr(RaplPackage, "advance_quiet", rapl)
        monkeypatch.setattr(ThermalModel, "quiet_ticks", thermal_test)
        monkeypatch.setattr(ThermalModel, "advance_quiet", thermal)
        return log

    @staticmethod
    def _pinned(spec, cpus_of, dt_s, runs, temp_c=None):
        """One endless compute thread pinned on each chosen CPU, run for
        ``runs`` tick budgets per engine; returns the Systems."""
        systems = []
        for engine in ENGINES:
            system = System(spec, engine=engine, dt_s=dt_s)
            m = system.machine
            if temp_c is not None:
                m.thermal.temp_c = m.thermal.zone.temp_c = temp_c
            for cpu in cpus_of(system.topology):
                m.spawn(
                    SimThread(
                        f"busy{cpu}",
                        Program([ComputePhase(1e14, constant_rates(RATES))]),
                        affinity={cpu},
                    )
                )
            for ticks in runs:
                m.run_ticks(ticks)
            systems.append(system)
        _assert_systems_identical(*systems)
        return systems

    def test_rapl_budget_drops_to_pl1_mid_leap(self, monkeypatch):
        log = self._quiet_log(monkeypatch)
        _ss, se = self._pinned(
            MACHINE, lambda topo: topo.cpus_of_type("P-core"), 0.05, [500]
        )
        rapl = se.machine.rapl
        assert rapl._avg1_w >= rapl.spec.rapl_pl1_w * 0.98
        assert rapl.scale < 1.0
        # Thermal granted the whole leap; RAPL stopped short of it.
        assert any(
            model == "rapl" and 0 < j < n for model, n, j, _ in log
        ), log

    def test_orangepi_grant_binds_mid_leap(self, monkeypatch):
        log = self._quiet_log(monkeypatch)
        _ss, se = self._pinned(
            "orangepi-800", lambda topo: list(range(topo.n_cpus)), 0.01, [400]
        )
        assert min(se.machine.thermal._scale) < 1.0
        assert any(
            model == "thermal" and 0 < j < n for model, n, j, _ in log
        ), log

    def test_rapl_counts_throttle_events_at_its_scale_floor(self, monkeypatch):
        """A PL1 far below any load pins the scale at its 0.05 floor,
        where every quiet tick still counts a RAPL throttle event."""
        import dataclasses

        from repro.hw.machines import MACHINE_PRESETS

        log = self._quiet_log(monkeypatch)
        spec = dataclasses.replace(MACHINE_PRESETS[MACHINE](), rapl_pl1_w=1.0)
        # The second run records a span at the floor.
        _ss, se = self._pinned(
            spec, lambda topo: topo.cpus_of_type("E-core")[:2], 0.05, [300, 200]
        )
        assert se.machine.rapl.scale == 0.05
        assert any(
            model == "rapl" and j > 100 and events == j
            for model, _n, j, events in log
        ), log

    def test_thermal_counts_throttle_events_above_trip(self, monkeypatch):
        """A package that starts above its trip point under a light load:
        every grant still covers max, and each tick above the trip
        counts a thermal throttle event."""
        log = self._quiet_log(monkeypatch)
        _ss, se = self._pinned(
            "orangepi-800",
            lambda topo: topo.cpus_of_type("LITTLE")[:1],
            0.01,
            [300],
            temp_c=90.0,
        )
        thermal = se.machine.thermal
        assert thermal.temp_c < thermal.spec.thermal_trip_c
        assert thermal._scale == [1.0, 1.0]
        assert any(
            model == "thermal-commit" and 0 < events < j
            for model, _n, j, events in log
        ), log

    def test_quiet_pass_resumes_once_the_scale_settles(self, monkeypatch):
        """RAPL's scale slides to its floor over a few per-tick steps that
        move no frequency; once it holds, the rest of the leap takes the
        quiet pass again instead of stepping every tick."""
        import dataclasses

        from repro.hw.machines import MACHINE_PRESETS
        from repro.hw.rapl import RaplPackage
        from repro.sim.engine import Machine

        calls = {"step": 0, "tick": 0}
        step = RaplPackage.step
        tick = Machine.tick

        def counted_step(self, *args):
            calls["step"] += 1
            step(self, *args)

        def counted_tick(machine):
            calls["tick"] += 1
            tick(machine)

        monkeypatch.setattr(RaplPackage, "step", counted_step)
        monkeypatch.setattr(Machine, "tick", counted_tick)
        spec = dataclasses.replace(MACHINE_PRESETS[MACHINE](), rapl_pl1_w=1.0)
        _ss, se = self._pinned(
            spec, lambda topo: topo.cpus_of_type("E-core")[:2], 0.05, [600]
        )
        assert se.machine.rapl.scale == 0.05
        events_calls = {k: v - 600 for k, v in calls.items()}  # minus ticks engine
        assert events_calls["step"] - events_calls["tick"] <= 20

    def test_steady_leap_steps_rapl_only_on_full_ticks(self, monkeypatch):
        from repro.hw.rapl import RaplPackage

        system = System(MACHINE, dt_s=0.01)
        m = system.machine
        for cpu in system.topology.cpus_of_type("E-core")[:2]:
            m.spawn(
                SimThread(
                    f"busy{cpu}",
                    Program([ComputePhase(1e14, constant_rates(RATES))]),
                    affinity={cpu},
                )
            )
        steps = [0]
        step = RaplPackage.step

        def counted(self, *args):
            steps[0] += 1
            step(self, *args)

        monkeypatch.setattr(RaplPackage, "step", counted)
        real, ticks = _replayed(m, lambda: m.run_ticks(500))
        assert ticks == 500
        assert real < 10
        assert steps[0] == real


class TestHplParity:
    def test_small_hpl_run_parity(self):
        from repro.hpl import HplConfig, run_hpl

        def build(system):
            cpus = system.topology.primary_threads()
            result = run_hpl(
                system, HplConfig(n=1536, nb=192), variant="intel", cpus=cpus
            )
            return result

        (ss, r_slow), (se, r_ev) = _run_matrix(build, dt_s=0.01)
        assert r_slow.wall_s == r_ev.wall_s
        assert r_slow.gflops == r_ev.gflops
        assert r_slow.energy_j == r_ev.energy_j
        _assert_threads_identical(
            sorted(ss.machine.threads, key=lambda t: t.tid),
            sorted(se.machine.threads, key=lambda t: t.tid),
        )
        _assert_systems_identical(ss, se)


class TestFaultInjectionParity:
    """Injected faults are guard violations: the event engine must fall
    back to real ticks around them and stay bit-identical to ``ticks``."""

    def test_timed_hotplug_parity(self):
        from repro.faults import CpuOffline, CpuOnline, FaultPlan

        def build(system):
            m = system.machine
            rates = constant_rates(RATES)
            surv = m.spawn(
                SimThread(
                    "surv", Program([ComputePhase(3e9, rates)]), affinity={0}
                )
            )
            roam = m.spawn(
                SimThread(
                    "roam", Program([ComputePhase(8e8, rates)]), affinity={16, 17}
                )
            )
            fds = [
                _open_counting(system, pmu, surv.tid)
                for pmu in ("cpu_core", "cpu_atom")
            ]
            plan = FaultPlan().at(0.05, CpuOffline(17)).at(0.12, CpuOnline(17))
            inj = system.inject_faults(plan)
            assert m.run_until_done([surv, roam], max_s=10)
            assert inj.pending == 0
            return [surv, roam], [
                system.perf.read(fd) for fd in fds
            ]

        (ss, (ts_slow, r_slow)), (se, (ts_ev, r_ev)) = _run_matrix(build, dt_s=0.001)
        assert r_slow == r_ev
        _assert_threads_identical(ts_slow, ts_ev)
        _assert_systems_identical(ss, se)

    def test_conditional_injection_parity(self):
        """``when()`` predicates are evaluated inside the span guard, so
        they fire at the exact tick the ``ticks`` engine fires them."""
        from repro.faults import CpuOffline, CpuOnline, FaultPlan

        def build(system):
            m = system.machine
            t = m.spawn(
                SimThread(
                    "app",
                    Program([ComputePhase(1.5e9, constant_rates(RATES))]),
                    affinity={16, 17},
                )
            )
            plan = (
                FaultPlan()
                .when(lambda: t.total_runtime_s > 0.04, CpuOffline(16))
                .when(lambda: t.total_runtime_s > 0.09, CpuOnline(16))
            )
            inj = system.inject_faults(plan)
            assert m.run_until_done([t], max_s=10)
            return [t], [(at, type(f).__name__) for at, f in inj.fired]

        (ss, (ts_slow, f_slow)), (se, (ts_ev, f_ev)) = _run_matrix(build, dt_s=0.001)
        assert f_slow == f_ev  # identical fire times, to the tick
        assert [k for _, k in f_slow] == ["CpuOffline", "CpuOnline"]
        _assert_threads_identical(ts_slow, ts_ev)
        _assert_systems_identical(ss, se)

    def test_syscall_storm_parity(self):
        """EBUSY retries charge syscall overhead to the caller; both
        engines must absorb the same storm at the same reads."""
        from repro.faults import FaultPlan, PerfSyscallStorm

        def build(system):
            papi = Papi(system, mode="hybrid")
            rates = constant_rates(RATES)
            results = []
            holder = {}

            def setup(thread):
                es = papi.create_eventset()
                papi.attach(es, thread)
                papi.add_event(es, "adl_glc::INST_RETIRED:ANY", caller=thread)
                papi.start(es, caller=thread)
                holder["es"] = es

            def measure(thread):
                results.append(tuple(papi.read(holder["es"], caller=thread)))

            items = [ControlOp(setup)]
            for _ in range(6):
                items.append(ComputePhase(5e6, rates))
                items.append(ControlOp(measure))
            t = system.machine.spawn(SimThread("caliper", Program(items)))
            plan = FaultPlan().at(
                1e-3, PerfSyscallStorm(errno_name="EBUSY", count=3, ops=("read",))
            )
            system.inject_faults(plan)
            assert system.machine.run_until_done([t], max_s=10)
            return [t], results

        (ss, (ts_slow, r_slow)), (se, (ts_ev, r_ev)) = _run_matrix(build, dt_s=2e-5)
        assert r_slow == r_ev
        _assert_threads_identical(ts_slow, ts_ev)
        _assert_systems_identical(ss, se)

    def test_sensor_dropout_and_counter_storm_parity(self):
        from repro.faults import CounterStorm, FaultPlan, SensorDropout

        def build(system):
            m = system.machine
            t = m.spawn(
                SimThread(
                    "app",
                    Program([ComputePhase(2e9, constant_rates(RATES))]),
                    affinity={0},
                )
            )
            fd = _open_counting(system, "cpu_core", t.tid)
            plan = (
                FaultPlan()
                .at(0.02, SensorDropout("rapl", "stale", duration_s=0.03))
                .at(0.04, CounterStorm())
            )
            inj = system.inject_faults(plan)
            m.run_for(0.08)
            assert inj.pending == 0
            return [t], system.perf.read(fd)

        (ss, (ts_slow, r_slow)), (se, (ts_ev, r_ev)) = _run_matrix(build, dt_s=0.001)
        assert r_slow == r_ev
        _assert_threads_identical(ts_slow, ts_ev)
        _assert_systems_identical(ss, se)

    def test_pending_faults_do_not_kill_batching(self):
        """An armed injector is a replay guard, not a replay veto: an
        idle stretch with a far-future fault still leaps."""
        from repro.faults import FaultPlan, SensorDropout

        system = System(MACHINE, dt_s=0.01)
        plan = FaultPlan().at(
            10.0, SensorDropout("rapl", "stale", duration_s=0.5)
        )
        inj = system.inject_faults(plan)
        real, ticks = _replayed(
            system.machine, lambda: system.machine.run_ticks(3000)
        )
        assert ticks == 3000
        assert inj.pending == 0  # dropout and auto-restore both fired
        assert real < 100


def _counter_bytes(thread):
    return {pmu: buf.tobytes() for pmu, buf in thread.counters.items()}


def _migrating_program(machine, seed: int) -> list:
    """Compute phases of uneven sizes at two rates, split into separate
    buckets by control ops that move the thread between a P-core and an
    E-core every few phases, plus long phases the event engine leaps."""
    cores = machine.topology.cores
    p_cpu = next(c.cpu_id for c in cores if c.ctype.pmu_name == "cpu_core")
    e_cpu = next(c.cpu_id for c in cores if c.ctype.pmu_name == "cpu_atom")
    rng = random.Random(seed)
    fast = constant_rates(RATES)
    slow = constant_rates(PhaseRates(ipc=0.7, flops_per_instr=0.3, branches_per_instr=0.11))

    def pin(cpu):
        def op(thread):
            thread.affinity = {cpu}
        return op

    items = [ControlOp(pin(p_cpu))]
    for i in range(120):
        items.append(ComputePhase(rng.uniform(1e5, 4e6), fast if i % 3 else slow))
        items.append(ControlOp(pin(e_cpu if (i // 7) % 2 else p_cpu)))
        if i % 40 == 39:
            items.append(ComputePhase(6e7, fast))
    return items


class TestAccountingLedger:
    """``SimThread.account`` defers event vectors to a per-thread ledger
    that settles in bulk; the counters must be exactly the per-bucket
    sequential adds, whenever and by whoever they are read."""

    def test_migrating_thread_equals_per_bucket_adds(self):
        """Across several settles and both PMUs, ``counters`` is
        bit-equal to ``buf += arch_event_rates(ct, rates) * instr`` per
        bucket (the bucket's reference cycles in ``REF_CYCLES``)."""

        def build(system):
            m = system.machine
            t = m.spawn(SimThread("mover", Program(_migrating_program(m, seed=3))))
            buckets = []

            def log(thread, core, rates, instr, ref_cycles, time_s):
                if thread is t:
                    buckets.append((core.ctype, rates, instr, ref_cycles))

            m.account_hooks.append(log)
            assert m.run_until_done([t], max_s=10)
            return t, buckets

        for _system, (t, buckets) in _run_matrix(build, dt_s=1e-4):
            assert len(buckets) > 3 * LEDGER_CAP
            expected = {}
            for ct, rates, instr, ref_cycles in buckets:
                buf = expected.setdefault(ct.pmu_name, np.zeros(N_ARCH_EVENTS))
                v = arch_event_rates(ct, rates) * instr
                v[ArchEvent.REF_CYCLES] = ref_cycles
                buf += v
            assert set(expected) == {"cpu_core", "cpu_atom"}
            assert _counter_bytes(t) == {k: v.tobytes() for k, v in expected.items()}

        # Without the (unreplayable) logging hook the event engine
        # records and leaps, and still lands on the same counters.
        def bare(system):
            m = system.machine
            t = m.spawn(SimThread("mover", Program(_migrating_program(m, seed=3))))
            real, total = _replayed(m, lambda: m.run_until_done([t], max_s=10))
            return t, real < total

        (_ss, (t_ref, _)), (_se, (t_ev, leapt)) = _run_matrix(bare, dt_s=1e-4)
        assert leapt
        assert _counter_bytes(t_ev) == _counter_bytes(t_ref) == {
            k: v.tobytes() for k, v in expected.items()
        }

    def test_control_op_reads_other_threads_counters_mid_tick(self):
        def build(system):
            m = system.machine
            rates = constant_rates(RATES)
            worker = m.spawn(SimThread("worker", Program([ComputePhase(4e8, rates)])))
            seen = []

            def peek(thread):
                seen.append(_counter_bytes(worker))

            items = []
            for i in range(25):
                items.append(ComputePhase(3e5 if i % 2 else 4e6, rates))
                items.append(ControlOp(peek))
            reader = m.spawn(SimThread("reader", Program(items)))
            assert m.run_until_done([reader, worker], max_s=10)
            return seen

        (ss, seen_ticks), (se, seen_events) = _run_matrix(build, dt_s=1e-4)
        assert len(seen_ticks) == 25
        # Short phases retire several per tick, so some reads repeat.
        assert len({tuple(sorted(s.items())) for s in seen_ticks}) > 12
        assert seen_ticks == seen_events
        _assert_systems_identical(ss, se)

    def test_killed_recording_leaves_its_buckets_to_settle_later(self):
        """A recorded tick appends to the ledger like a plain tick: a
        thread that accounted before the recording died keeps the
        tick's bucket unsettled, and its counters settle later exactly
        as the reference's do."""
        from repro.sim.events import TickRecorder

        def build(system):
            m = system.machine
            rates = constant_rates(RATES)
            p_cpus = system.topology.cpus_of_type("P-core")
            worker = m.spawn(
                SimThread(
                    "worker",
                    Program([ComputePhase(4e9, rates)]),
                    affinity={p_cpus[0]},
                )
            )
            # Phases that end inside every tick kill each recording.
            m.spawn(
                SimThread(
                    "churn",
                    Program([ComputePhase(3e4, rates) for _ in range(40)]),
                    affinity={p_cpus[2]},
                )
            )
            m.tick()  # the worker's ledger holds a bucket already
            if system.machine.engine == "events":
                rec = m._rec = TickRecorder()
                try:
                    m.tick()
                finally:
                    m._rec = None
                assert rec.unsteady
                assert [b[0] for b in rec.buckets][:1] == [worker]
            else:
                m.tick()
            assert len(worker._ledger) == 2
            m.run_ticks(200)
            return worker

        (ss, w_ref), (se, w_ev) = _run_matrix(build, dt_s=1e-4)
        assert w_ref.counters_total()[ArchEvent.INSTRUCTIONS] > 0
        assert _counter_bytes(w_ev) == _counter_bytes(w_ref)
        _assert_systems_identical(ss, se)

    def test_digest_and_snapshot_settle_the_ledger(self, tmp_path):
        def build():
            system = System(MACHINE, engine="events", dt_s=1e-3)
            rates = constant_rates(RATES)
            threads = [
                system.machine.spawn(
                    SimThread(f"w{i}", Program([ComputePhase(2e9, rates)]))
                )
                for i in range(3)
            ]
            for _ in range(5):
                system.machine.tick()
            return system, threads

        pending, threads = build()
        assert all(t._ledger for t in threads)
        settled, others = build()
        for t in others:
            t._settle()
        assert not any(t._ledger for t in others)
        assert pending.state_digest() == settled.state_digest()

        # Restore-then-run equals run-straight-through.
        straight, threads = build()
        saved, threads = build()
        assert all(t._ledger for t in threads)
        path = str(tmp_path / "ledger.snap")
        saved.save(path)
        restored = System.restore(path)
        for system in (straight, restored):
            system.machine.run_ticks(150)
        assert restored.state_digest() == straight.state_digest()


class TestTraceAndCheckpointMatrix:
    """Structured traces must dump byte-for-byte identically from both
    engines, and a mid-run checkpoint taken under the event engine must
    restore and rejoin the uninterrupted run's digest."""

    def test_trace_dumps_byte_identical_across_engines(self):
        from repro.trace.export import to_text

        def build(system):
            rates = constant_rates(RATES)
            system.machine.thermal.temp_c = 80.0
            system.machine.thermal.zone.temp_c = 80.0
            t = system.machine.spawn(
                SimThread(
                    "app",
                    Program(
                        [
                            ComputePhase(1e9, rates),
                            SleepPhase(duration_s=0.05),
                            ComputePhase(5e8, rates),
                        ]
                    ),
                )
            )
            fd = _open_counting(system, "cpu_core", t.tid)
            assert system.machine.run_until_done([t], max_s=10)
            system.perf.read(fd)
            return to_text(system.tracer.events_list())

        (ss, txt_slow), (se, txt_ev) = _run_matrix(build, dt_s=0.001, trace=True)
        assert txt_slow == txt_ev
        assert txt_slow.count("\n") > 10  # the trace is non-trivial
        _assert_systems_identical(ss, se)

    def test_events_engine_midrun_checkpoint_restore(self, tmp_path):
        """Save mid-run under ``engine="events"``, restore, and continue:
        the restored system must land on the uninterrupted run's digest
        tick for tick (and so must the ``ticks`` reference)."""

        def build(system):
            rates = constant_rates(RATES)
            system.machine.thermal.temp_c = 75.0
            system.machine.thermal.zone.temp_c = 75.0
            ts = [
                system.machine.spawn(
                    SimThread(f"w{i}", Program([ComputePhase(3e9, rates)]))
                )
                for i in range(2)
            ]
            _open_counting(system, "cpu_core", ts[0].tid)
            system.machine.run_ticks(40)
            return ts

        path = str(tmp_path / "midrun.ckpt")
        se = System(MACHINE, engine="events", dt_s=0.001)
        build(se)
        se.save(path)
        restored = System.restore(path)
        assert restored.machine.engine == "events"
        assert restored.state_digest() == se.state_digest()

        # Continue both to the same tick; they must stay locked together.
        for system in (se, restored):
            system.machine.run_ticks(160)
        assert restored.state_digest() == se.state_digest()

        # And the whole continuation matches the ``ticks`` reference
        # running the same scenario straight through.
        ref = System(MACHINE, engine="ticks", dt_s=0.001)
        build(ref)
        ref.machine.run_ticks(160)
        assert ref.state_digest() == se.state_digest()


def _open_counting(system, pmu_name, tid, config=0x00C0, group_fd=-1, **attr_kw):
    from repro.kernel.perf import PerfEventAttr
    from repro.kernel.perf.subsystem import PerfIoctl

    ptype = system.perf.registry.by_name[pmu_name].type
    fd = system.perf.perf_event_open(
        PerfEventAttr(type=ptype, config=config, **attr_kw),
        pid=tid,
        cpu=-1,
        group_fd=group_fd,
    )
    system.perf.ioctl(fd, PerfIoctl.ENABLE)
    return fd
