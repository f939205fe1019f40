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

    def test_mux_rotation_constants_agree(self):
        from repro.kernel.perf import subsystem
        from repro.sim import events

        assert events.MUX_ROTATION_PERIOD_S == subsystem.MUX_ROTATION_PERIOD_S

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
        """Rotation alone must not kill replay: the rotation slot is a
        replay guard, so spans end at slot boundaries, not every tick."""
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
        # A 4 ms rotation period at 0.1 ms ticks ⇒ roughly one real tick
        # per 40-tick slot, not one per tick.
        assert real < 600


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


def _open_counting(system, pmu_name, tid, config=0x00C0):
    from repro.kernel.perf import PerfEventAttr
    from repro.kernel.perf.subsystem import PerfIoctl

    ptype = system.perf.registry.by_name[pmu_name].type
    fd = system.perf.perf_event_open(
        PerfEventAttr(type=ptype, config=config), pid=tid, cpu=-1
    )
    system.perf.ioctl(fd, PerfIoctl.ENABLE)
    return fd
