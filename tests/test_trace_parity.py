"""Trace parity: tracing is a pure observer on both engine paths.

Every scenario runs four ways — ``engine`` × ``trace`` — and asserts:

* all four runs produce the *same* ``state_digest`` (tracing never
  perturbs simulated state, and the tracer itself is digest-excluded);
* the ``events`` and ``ticks`` traces are **identical event sequences**
  (same events, same simulated timestamps, same args) — the tentpole
  contract that lets the event engine skip the scheduler and the perf
  accrual hooks during replay without losing events;
* workload results (PAPI values) are bit-identical everywhere.
"""

from __future__ import annotations

from repro.papi import Papi
from repro.sim.task import Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System
from repro.trace import to_text

MACHINE = "raptor-lake-i7-13700"
RATES = PhaseRates(
    ipc=2.0,
    flops_per_instr=0.5,
    llc_refs_per_instr=0.01,
    llc_miss_rate=0.3,
    l2_refs_per_instr=0.05,
    l2_miss_rate=0.2,
)


def _run_matrix(build, **system_kw):
    """Run ``build(system) -> result`` under engine × trace."""
    out = {}
    for engine in ("ticks", "events"):
        for trace in (False, True):
            system = System(MACHINE, engine=engine, trace=trace, **system_kw)
            result = build(system)
            out[(engine, trace)] = (system, result)
    return out


def _assert_parity(runs):
    digests = {k: s.state_digest() for k, (s, _) in runs.items()}
    assert len(set(digests.values())) == 1, f"digests diverge: {digests}"
    results = {k: r for k, (_, r) in runs.items()}
    assert len({repr(r) for r in results.values()}) == 1, (
        f"results diverge: {results}"
    )
    ticks = to_text(runs[("ticks", True)][0].tracer.events_list())
    events = to_text(runs[("events", True)][0].tracer.events_list())
    assert ticks == events, "events-engine trace differs from ticks trace"
    return ticks


def _compute_thread(system, instructions=3e9, name="w0", affinity=None):
    rates = constant_rates(RATES)
    return system.machine.spawn(
        SimThread(name, Program([ComputePhase(instructions, rates)]),
                  affinity=affinity)
    )


class TestTraceParity:
    def test_steady_papi_counting(self):
        """The hot case: a steady compute phase under a counting
        EventSet, where the event engine replays almost every tick."""

        def build(system):
            papi = Papi(system)
            t = _compute_thread(system)
            es = papi.create_eventset()
            papi.attach(es, t)
            papi.add_event(es, "PAPI_TOT_INS")
            papi.start(es)
            system.machine.run_for(0.6)
            return papi.stop(es)

        text = _assert_parity(_run_matrix(build, dt_s=0.01))
        assert " papi start " in text and " papi stop " in text
        assert " sched switch_in " in text

    def test_jittered_migrations(self):
        """Interference migrations: every placement change must appear,
        with matched switch-out/in brackets, on both paths."""

        def build(system):
            ts = [_compute_thread(system, name=f"w{i}") for i in range(3)]
            system.machine.run_for(0.5)
            return [t.nr_migrations for t in ts]

        text = _assert_parity(
            _run_matrix(build, dt_s=0.01, migrate_jitter=0.05, seed=11)
        )
        assert " sched migrate " in text

    def test_multiplex_rotation_events(self):
        """Multiplex slot changes are transition-only emissions; the
        recorder's mux guard must break batches at exactly those ticks."""

        def build(system):
            papi = Papi(system)
            p_cpu = system.topology.cpus_of_type("P-core")[0]
            t = _compute_thread(system, instructions=2e9, affinity={p_cpu})
            es = papi.create_eventset()
            papi.attach(es, t)
            papi.set_multiplex(es)
            glc = system.perf.registry.by_name["cpu_core"]
            for _ in range(glc.n_counters + glc.n_fixed + 3):
                papi.add_event(es, "adl_glc::INST_RETIRED:ANY")
            papi.start(es)
            system.machine.run_for(0.3)
            return papi.stop(es)

        text = _assert_parity(_run_matrix(build, dt_s=0.001))
        assert " perf mux_rotate " in text

    def test_overflow_sampling_events(self):
        """Overflow samples mark the recorder unsteady, so sample ticks
        never replay — emission stays path-identical."""

        def build(system):
            papi = Papi(system)
            t = _compute_thread(system, instructions=2e9)
            es = papi.create_eventset()
            papi.attach(es, t)
            papi.add_event(es, "PAPI_TOT_INS")
            hits = []
            papi.overflow(es, "PAPI_TOT_INS", 200_000_000, lambda e, s: hits.append(s))
            papi.start(es)
            system.machine.run_for(0.4)
            papi.stop(es)
            return len(hits)

        text = _assert_parity(_run_matrix(build, dt_s=0.01))
        assert " perf overflow " in text

    def test_fault_injection_events(self):
        """Hotplug + sensor-dropout firings break batches and trace the
        same way on both paths; displaced threads get switch-outs."""
        from repro.faults.plan import (
            CpuOffline,
            CpuOnline,
            FaultPlan,
            SensorDropout,
        )

        def build(system):
            ts = [
                _compute_thread(system, name=f"w{i}", affinity={4, 5})
                for i in range(2)
            ]
            plan = (
                FaultPlan()
                .at(0.05, CpuOffline(5))
                .at(0.10, SensorDropout("rapl", mode="stale", duration_s=0.05))
                .at(0.20, CpuOnline(5))
            )
            inj = system.inject_faults(plan)
            system.machine.run_for(0.4)
            return (len(inj.fired), [t.nr_migrations for t in ts])

        text = _assert_parity(_run_matrix(build, dt_s=0.01))
        assert " fault fired " in text
        assert " sched hotplug_offline " in text
        assert " sched hotplug_online " in text

    def test_pmu_mismatch_transitions(self):
        """Cross-core-type placement flips the mismatch state exactly on
        migration ticks (never on replayed steady ticks)."""

        def build(system):
            papi = Papi(system)
            t = _compute_thread(system, instructions=5e9)
            # Bounce the thread between a P-core and an E-core.
            e_cpu = system.topology.cpus_of_type("E-core")[0]
            p_cpu = system.topology.cpus_of_type("P-core")[0]
            es = papi.create_eventset()
            papi.attach(es, t)
            papi.add_event(es, "adl_glc::INST_RETIRED:ANY")
            papi.start(es)
            system.machine.run_for(0.05)
            t.affinity = {e_cpu}
            system.machine.run_for(0.1)
            t.affinity = {p_cpu}
            system.machine.run_for(0.1)
            return papi.stop(es)

        text = _assert_parity(_run_matrix(build, dt_s=0.01))
        assert " perf pmu_mismatch_begin " in text
        assert " perf pmu_mismatch_end " in text

    def test_small_hpl_run(self):
        """HPL's dynamic chunk claims mutate a shared pool every tick;
        tracing must not move its simulated completion time."""
        from repro.hpl import HplConfig, run_hpl

        def build(system):
            result = run_hpl(
                system,
                HplConfig(n=4608, nb=192),
                variant="intel",
                cpus=system.topology.primary_threads(),
            )
            return (system.machine.now_s, result.gflops)

        text = _assert_parity(_run_matrix(build, dt_s=0.01))
        assert " sched switch_in " in text

    def test_trace_off_matches_baseline_digest_after_restore_roundtrip(self):
        """A traced system pickles (tracer included) and still digests
        equal to an untraced clone — the digest-exclusion contract."""
        from repro.checkpoint.pickler import dumps, loads

        traced = System(MACHINE, dt_s=0.01, trace=True)
        _compute_thread(traced)
        traced.machine.run_for(0.1)

        plain = System(MACHINE, dt_s=0.01)
        _compute_thread(plain)
        plain.machine.run_for(0.1)

        assert traced.state_digest() == plain.state_digest()
        revived = loads(dumps(traced))
        assert revived.state_digest() == plain.state_digest()
        # The revived tracer carries its event prefix.
        assert revived.tracer.events_list() == traced.tracer.events_list()
