"""Unit tests for the small simulation primitives."""

import numpy as np
import pytest

from repro.hw.coretype import ArchEvent, N_ARCH_EVENTS
from repro.hw.machines import _gracemont, _raptor_cove
from repro.hw.pmu import CorePmu, CounterDelta
from repro.sim.task import ControlOp, Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates

RATES = constant_rates(PhaseRates(ipc=2.0))


class TestCounterDelta:
    def test_add_and_get(self):
        d = CounterDelta()
        d.add(ArchEvent.INSTRUCTIONS, 100).add(ArchEvent.CYCLES, 50)
        assert d[ArchEvent.INSTRUCTIONS] == 100
        assert d[ArchEvent.CYCLES] == 50
        assert d[ArchEvent.FP_OPS] == 0

    def test_scaled(self):
        d = CounterDelta()
        d.add(ArchEvent.INSTRUCTIONS, 10)
        s = d.scaled(2.5)
        assert s[ArchEvent.INSTRUCTIONS] == 25
        assert d[ArchEvent.INSTRUCTIONS] == 10  # original untouched

    def test_total_nonzero(self):
        d = CounterDelta()
        d.add(ArchEvent.BRANCHES, 7)
        assert d.total_nonzero() == {"BRANCHES": 7.0}


class TestCorePmu:
    def test_accumulate_and_read(self):
        pmu = CorePmu(0, _raptor_cove())
        delta = CounterDelta()
        delta.add(ArchEvent.INSTRUCTIONS, 1000)
        pmu.accumulate(delta)
        pmu.accumulate(delta)
        assert pmu.read(ArchEvent.INSTRUCTIONS) == 2000

    def test_reset(self):
        pmu = CorePmu(0, _raptor_cove())
        pmu.totals[:] = 5.0
        pmu.reset()
        assert pmu.read(ArchEvent.CYCLES) == 0

    def test_unsupported_event_rejected(self):
        pmu = CorePmu(0, _gracemont())
        with pytest.raises(ValueError, match="TOPDOWN"):
            pmu.read(ArchEvent.TOPDOWN_SLOTS)

    def test_counter_width(self):
        assert CorePmu(0, _raptor_cove()).n_counters == 8
        assert CorePmu(0, _gracemont()).n_counters == 6


class TestProgram:
    def test_items_in_order(self):
        phases = [ComputePhase(1, RATES), ControlOp(lambda t: None), ComputePhase(2, RATES)]
        prog = Program(phases)
        assert len(prog) == 3
        t = SimThread("x", prog)
        assert [prog.next_phase(t) for _ in range(3)] == phases
        assert prog.next_phase(t) is None

    def test_extend(self):
        prog = Program([])
        extra = ComputePhase(1, RATES)
        prog.extend([extra])
        assert prog.next_phase(SimThread("x", prog)) is extra


class TestSimThread:
    def test_injected_phases_run_first(self):
        phase = ComputePhase(5, RATES)
        t = SimThread("x", Program([phase]))
        injected = ComputePhase(1, RATES)
        t.inject(injected)
        assert t.take_next() is injected
        assert t.take_next() is phase

    def test_inject_overhead_zero_is_noop(self):
        t = SimThread("x", Program([]))
        t.inject_overhead(0)
        assert t.take_next() is None

    def test_account_aggregates_per_pmu(self):
        t = SimThread("x", Program([]))
        v = np.zeros(N_ARCH_EVENTS)
        v[ArchEvent.INSTRUCTIONS] = 10
        t.account("cpu_core", v, 0.5)
        t.account("cpu_atom", v, 0.25)
        t.account("cpu_core", v, 0.5)
        assert t.counters["cpu_core"][ArchEvent.INSTRUCTIONS] == 20
        assert t.counters_total()[ArchEvent.INSTRUCTIONS] == 30
        assert t.total_runtime_s == pytest.approx(1.25)
        assert t.runtime_s["cpu_core"] == pytest.approx(1.0)

    def test_allowed_on(self):
        t = SimThread("x", Program([]), affinity={2, 3})
        assert t.allowed_on(2)
        assert not t.allowed_on(4)
        free = SimThread("y", Program([]))
        assert free.allowed_on(0)
