"""Unit tests for the small simulation primitives."""

import pytest

from repro.hw.coretype import ArchEvent
from repro.hw.machines import _gracemont, _raptor_cove
from repro.sim.task import ControlOp, Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates

RATES = constant_rates(PhaseRates(ipc=2.0))


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
        rates = PhaseRates(ipc=2.0)
        t.account(_raptor_cove(), rates, 10, 0.0, 0.5)
        t.account(_gracemont(), rates, 10, 0.0, 0.25)
        t.account(_raptor_cove(), rates, 10, 0.0, 0.5)
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
