"""Perf event lifecycle churn.

Open/close/reopen cycles interleaved with running ticks (and with the
fast path's cached dispatch state): closing a group leader must promote
its siblings to singleton events (like Linux's ``perf_group_detach``),
freed counter budget must become available again, and the indexed
dispatch cache must never serve entries from a previous generation.
"""

from __future__ import annotations

import pytest

from repro.kernel.errno import Errno, KernelError
from repro.kernel.perf import PerfEventAttr
from repro.kernel.perf.subsystem import PerfIoctl
from repro.sim.task import Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System

MACHINE = "raptor-lake-i7-13700"
RATES = constant_rates(
    PhaseRates(ipc=2.0, llc_refs_per_instr=0.01, llc_miss_rate=0.3)
)


def _attr(system, pmu_name="cpu_core", config=0x00C0):
    ptype = system.perf.registry.by_name[pmu_name].type
    return PerfEventAttr(type=ptype, config=config)


def _spawn(system, name="app", cpu=0, instr=1e11):
    return system.machine.spawn(
        SimThread(name, Program([ComputePhase(instr, RATES)]), affinity={cpu})
    )


class TestLeaderPromotion:
    def test_closing_leader_promotes_siblings_to_singletons(self):
        system = System(MACHINE, dt_s=0.001)
        t = _spawn(system)
        perf = system.perf
        lead = perf.perf_event_open(_attr(system), pid=t.tid, cpu=-1)
        members = [
            perf.perf_event_open(
                _attr(system, config=c), pid=t.tid, cpu=-1, group_fd=lead
            )
            for c in (0x003C, 0x412E)
        ]
        perf.ioctl(lead, PerfIoctl.ENABLE, flag_group=True)
        system.machine.run_for(0.05)

        before = {fd: perf.read(fd).value for fd in members}
        perf.close(lead)

        for fd in members:
            ev = perf._event(fd)
            assert ev.is_group_leader
            assert ev.group_leader is ev
            assert ev.siblings == []

        # Promoted singletons keep counting on their own.
        system.machine.run_for(0.05)
        for fd in members:
            assert perf.read(fd).value > before[fd]

        # The closed leader's fd is gone for good.
        with pytest.raises(KernelError) as err:
            perf.read(lead)
        assert err.value.kernel_errno is Errno.EBADF

    def test_promoted_sibling_can_lead_a_new_group(self):
        system = System(MACHINE, dt_s=0.001)
        t = _spawn(system)
        perf = system.perf
        lead = perf.perf_event_open(_attr(system), pid=t.tid, cpu=-1)
        member = perf.perf_event_open(
            _attr(system, config=0x003C), pid=t.tid, cpu=-1, group_fd=lead
        )
        perf.close(lead)
        # ``member`` is a singleton leader now, so it can accept members.
        new_member = perf.perf_event_open(
            _attr(system, config=0x412E), pid=t.tid, cpu=-1, group_fd=member
        )
        assert perf._event(new_member).group_leader is perf._event(member)

    def test_closing_member_detaches_it_from_the_group(self):
        system = System(MACHINE, dt_s=0.001)
        t = _spawn(system)
        perf = system.perf
        lead = perf.perf_event_open(_attr(system), pid=t.tid, cpu=-1)
        member = perf.perf_event_open(
            _attr(system, config=0x003C), pid=t.tid, cpu=-1, group_fd=lead
        )
        lead_ev, member_ev = perf._event(lead), perf._event(member)
        assert member_ev in lead_ev.siblings
        perf.close(member)
        assert lead_ev.siblings == []
        assert lead_ev.hw_counters_needed() == 1

    def test_counter_budget_frees_on_close(self):
        system = System(MACHINE, dt_s=0.001)
        glc = system.perf.registry.by_name["cpu_core"]
        system.perf.reserve_counters(
            "cpu_core", glc.n_counters + glc.n_fixed - 2
        )
        t = _spawn(system)
        perf = system.perf
        lead = perf.perf_event_open(_attr(system), pid=t.tid, cpu=-1)
        member = perf.perf_event_open(
            _attr(system, config=0x003C), pid=t.tid, cpu=-1, group_fd=lead
        )
        with pytest.raises(KernelError) as err:
            perf.perf_event_open(
                _attr(system, config=0x412E), pid=t.tid, cpu=-1, group_fd=lead
            )
        assert err.value.kernel_errno is Errno.EINVAL
        perf.close(member)  # frees one hardware counter
        perf.perf_event_open(
            _attr(system, config=0x412E), pid=t.tid, cpu=-1, group_fd=lead
        )


class TestDispatchCacheChurn:
    """The indexed dispatch cache is keyed by generation; churn must
    always invalidate it — on both engine paths, bit-identically."""

    def _churn(self, system):
        perf = system.perf
        t = _spawn(system)
        readings = []

        fd1 = perf.perf_event_open(_attr(system), pid=t.tid, cpu=-1)
        perf.ioctl(fd1, PerfIoctl.ENABLE)
        system.machine.run_for(0.03)
        readings.append(perf.read(fd1).value)
        perf.close(fd1)

        # Reopen: the new event must start from zero, not inherit any
        # state the cache may remember from fd1's slot.
        fd2 = perf.perf_event_open(_attr(system), pid=t.tid, cpu=-1)
        perf.ioctl(fd2, PerfIoctl.ENABLE)
        system.machine.run_for(0.03)
        readings.append(perf.read(fd2).value)

        # Group churn mid-run: add a member, run, drop the leader.
        fd3 = perf.perf_event_open(
            _attr(system, config=0x003C), pid=t.tid, cpu=-1, group_fd=fd2
        )
        perf.ioctl(fd3, PerfIoctl.ENABLE)
        system.machine.run_for(0.03)
        readings.append(perf.read(fd3).value)
        perf.close(fd2)
        system.machine.run_for(0.03)
        readings.append(perf.read(fd3).value)
        return readings

    def test_churn_counts_identical_on_both_paths(self):
        slow = self._churn(System(MACHINE, dt_s=0.001, engine="ticks"))
        fast = self._churn(System(MACHINE, dt_s=0.001, engine="events"))
        assert slow == fast
        assert all(v > 0 for v in slow)
        # Reopened event restarted from zero over an equal interval.
        assert slow[1] == pytest.approx(slow[0], rel=0.2)

    def test_reopen_after_close_starts_from_zero(self):
        system = System(MACHINE, dt_s=0.001)
        t = _spawn(system)
        perf = system.perf
        fd1 = perf.perf_event_open(_attr(system), pid=t.tid, cpu=-1)
        perf.ioctl(fd1, PerfIoctl.ENABLE)
        system.machine.run_for(0.05)
        first = perf.read(fd1).value
        assert first > 0
        perf.close(fd1)
        fd2 = perf.perf_event_open(_attr(system), pid=t.tid, cpu=-1)
        perf.ioctl(fd2, PerfIoctl.ENABLE)
        assert perf.read(fd2).value == 0.0
