"""Kernel perf events: state, accrual and the heterogeneity rule.

A :class:`KernelPerfEvent` attached to a thread accrues ``time_enabled``
whenever the thread runs with the event enabled, but only accumulates
counts (and ``time_running``) while the thread executes on a CPU whose
PMU type matches the event's — the kernel behaviour the paper describes:
"the kernel tracks the core type and only enables event counters if they
match the core currently being run on."

Multiplexing: when a context has more events of one PMU type than that
PMU has hardware counters, groups rotate round-robin; an event counts
only while its group holds counters, and the ``enabled``/``running``
times let userspace scale the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.checkpoint.surface import snapshot_surface
from repro.hw.coretype import ArchEvent
from repro.kernel.perf.attr import PerfEventAttr
from repro.kernel.perf.pmu import KernelPmu, PmuKind


@dataclass(frozen=True)
class PerfSample:
    """One overflow sample (the perf-record path).

    The simulation carries no instruction pointers, so a sample records
    *where and when* the overflow happened: timestamp, CPU, thread and
    the PMU that counted — enough for the per-core-type profiles the
    perf tool reports on hybrid machines.
    """

    time_s: float
    cpu: int
    tid: int
    pmu: str


#: Ring-buffer capacity per event; further samples are dropped and
#: counted as lost (like a full perf mmap buffer).
SAMPLE_BUFFER_CAP = 65536

#: Hardware counter width: general-purpose counters are 48 bits on the
#: modelled parts; reads saturate at this value instead of wrapping.
COUNTER_MAX = (1 << 48) - 1


@dataclass
class PerfReadValue:
    """What a perf read() returns for one event."""

    value: int
    time_enabled_ns: int
    time_running_ns: int
    id: int

    def scaled_value(self) -> float:
        """The perf-tool style multiplexing-scaled estimate."""
        if self.time_running_ns == 0:
            return 0.0
        return self.value * self.time_enabled_ns / self.time_running_ns


@snapshot_surface(
    state=(
        "id",
        "attr",
        "pmu",
        "arch_event",
        "target_tid",
        "target_cpu",
        "enabled",
        "count",
        "time_enabled_s",
        "time_running_s",
        "group_leader",
        "siblings",
        "closed",
        "parked",
        "samples",
        "lost_samples",
        "_next_overflow",
        "_sw_base",
        "_rapl_base",
    ),
    note="All state: counts, enabled/running clocks, group links, "
    "parked flag, software/RAPL baselines, sample ring and overflow "
    "cursor.  The id is handed out by the owning PerfSubsystem, whose "
    "next id is kernel state like its fd counter."
)
class KernelPerfEvent:
    """One opened perf event."""

    def __init__(
        self,
        event_id: int,
        attr: PerfEventAttr,
        pmu: KernelPmu,
        target_tid: Optional[int],
        target_cpu: Optional[int],
        group_leader: Optional["KernelPerfEvent"] = None,
        arch_event: Optional[ArchEvent] = None,
    ):
        #: Unique within its kernel (:class:`PerfSubsystem`), as the id
        #: ``PERF_FORMAT_ID`` reads report.
        self.id = event_id
        self.attr = attr
        self.pmu = pmu
        self.arch_event = arch_event
        self.target_tid = target_tid
        self.target_cpu = target_cpu
        self.enabled = not attr.disabled
        self.count = 0.0
        self.time_enabled_s = 0.0
        self.time_running_s = 0.0
        self.group_leader = group_leader if group_leader is not None else self
        self.siblings: list[KernelPerfEvent] = []
        if group_leader is not None:
            group_leader.siblings.append(self)
        self.closed = False
        # Parked: the event's target CPU is hotplug-offline.  A parked
        # event keeps accruing enabled time (it is still attached) but
        # neither counts nor accrues running time — so after re-online
        # the enabled/running ratio reflects the outage.
        self.parked = False
        # Software-event baseline snapshots (count = live stat - baseline).
        self._sw_base: Optional[float] = None
        # RAPL baseline (energy joules at enable).
        self._rapl_base: Optional[float] = None
        # Sampling state (attr.sample_period > 0).
        self.samples: list[PerfSample] = []
        self.lost_samples = 0
        self._next_overflow = float(attr.sample_period) if attr.sample_period else None

    # -- group helpers ------------------------------------------------------

    @property
    def is_group_leader(self) -> bool:
        return self.group_leader is self

    def group_events(self) -> list["KernelPerfEvent"]:
        """Leader plus siblings (leader first)."""
        leader = self.group_leader
        return [leader, *leader.siblings]

    def hw_counters_needed(self) -> int:
        """Hardware counters this event's group needs on its PMU."""
        return sum(
            1 for e in self.group_events() if e.pmu.kind is PmuKind.CPU
        )

    # -- state --------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.count = 0.0
        self._sw_base = None
        self._rapl_base = None
        # Linux's PERF_EVENT_IOC_RESET zeroes the count but not the times;
        # we match that.

    # -- accrual (called from the subsystem's account hook) ------------------

    def accrue(
        self,
        core_pmu_type: int,
        values: np.ndarray,
        time_s: float,
        counting_allowed: bool,
        now_s: float = 0.0,
        cpu: int = -1,
        rec=None,
        tracer=None,
    ) -> None:
        """Credit one execution slice of the target thread.

        ``counting_allowed`` is False while the event's group is rotated
        out by the multiplexer.
        """
        if not self.enabled or self.closed:
            return
        self.time_enabled_s += time_s
        if rec is not None:
            rec.scalar(self, "time_enabled_s", time_s)
        if not counting_allowed:
            return
        adds = self.counting_adds(core_pmu_type, values, time_s)
        if adds is None:
            return  # wrong core type: enabled but not running
        running, inc = adds
        self.time_running_s += running
        if rec is not None:
            rec.scalar(self, "time_running_s", running)
        if inc is not None:
            self.count += inc
            if rec is not None:
                rec.scalar(self, "count", inc)
            if self._next_overflow is not None:
                if self.count >= self._next_overflow:
                    # Sample emission is per-tick state: a crossing tick
                    # is never replayable.
                    if rec is not None:
                        rec.unsteady = True
                    self._record_overflows(now_s, cpu, tracer)
                elif rec is not None:
                    # Below threshold: batching may continue, guarded by
                    # the analytic distance to the crossing.
                    rec.overflow_step(self, inc)

    def counting_adds(
        self, core_pmu_type: int, values: np.ndarray, time_s: float
    ) -> Optional[tuple[float, Optional[float]]]:
        """What one slice on a ``core_pmu_type`` core adds while this
        event's group holds counters: the ``time_running_s`` and
        ``count`` increments, the latter None for an event that counts
        nothing itself (a software member, a CPU event without an
        architectural slot).  None on the wrong core type, where the
        event is enabled but not running."""
        pmu = self.pmu
        if pmu.kind is PmuKind.CPU:
            if pmu.type != core_pmu_type:
                return None
            if self.arch_event is not None:
                return time_s, float(values[self.arch_event])
        return time_s, None

    def _record_overflows(self, now_s: float, cpu: int, tracer=None) -> None:
        """Emit one sample per period crossing within the slice.

        Trace emission is parity-safe by construction: a sampling
        event's accrual marks the tick recorder unsteady, so ticks that
        emit samples are never replayed.
        """
        period = float(self.attr.sample_period)
        while self.count >= self._next_overflow:
            self._next_overflow += period
            if len(self.samples) >= SAMPLE_BUFFER_CAP:
                self.lost_samples += 1
                if tracer is not None:
                    tracer.metrics.counter("perf.lost_samples", key=self.pmu.name)
                continue
            self.samples.append(
                PerfSample(
                    time_s=now_s,
                    cpu=cpu,
                    tid=self.target_tid if self.target_tid is not None else -1,
                    pmu=self.pmu.name,
                )
            )
            if tracer is not None:
                tracer.emit(
                    "perf",
                    "overflow",
                    tid=self.target_tid,
                    cpu=cpu,
                    args={"id": self.id, "pmu": self.pmu.name},
                )
                tracer.metrics.counter("perf.overflows", key=self.pmu.name)

    def read_samples(self) -> list["PerfSample"]:
        """Drain the sample buffer (like reading the mmap ring)."""
        out = self.samples
        self.samples = []
        return out

    def accrue_cpuwide(self, values: np.ndarray, rec=None) -> None:
        """CPU-wide hardware events: count whatever ran on their CPU.

        Their enabled/running clocks follow wall time (accrued per tick),
        since a CPU-wide event keeps "running" through idle.
        """
        if (
            self.enabled
            and not self.closed
            and not self.parked
            and self.arch_event is not None
        ):
            inc = float(values[self.arch_event])
            self.count += inc
            if rec is not None:
                rec.scalar(self, "count", inc)

    def accrue_uncore(self, values: np.ndarray, rec=None) -> None:
        """Uncore events count package traffic from every core."""
        if (
            self.enabled
            and not self.closed
            and not self.parked
            and self.arch_event is not None
        ):
            inc = float(values[self.arch_event])
            self.count += inc
            if rec is not None:
                rec.scalar(self, "count", inc)

    def accrue_wall_time(self, dt_s: float, rec=None) -> None:
        """CPU-wide (uncore/RAPL) events: times advance with wall time.

        A parked event (its CPU is offline) accrues enabled time only —
        its PMU context is gone, so it cannot be running.
        """
        if self.enabled and not self.closed:
            self.time_enabled_s += dt_s
            if rec is not None:
                rec.scalar(self, "time_enabled_s", dt_s)
            if not self.parked:
                self.time_running_s += dt_s
                if rec is not None:
                    rec.scalar(self, "time_running_s", dt_s)

    def saturate(self) -> None:
        """Force the counter to its hardware width (overflow-storm mode)."""
        self.count = float(COUNTER_MAX)
        if self._next_overflow is not None:
            # Re-anchor the overflow threshold so the next accrual emits
            # a bounded number of samples rather than replaying the jump.
            self._next_overflow = self.count + float(self.attr.sample_period)

    def read_value(self) -> PerfReadValue:
        return PerfReadValue(
            value=min(int(self.count), COUNTER_MAX),
            time_enabled_ns=int(self.time_enabled_s * 1e9),
            time_running_ns=int(self.time_running_s * 1e9),
            id=self.id,
        )

    def wants(self, flag: int) -> bool:
        """Whether ``attr.read_format`` has ``flag`` (a plain int:
        ``ReadFormat`` arithmetic builds a flag member per test)."""
        return int(self.attr.read_format) & flag != 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tgt = f"tid={self.target_tid}" if self.target_tid is not None else f"cpu={self.target_cpu}"
        return (
            f"KernelPerfEvent(#{self.id} {self.pmu.name}:{self.attr.base_config():#x} "
            f"{tgt} {'on' if self.enabled else 'off'} count={self.count:.0f})"
        )
