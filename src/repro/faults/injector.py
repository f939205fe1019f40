"""Executes a :class:`~repro.faults.plan.FaultPlan` from the tick loop.

The injector is a replay-safe tick hook.  Correctness under the event
engine hinges on when faults fire relative to replayed ticks:

* **Timed injections** fire in the end-of-tick hook of the first tick
  whose end time reaches ``at_s`` — exactly as under ``ticks``.  During
  a replayed span hooks do not run, so the injector plants the next due
  time as an analytic guard (``TickRecorder.time_guards``) that ends
  the span one tick *before* a timed fault comes due; the engine falls
  back to a full tick and the hook fires the fault there,
  bit-identically to a ``ticks`` run.  (With conditional injections
  also pending, the opaque span guard below takes over both duties.)
* **Conditional injections** (``when`` predicates) fire from the span
  guard itself.  The guard is evaluated between replayed ticks, at
  exactly the machine state the ``ticks`` engine's end-of-tick hook
  would see, so firing there (and ending the span) keeps the two
  engines bit-identical.

Any firing also kills a live recorder: a tick that mutates hotplug,
perf, or sensor state is never a steady tick.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import TYPE_CHECKING

from repro.faults.plan import (
    CounterStorm,
    CpuOffline,
    CpuOnline,
    FaultPlan,
    Injection,
    PerfSyscallStorm,
    SensorDropout,
    SensorRestore,
)
from repro.checkpoint.surface import snapshot_surface
from repro.kernel.errno import Errno, KernelError
from repro.kernel.perf.pmu import PmuKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

#: Slack for float time comparisons against tick boundaries.
_EPS = 1e-12


@snapshot_surface(
    state=(
        "system",
        "machine",
        "_timed",
        "_conditional",
        "_seq",
        "fired",
        "skipped",
    ),
    note="Fault-plan progress is state: the timed heap (remaining "
    "injections), conditional injections, fired/skipped logs, and the "
    "itertools.count sequencer (pickles with its position).  The tick "
    "hook is re-registered implicitly because machine.tick_hooks holds "
    "the bound method and pickles with the machine."
)
class FaultInjector:
    """Drives a plan's injections from ``machine.tick_hooks``.

    ``fired`` logs ``(sim_time_s, fault)`` for every applied fault;
    ``skipped`` logs ``(sim_time_s, fault, reason)`` for injections the
    kernel refused (e.g. offlining cpu0), which are dropped rather than
    allowed to crash the run.
    """

    def __init__(self, system: "System", plan: FaultPlan):
        self.system = system
        self.machine = system.machine
        self.fired: list[tuple[float, object]] = []
        self.skipped: list[tuple[float, object, str]] = []
        self._seq = itertools.count()
        self._timed: list[tuple[float, int, object]] = []
        self._conditional: list[Injection] = []
        for inj in plan.injections:
            if inj.at_s is not None:
                heapq.heappush(self._timed, (inj.at_s, next(self._seq), inj.fault))
            else:
                self._conditional.append(inj)
        self.machine.tick_hooks.append(self._on_tick)
        self.machine.mark_hook_fastpath_safe(self._on_tick)

    @property
    def pending(self) -> int:
        return len(self._timed) + len(self._conditional)

    # -- tick integration ----------------------------------------------------

    def _on_tick(self, machine) -> None:
        now = machine.clock.now_s
        fired = False
        while self._timed and self._timed[0][0] <= now + _EPS:
            _, _, fault = heapq.heappop(self._timed)
            self._apply(fault)
            fired = True
        for inj in list(self._conditional):
            if inj.when():
                self._conditional.remove(inj)
                self._apply(inj.fault)
                fired = True
        rec = machine._rec
        if rec is None:
            return
        if fired:
            rec.kill(machine)
        elif self._conditional:
            # Opaque predicates must be polled (and fired) per tick.
            rec.spin_guards.append(self._batch_guard)
        elif self._timed:
            # Only timed faults left: the next due time is analytic, so
            # the engines can solve for the batch-breaking tick instead
            # of polling for it.  The guard semantics are identical to
            # the batch guard's timed check (same epsilon).
            rec.time_guard(self._timed[0][0])

    def _batch_guard(self) -> bool:
        """Break the batch when a fault is due; fire conditionals here."""
        clock = self.machine.clock
        if self._timed and self._timed[0][0] <= clock.now_s + clock.dt_s + _EPS:
            return True
        fired = False
        for inj in list(self._conditional):
            if inj.when():
                self._conditional.remove(inj)
                self._apply(inj.fault)
                fired = True
        return fired

    # -- fault application ---------------------------------------------------

    def _apply(self, fault) -> None:
        m = self.machine
        now = m.clock.now_s
        try:
            if isinstance(fault, CpuOffline):
                m.offline_cpu(fault.cpu)
            elif isinstance(fault, CpuOnline):
                m.online_cpu(fault.cpu)
            elif isinstance(fault, PerfSyscallStorm):
                self.system.perf.inject_syscall_failures(
                    Errno[fault.errno_name], fault.count, ops=fault.ops
                )
            elif isinstance(fault, SensorDropout):
                for sensor in self._sensors(fault.sensor):
                    sensor.set_fault(fault.mode)
                if fault.duration_s is not None:
                    heapq.heappush(
                        self._timed,
                        (
                            now + fault.duration_s,
                            next(self._seq),
                            SensorRestore(fault.sensor),
                        ),
                    )
            elif isinstance(fault, SensorRestore):
                for sensor in self._sensors(fault.sensor):
                    sensor.set_fault(None)
            elif isinstance(fault, CounterStorm):
                for ev in self.system.perf._fds.values():
                    if ev.closed or not ev.enabled:
                        continue
                    if ev.pmu.kind is PmuKind.CPU:
                        ev.saturate()
            else:
                raise ValueError(f"unknown fault: {fault!r}")
        except KernelError as exc:
            # The kernel refusing an injection (cpu0 hotplug, ...) is a
            # plan defect, not a reason to crash the simulated workload.
            self.skipped.append((now, fault, str(exc)))
            self._trace("skipped", fault, reason=str(exc))
            return
        self.fired.append((now, fault))
        self._trace("fired", fault)

    def _trace(self, name: str, fault, **extra) -> None:
        """Emit one ("fault", name) event.  Firings always kill a live
        recorder (a fault tick is never steady), so emission is
        engine-parity-safe."""
        tr = self.machine.tracer
        if tr is None or not tr.fault:
            return
        detail = {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(fault).items()
        }
        tr.emit(
            "fault",
            name,
            args={"fault": type(fault).__name__, **detail, **extra},
        )
        tr.metrics.counter(f"faults.{name}", key=type(fault).__name__)

    def _sensors(self, name: str) -> list:
        m = self.machine
        if name == "rapl":
            return list(m.rapl.domains)
        if name == "thermal":
            return [m.thermal.zone]
        raise ValueError(f"unknown sensor {name!r} (want 'rapl' or 'thermal')")
