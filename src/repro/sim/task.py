"""Simulated threads and the programs they run.

A :class:`SimThread` executes phases delivered by a *work source* — any
object with ``next_phase(thread)`` returning the next
:class:`~repro.sim.workload.WorkPhase` (or :class:`ControlOp`) or
``None`` when the thread is finished.  :class:`Program` is the common
source: an ordered list of phases interleaved with :class:`ControlOp`
callables that run instantaneously at phase boundaries (this is how
measured applications make PAPI calls "from inside" the simulation, with
the call overhead injected back as extra instructions).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Iterable, Optional

import numpy as np

from repro.checkpoint.surface import snapshot_surface
from repro.hw.coretype import N_ARCH_EVENTS
from repro.sim.workload import ComputePhase, PhaseRates, WorkPhase, constant_rates


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


#: Rates used for injected overhead work (library/syscall code: scalar,
#: branchy, cache-resident).
OVERHEAD_RATES = PhaseRates(ipc=1.6, branches_per_instr=0.2, branch_miss_rate=0.02)

class ControlOp:
    """An instantaneous action at a phase boundary (e.g. a PAPI call)."""

    __slots__ = ("fn", "label")

    def __init__(self, fn: Callable[["SimThread"], None], label: str = "control"):
        self.fn = fn
        self.label = label


class Program:
    """A finite sequence of phases and control ops."""

    def __init__(self, items: Iterable[WorkPhase | ControlOp]):
        self._items = deque(items)

    def next_phase(self, thread: SimThread) -> WorkPhase | ControlOp | None:
        return self._items.popleft() if self._items else None

    def extend(self, items: Iterable[WorkPhase | ControlOp]) -> None:
        self._items.extend(items)

    def __len__(self) -> int:
        return len(self._items)


@snapshot_surface(
    state=(
        "tid",
        "name",
        "source",
        "state",
        "cpu",
        "last_cpu",
        "affinity",
        "weight",
        "vruntime",
        "wake_at_s",
        "current_phase",
        "counters",
        "runtime_s",
        "total_runtime_s",
        "spin_time_s",
        "nr_switches",
        "nr_migrations",
        "_injected",
    ),
    note="Everything is state: run/ready/blocked status, the in-flight "
    "phase (including closure-captured coordinators and barriers), "
    "per-PMU counters, accrued runtimes, pending control ops."
)
class SimThread:
    """One schedulable thread.

    Ground-truth architectural counters are kept per PMU name (i.e. per
    core type the thread has run on) — the reference the perf/PAPI stack
    is validated against.
    """

    def __init__(
        self,
        name: str,
        source,
        affinity: Optional[set[int]] = None,
        weight: float = 1.0,
    ):
        self.name = name
        self.source = source
        self.affinity = set(affinity) if affinity is not None else None
        self.weight = weight

        self.tid: int = -1              # assigned by the engine
        self.state = ThreadState.NEW
        self.cpu: Optional[int] = None   # current CPU while RUNNING
        self.last_cpu: Optional[int] = None
        self.current_phase: Optional[WorkPhase] = None
        self.wake_at_s: Optional[float] = None

        self.counters: dict[str, np.ndarray] = {}
        self.runtime_s: dict[str, float] = {}
        self.total_runtime_s = 0.0
        self.spin_time_s = 0.0
        self.nr_switches = 0
        self.nr_migrations = 0
        self.vruntime = 0.0

        self._injected: deque[WorkPhase] = deque()

    # -- work delivery -----------------------------------------------------

    def inject(self, phase: WorkPhase) -> None:
        """Queue a phase to run before the source's next phase."""
        self._injected.append(phase)

    def inject_overhead(self, instructions: float) -> None:
        """Charge overhead work (library code, syscall entry/exit)."""
        if instructions > 0:
            self._injected.append(
                ComputePhase(instructions, constant_rates(OVERHEAD_RATES), label="overhead")
            )

    def take_next(self) -> WorkPhase | ControlOp | None:
        if self._injected:
            return self._injected.popleft()
        return self.source.next_phase(self)

    # -- accounting --------------------------------------------------------

    def account(
        self, pmu_name: str, values: np.ndarray, time_s: float, rec=None
    ) -> None:
        buf = self.counters.get(pmu_name)
        if buf is None:
            buf = np.zeros(N_ARCH_EVENTS, dtype=np.float64)
            self.counters[pmu_name] = buf
        buf += values
        self.runtime_s[pmu_name] = self.runtime_s.get(pmu_name, 0.0) + time_s
        self.total_runtime_s += time_s
        if rec is not None:
            rec.vec(buf, values)
            rec.dict_add(self.runtime_s, pmu_name, time_s)
            rec.rt_add(self, time_s)

    def counters_total(self) -> np.ndarray:
        total = np.zeros(N_ARCH_EVENTS, dtype=np.float64)
        for buf in self.counters.values():
            total += buf
        return total

    def allowed_on(self, cpu_id: int) -> bool:
        return self.affinity is None or cpu_id in self.affinity

    @property
    def done(self) -> bool:
        return self.state is ThreadState.DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimThread({self.name!r}, tid={self.tid}, {self.state.value}, cpu={self.cpu})"
