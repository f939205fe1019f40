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
from repro.hw.coretype import ArchEvent, CoreType, N_ARCH_EVENTS
from repro.sim.workload import ComputePhase, PhaseRates, WorkPhase, arch_event_rates, constant_rates


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


#: Rates used for injected overhead work (library/syscall code: scalar,
#: branchy, cache-resident).
OVERHEAD_RATES = PhaseRates(ipc=1.6, branches_per_instr=0.2, branch_miss_rate=0.02)

#: Buckets a thread's ledger holds before they settle into its counters.
LEDGER_CAP = 64

#: Plain-int index of the time-based event slot (IntEnum indexing converts).
_REF_CYCLES = int(ArchEvent.REF_CYCLES)


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
        "_counters",
        "_ledger",
        "runtime_s",
        "total_runtime_s",
        "spin_time_s",
        "nr_switches",
        "nr_migrations",
        "_injected",
    ),
    note="Everything is state: run/ready/blocked status, the in-flight "
    "phase (including closure-captured coordinators and barriers), "
    "per-PMU counters (the accounting ledger settles first, so it is "
    "always empty here), accrued runtimes, pending control ops."
)
class SimThread:
    """One schedulable thread.

    Ground-truth architectural counters are kept per PMU name (i.e. per
    core type the thread has run on) — the reference the perf/PAPI stack
    is validated against.  :meth:`account` defers the event vectors to a
    small ledger; reading :attr:`counters` settles it first.
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

        self._counters: dict[str, np.ndarray] = {}
        #: Accounted buckets not yet added into ``_counters``, in order:
        #: (core type, rates, instructions, reference cycles).
        self._ledger: list[tuple] = []
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
        self,
        ct: CoreType,
        rates: PhaseRates,
        instr: float,
        ref_cycles: float,
        time_s: float,
        rec=None,
    ) -> None:
        """Credit ``instr`` instructions at ``rates`` and ``ref_cycles``
        TSC cycles in ``time_s`` seconds on a ``ct`` core.  Runtimes update
        at once and the event vector joins the ledger, except in a recorded
        tick (``rec``), which settles and adds eagerly for the recorder."""
        pmu_name = ct.pmu_name
        self.runtime_s[pmu_name] = self.runtime_s.get(pmu_name, 0.0) + time_s
        self.total_runtime_s += time_s
        ledger = self._ledger
        if rec is None:
            ledger.append((ct, rates, instr, ref_cycles))
            if len(ledger) >= LEDGER_CAP:
                self._settle()
            return
        if ledger:
            self._settle()
        buf = self._counters.setdefault(pmu_name, np.zeros(N_ARCH_EVENTS))
        v = arch_event_rates(ct, rates) * instr
        v[_REF_CYCLES] = ref_cycles
        buf += v
        rec.vec(buf, v)
        rec.dict_add(self.runtime_s, pmu_name, time_s)
        rec.rt_add(self, time_s)

    def _settle(self) -> None:
        """Add the ledger's buckets into ``_counters``, in ledger order.

        A bucket's vector is its own rate vector times its own
        instructions, its reference cycles in ``REF_CYCLES``.  Each event
        row of a PMU's block holds the buffer then the vectors, and
        ``np.add.accumulate`` along it rounds every partial sum exactly as
        sequential ``buf += v`` adds do (``sum`` adds in pairs).  The
        buffer is updated in place, so a recorder's reference stays live.
        """
        ledger = self._ledger
        if not ledger:
            return
        cols: dict = {}     # (id(ct), id(rates)) -> column of `vecs`
        vecs: list = []
        groups: dict = {}   # PMU name -> (columns, instructions, ref cycles)
        run_ct = run_rates = None
        for ct, rates, instr, ref_cycles in ledger:
            # Consecutive buckets mostly share a pair: resolve it per run.
            if rates is not run_rates or ct is not run_ct:
                run_ct, run_rates = ct, rates
                key = (id(ct), id(rates))
                col = cols.get(key)
                if col is None:
                    col = cols[key] = len(vecs)
                    vecs.append(arch_event_rates(ct, rates))
                group = groups.get(ct.pmu_name)
                if group is None:
                    group = groups[ct.pmu_name] = ([], [], [])
                idx, instrs, refs = group
            idx.append(col)
            instrs.append(instr)
            refs.append(ref_cycles)
        ledger.clear()
        by_event = np.array(vecs).T
        for pmu_name, (idx, instrs, refs) in groups.items():
            buf = self._counters.setdefault(pmu_name, np.zeros(N_ARCH_EVENTS))
            block = np.empty((N_ARCH_EVENTS, len(idx) + 1))
            block[:, 0] = buf
            np.multiply(by_event.take(idx, axis=1), instrs, out=block[:, 1:])
            block[_REF_CYCLES, 1:] = refs
            np.add.accumulate(block, axis=1, out=block)
            buf[:] = block[:, -1]

    @property
    def counters(self) -> dict[str, np.ndarray]:
        """Ground-truth counters per PMU name, with the ledger settled."""
        if self._ledger:
            self._settle()
        return self._counters

    def counters_total(self) -> np.ndarray:
        total = np.zeros(N_ARCH_EVENTS, dtype=np.float64)
        for buf in self.counters.values():
            total += buf
        return total

    def __getstate__(self) -> dict:
        self._settle()
        return self.__dict__

    def allowed_on(self, cpu_id: int) -> bool:
        return self.affinity is None or cpu_id in self.affinity

    @property
    def done(self) -> bool:
        return self.state is ThreadState.DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimThread({self.name!r}, tid={self.tid}, {self.state.value}, cpu={self.cpu})"
