"""Work phases: the unit of simulated execution.

A thread's life is a sequence of phases.  A :class:`ComputePhase` retires a
fixed number of instructions whose per-core-type execution rates come from
a ``rates_fn`` — this is where microarchitecture differences (IPC, SIMD
width, LLC behaviour) enter.  A :class:`SpinPhase` models busy-waiting at a
synchronization barrier (retiring spin-loop instructions and burning
power); a :class:`SleepPhase` blocks the thread off-CPU.

:class:`SpinBarrier` is the synchronization primitive the HPL workload
model uses between panel steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from repro.hw.coretype import ArchEvent, CoreType, N_ARCH_EVENTS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.task import SimThread

#: Intel's top-down pipeline width (slots per cycle) on Golden Cove.
TOPDOWN_SLOTS_PER_CYCLE = 6


@dataclass
class PhaseRates:
    """Execution rates of one phase on one core type.

    ``ipc`` is the *effective* retired-instruction rate (memory stalls
    already folded in — use :func:`repro.hw.cache.memory_stall_cycles` when
    deriving it).  The remaining fields translate retired instructions into
    the other architectural events.
    """

    ipc: float
    flops_per_instr: float = 0.0
    llc_refs_per_instr: float = 0.0
    llc_miss_rate: float = 0.0
    l2_refs_per_instr: float = 0.0
    l2_miss_rate: float = 0.0
    branches_per_instr: float = 0.05
    branch_miss_rate: float = 0.01

    def __post_init__(self) -> None:
        if self.ipc <= 0:
            raise ValueError("ipc must be positive")


RatesFn = Callable[[CoreType], PhaseRates]


def constant_rates(rates: PhaseRates) -> RatesFn:
    """A rates function that ignores the core type."""
    return lambda ctype: rates


def arch_event_rates(ct: CoreType, rates: PhaseRates) -> np.ndarray:
    """Per-instruction architectural event rates of a phase on ``ct``.

    This is *the* translation from :class:`PhaseRates` to the 14-slot
    architectural event vector — both the engine's accounting (a
    thread's ledger, the perf hook's memo) and the validation oracle
    call it, so measured counters and analytic expectations are two
    integrals of the same function.  ``REF_CYCLES`` is time-based, not
    instruction-based; its slot stays zero here and is set from seconds
    by the caller (accounting / oracle runtime).  A list converted once
    fills faster than numpy item assignment.
    """
    v = [0.0] * N_ARCH_EVENTS
    cycles_per_instr = 1.0 / rates.ipc
    v[ArchEvent.CYCLES] = cycles_per_instr
    v[ArchEvent.INSTRUCTIONS] = 1.0
    v[ArchEvent.FP_OPS] = rates.flops_per_instr
    v[ArchEvent.LLC_REFERENCES] = rates.llc_refs_per_instr
    v[ArchEvent.LLC_MISSES] = rates.llc_refs_per_instr * rates.llc_miss_rate
    v[ArchEvent.L2_REFERENCES] = rates.l2_refs_per_instr
    v[ArchEvent.L2_MISSES] = rates.l2_refs_per_instr * rates.l2_miss_rate
    v[ArchEvent.BRANCHES] = rates.branches_per_instr
    v[ArchEvent.BRANCH_MISSES] = (
        rates.branches_per_instr * rates.branch_miss_rate
    )
    v[ArchEvent.STALLED_CYCLES] = max(
        0.0, cycles_per_instr - 1.0 / ct.ipc
    )
    if ct.supports_event(ArchEvent.TOPDOWN_SLOTS):
        v[ArchEvent.TOPDOWN_SLOTS] = (
            cycles_per_instr * TOPDOWN_SLOTS_PER_CYCLE
        )
    return np.array(v, dtype=np.float64)


class WorkPhase:
    """Base class; engine dispatches on the concrete type."""

    __slots__ = ()


class ComputePhase(WorkPhase):
    """Retire ``instructions`` instructions, then optionally call back."""

    __slots__ = ("remaining", "total", "rates_fn", "on_complete", "label")

    def __init__(
        self,
        instructions: float,
        rates_fn: RatesFn,
        on_complete: Optional[Callable[["SimThread"], None]] = None,
        label: str = "compute",
    ):
        if instructions <= 0:
            raise ValueError("a compute phase needs a positive instruction count")
        self.remaining = float(instructions)
        self.total = float(instructions)
        self.rates_fn = rates_fn
        self.on_complete = on_complete
        self.label = label

    @property
    def done(self) -> bool:
        return self.remaining <= 0.0

    def expected_counts(self, ct: CoreType) -> np.ndarray:
        """Analytic event expectations for running this phase on ``ct``.

        The ground-truth surface of the validation oracle: the event
        vector the engine will account for this phase, computed without
        running anything.  ``REF_CYCLES`` is time-based and stays zero
        (the oracle patches it from measured runtime).
        """
        return arch_event_rates(ct, self.rates_fn(ct)) * self.total


class ChunkStream(WorkPhase):
    """A stream of equal-grain compute chunks claimed from a shared pool.

    Work-stealing runtimes (the dynamic phase of Intel's HPL build) hand
    out many small chunks from one shared pool.  Modelling each chunk as
    its own :class:`ComputePhase` makes every claim a phase boundary —
    thousands of phase objects and closure allocations per simulated
    second, all on the engine's hot path.  A ``ChunkStream`` instead
    exposes the pool itself (``pool[index]``), the claim ``grain`` and
    the flops→instruction conversion, so the engine executes the whole
    claim-execute loop fused, with the *same* arithmetic a chunk-per-
    phase run performs: ``take = min(grain, pool)``, ``pool -= take``,
    ``instructions = max(1.0, take / flops_per_instr)``.

    The pool is shared mutable state across threads, so a tick that
    claims from it is never replayable; the engine kills the
    tick recorder when a stream executes.  ``on_claimed`` (if given) is
    called once per executed slice with the flops claimed in that slice.

    The stream is finished when its current chunk is exhausted and the
    pool is drained (possibly by other threads).
    """

    __slots__ = (
        "pool",
        "index",
        "grain",
        "rates_fn",
        "flops_per_instr",
        "on_claimed",
        "remaining",
        "label",
    )

    def __init__(
        self,
        pool: list,
        index: int,
        grain: float,
        rates_fn: RatesFn,
        flops_per_instr: float,
        on_claimed: Optional[Callable[[float], None]] = None,
        label: str = "chunk-stream",
    ):
        if grain <= 0:
            raise ValueError("a chunk stream needs a positive grain")
        if flops_per_instr <= 0:
            raise ValueError("flops_per_instr must be positive")
        self.pool = pool
        self.index = index
        self.grain = float(grain)
        self.rates_fn = rates_fn
        self.flops_per_instr = float(flops_per_instr)
        self.on_claimed = on_claimed
        #: Instructions left in the chunk claimed but not yet retired.
        self.remaining = 0.0
        self.label = label

    @property
    def done(self) -> bool:
        return self.remaining <= 0.0 and self.pool[self.index] <= 0.0


#: Spin loops retire mostly test-and-branch (and pause) instructions;
#: a tight register-resident loop sustains high retirement rates.
SPIN_RATES = PhaseRates(
    ipc=3.0,
    flops_per_instr=0.0,
    llc_refs_per_instr=0.0,
    branches_per_instr=0.45,
    branch_miss_rate=0.001,
)


class SpinPhase(WorkPhase):
    """Busy-wait until ``until()`` turns true (checked each tick)."""

    __slots__ = ("until", "label")

    def __init__(self, until: Callable[[], bool], label: str = "spin"):
        self.until = until
        self.label = label


class SleepPhase(WorkPhase):
    """Block off-CPU until ``until()`` turns true or for a duration."""

    __slots__ = ("until", "wake_at_s", "label")

    def __init__(
        self,
        until: Optional[Callable[[], bool]] = None,
        duration_s: Optional[float] = None,
        label: str = "sleep",
    ):
        if until is None and duration_s is None:
            raise ValueError("sleep needs a wake condition or a duration")
        self.until = until
        self.wake_at_s = duration_s  # engine converts to absolute time
        self.label = label


class SpinBarrier:
    """A generational barrier.

    Threads call :meth:`arrive`; the barrier releases a generation once
    ``parties`` arrivals are in.  ``wait_phase`` returns the phase a thread
    should execute while waiting (spin by default, matching BLAS runtime
    behaviour with active waiting).
    """

    def __init__(self, parties: int, spin: bool = True):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.parties = parties
        self.spin = spin
        self.generation = 0
        self._arrived = 0

    def arrive(self) -> None:
        self._arrived += 1
        if self._arrived >= self.parties:
            self._arrived = 0
            self.generation += 1

    def wait_phase(self) -> WorkPhase:
        gen = self.generation
        cond = lambda: self.generation != gen  # noqa: E731
        if self.spin:
            return SpinPhase(until=cond, label="barrier-spin")
        return SleepPhase(until=cond, label="barrier-sleep")
