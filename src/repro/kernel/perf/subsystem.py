"""``perf_event_open`` and friends.

:class:`PerfSubsystem` is the syscall surface: ``perf_event_open``,
``ioctl`` (enable/disable/reset, optionally group-wide), ``read`` and
``close``.  It validates requests the way Linux does — in particular the
rules the paper's PAPI redesign has to live with:

* an event group may not mix CPU PMU types (EINVAL);
* a CPU-PMU event bound to a CPU the PMU does not cover is rejected;
* generic ``PERF_TYPE_HARDWARE`` events on a hybrid machine either carry
  the target PMU in the high config bits or fall through to the boot
  CPU's PMU.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.checkpoint.surface import snapshot_surface
from repro.hw.coretype import ArchEvent
from repro.hw.sensor import SensorReadError
from repro.hw.topology import Core
from repro.kernel.errno import Errno, KernelError
from repro.kernel.perf.attr import PerfEventAttr, PerfType, ReadFormat
from repro.kernel.perf.event import KernelPerfEvent, PerfReadValue
from repro.kernel.perf.pmu import (
    GENERIC_HW_MAP,
    KernelPmu,
    PmuKind,
    PmuRegistry,
    RAPL_CONFIG_CORES,
    RAPL_CONFIG_PKG,
    RAPL_CONFIG_RAM,
    RAPL_PERF_UNIT_J,
)
from repro.kernel.perf.attr import SwConfig
from repro.kernel.syscall_cost import SyscallCostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Machine
    from repro.sim.task import SimThread
    from repro.sim.workload import PhaseRates

#: Plain ints of the flag and event slot the hot paths test (IntFlag and
#: IntEnum arithmetic builds enum members per use).
_READ_GROUP = int(ReadFormat.GROUP)
_REF_CYCLES = int(ArchEvent.REF_CYCLES)

#: How often the kernel rotates multiplexed event groups (per-thread
#: runtime clock), matching the scheduler-tick-driven rotation in Linux.
MUX_ROTATION_PERIOD_S = 0.004


class PerfIoctl(enum.Enum):
    ENABLE = "enable"
    DISABLE = "disable"
    RESET = "reset"


@dataclass
class PerfFd:
    fd: int
    event: KernelPerfEvent


class _DispatchEntry:
    """Cached per-(thread, core PMU type) multiplexing decision.

    ``static_active`` is the full active-leader set when no rotation is
    needed (everything fits the counter budget) — the common case, making
    dispatch a dict lookup.  Otherwise ``base_active`` holds the always-on
    leaders (software/foreign-PMU groups plus granted pinned groups) and
    ``rotating`` the round-robin queue; :meth:`slot` maps a thread's
    runtime to its rotation slot and :meth:`window` a slot to its active
    set, memoizing the last.  The perf hook and the event engine's spans
    (which switch the rotating events' increments at each slot change)
    both call them.  Entries are invalidated wholesale by bumping the
    subsystem's ``_dispatch_gen`` on open/close/ioctl/reserve.
    """

    __slots__ = (
        "gen",
        "static_active",
        "base_active",
        "rotating",
        "budget",
        "last_slot",
        "last_active",
    )

    def __init__(self, gen: int):
        self.gen = gen
        self.static_active: Optional[set] = None
        self.base_active: Optional[set] = None
        self.rotating: Optional[list] = None
        self.budget = 0
        self.last_slot = -1
        self.last_active: Optional[set] = None

    def slot(self, runtime_s: float) -> int:
        """The rotation slot a thread that has run ``runtime_s`` is in."""
        return int(runtime_s / MUX_ROTATION_PERIOD_S) % len(self.rotating)

    def window(self, slot: int) -> set:
        """The active leaders at rotation ``slot``: the always-on ones,
        then rotating groups from ``slot`` on while they fit the budget
        (memoized on the slot)."""
        if slot == self.last_slot:
            return self.last_active
        rotating = self.rotating
        n = len(rotating)
        active = set(self.base_active)
        budget = self.budget
        for i in range(n):
            ev = rotating[(slot + i) % n]
            need = ev.hw_counters_needed()
            if need <= budget:
                active.add(ev)
                budget -= need
            else:
                break
        self.last_slot = slot
        self.last_active = active
        return active


@snapshot_surface(
    state=(
        "machine",
        "registry",
        "cost",
        "_fds",
        "_next_fd",
        "_next_event_id",
        "_thread_events",
        "_cpuwide_events",
        "_uncore_events",
        "_rapl_events",
        "_cpu_pmu_type",
        "_reserved",
        "_fault_budgets",
        "_dispatch_gen",
        "_mux_traced",
        "_mismatch_traced",
    ),
    caches=("_dispatch",),
    rebuild="_init_snapshot_caches",
    digest_exclude=("_mux_traced", "_mismatch_traced"),
    note=(
        "Multiplexing dispatch entries are generation-tagged memos "
        "rebuilt on first use; everything else — fd table, next fd and "
        "event id, event contexts with counts and enabled/running "
        "clocks, rotation state via thread runtime, reserved counters, "
        "fault budgets, the dispatch generation itself — is genuine "
        "kernel state.  "
        "The last-traced rotation slots and mismatch flags are "
        "serialized (a restored run must not re-emit old transitions) "
        "but digest-excluded: they only exist to deduplicate trace "
        "emission and must not break trace-on/off digest parity."
    ),
)
class PerfSubsystem:
    """The kernel perf_event layer of one machine."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.registry = PmuRegistry.for_machine(machine)
        self.cost = SyscallCostModel()
        self._fds: dict[int, KernelPerfEvent] = {}
        self._next_fd = 3
        # Event ids are per kernel, like fds: two machines built alike
        # hand out the same ids, and a restored one continues its own.
        self._next_event_id = 1
        self._thread_events: dict[int, list[KernelPerfEvent]] = {}
        self._cpuwide_events: dict[int, list[KernelPerfEvent]] = {}
        self._uncore_events: list[KernelPerfEvent] = []
        self._rapl_events: list[KernelPerfEvent] = []
        # cpu_id -> PMU type number, for the hot accrual path.
        self._cpu_pmu_type = [
            self.registry.by_name[c.ctype.pmu_name].type
            for c in machine.topology.cores
        ]
        # Hardware counters stolen from each PMU by outside users (the
        # classic case: the NMI watchdog pins one fixed counter); shrinks
        # the budget groups and the multiplexer can use.
        self._reserved: dict[int, int] = {}
        # Indexed dispatch: (tid, core_pmu_type) -> _DispatchEntry, valid
        # while its generation matches (bumped by any state-changing call).
        self._init_snapshot_caches()
        self._dispatch_gen = 0
        # Injected transient syscall failures: list of [ops, errno, left]
        # budgets consumed by _maybe_fail (fault-injection hook).
        self._fault_budgets: list[list] = []
        # Trace-emission dedup state: last emitted rotation slot per
        # (tid, pmu type) and current PMU-mismatch flag per event id.
        # Events fire only on transitions, which by construction happen
        # on ticks the event engine runs live (see repro.trace).
        self._mux_traced: dict[tuple[int, int], int] = {}
        self._mismatch_traced: dict[int, bool] = {}
        machine.account_hooks.append(self._account)
        machine.tick_hooks.append(self._on_tick)
        machine.hotplug_hooks.append(self._on_hotplug)
        # Both hooks record their per-tick effects through the tick
        # recorder, so the event engine may replay over them.
        machine.mark_hook_fastpath_safe(self._account)
        machine.mark_hook_fastpath_safe(self._on_tick)

    def _init_snapshot_caches(self) -> None:
        self._dispatch: dict[tuple[int, int], _DispatchEntry] = {}

    def reserve_counters(self, pmu_name: str, n: int) -> None:
        """Model an external consumer (e.g. the NMI watchdog) holding
        ``n`` hardware counters of ``pmu_name``."""
        pmu = self.registry.by_name[pmu_name]
        if n < 0 or n > pmu.n_counters + pmu.n_fixed:
            raise ValueError(
                f"cannot reserve {n} of {pmu.n_counters + pmu.n_fixed} counters"
            )
        self._reserved[pmu.type] = n
        self._dispatch_gen += 1

    def _budget(self, pmu: KernelPmu) -> int:
        return pmu.n_counters + pmu.n_fixed - self._reserved.get(pmu.type, 0)

    # ----------------------------------------------------------- fault hooks

    def inject_syscall_failures(
        self,
        errno_: Errno,
        count: int,
        ops: tuple[str, ...] = ("perf_event_open", "ioctl"),
    ) -> None:
        """Make the next ``count`` matching syscalls fail transiently.

        Models EBUSY/EINTR storms: each failing call consumes one unit of
        the budget, so a bounded-retry caller eventually gets through.
        """
        if count > 0:
            self._fault_budgets.append([frozenset(ops), errno_, count])

    def _maybe_fail(self, op: str) -> None:
        for budget in self._fault_budgets:
            ops, errno_, left = budget
            if op in ops and left > 0:
                budget[2] = left - 1
                if budget[2] == 0:
                    self._fault_budgets.remove(budget)
                raise KernelError(errno_, f"injected transient {op} failure")

    def _on_hotplug(self, cpu_id: int, online: bool) -> None:
        """Park/resume events whose target CPU changed hotplug state.

        Thread-bound events follow their thread (which migrates off a
        dead CPU), so only CPU-bound events need parking.  Dispatch
        entries are invalidated wholesale — the scheduler may now place
        threads on a different core type.
        """
        self._dispatch_gen += 1
        for ev in self._cpuwide_events.get(cpu_id, []):
            ev.parked = not online

    # ------------------------------------------------------------------ open

    def perf_event_open(
        self,
        attr: PerfEventAttr,
        pid: int,
        cpu: int,
        group_fd: int = -1,
        flags: int = 0,
        caller: Optional["SimThread"] = None,
    ) -> int:
        self.cost.charge(caller, "perf_event_open")
        self._maybe_fail("perf_event_open")
        if pid == -1 and cpu == -1:
            raise KernelError(Errno.EINVAL, "pid == -1 requires cpu >= 0")

        pmu, arch_event, rapl_domain = self._resolve(attr)

        target_tid: Optional[int] = None
        target_cpu: Optional[int] = None
        if pid >= 0:
            try:
                self.machine.thread_by_tid(pid)
            except KeyError:
                raise KernelError(Errno.ESRCH, f"no such thread {pid}") from None
            target_tid = pid
        else:
            if not 0 <= cpu < self.machine.topology.n_cpus:
                raise KernelError(Errno.EINVAL, f"no such cpu {cpu}")
            if pmu.kind is PmuKind.CPU and cpu not in pmu.cpus:
                raise KernelError(
                    Errno.EINVAL,
                    f"PMU {pmu.name} does not cover cpu {cpu} "
                    f"(covers {pmu.cpus})",
                )
            if pmu.kind is PmuKind.CPU and not self.machine.topology.core(cpu).online:
                raise KernelError(Errno.ENODEV, f"cpu {cpu} is offline")
            target_cpu = cpu

        leader: Optional[KernelPerfEvent] = None
        if group_fd != -1:
            leader = self._fds.get(group_fd)
            if leader is None:
                raise KernelError(Errno.EBADF, f"bad group_fd {group_fd}")
            if not leader.is_group_leader:
                raise KernelError(Errno.EINVAL, "group_fd is not a group leader")
            if (leader.target_tid, leader.target_cpu) != (target_tid, target_cpu):
                raise KernelError(
                    Errno.EINVAL, "group members must share the leader's target"
                )
            self._check_group_compatible(leader, pmu)

        event = KernelPerfEvent(
            self._next_event_id,
            attr=attr,
            pmu=pmu,
            target_tid=target_tid,
            target_cpu=target_cpu,
            group_leader=leader,
            arch_event=arch_event,
        )
        self._next_event_id += 1
        if rapl_domain is not None:
            event._rapl_domain = rapl_domain  # type: ignore[attr-defined]

        if leader is not None and pmu.kind is PmuKind.CPU:
            if leader.hw_counters_needed() > self._budget(pmu):
                leader.siblings.remove(event)
                raise KernelError(
                    Errno.EINVAL,
                    f"group exceeds {pmu.name}'s "
                    f"{self._budget(pmu)} available hardware counters",
                )

        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = event
        self._dispatch_gen += 1
        if target_tid is not None:
            self._thread_events.setdefault(target_tid, []).append(event)
        elif pmu.kind is PmuKind.UNCORE:
            self._uncore_events.append(event)
        elif pmu.kind is PmuKind.RAPL:
            self._rapl_events.append(event)
        else:
            self._cpuwide_events.setdefault(target_cpu, []).append(event)
        if not attr.disabled:
            self._arm(event)
        tr = self.machine.tracer
        if tr is not None and tr.perf:
            tr.emit(
                "perf",
                "open",
                tid=target_tid,
                cpu=target_cpu,
                args={"fd": fd, "id": event.id, "pmu": pmu.name},
            )
            tr.metrics.counter("perf.opens", key=pmu.name)
        return fd

    def _resolve(
        self, attr: PerfEventAttr
    ) -> tuple[KernelPmu, Optional[ArchEvent], Optional[object]]:
        """Map attr -> (pmu, architectural event, rapl domain)."""
        if attr.type == PerfType.HARDWARE:
            hint = attr.pmu_type_hint()
            if hint is not None:
                pmu = self.registry.by_type.get(hint)
                if pmu is None or pmu.kind is not PmuKind.CPU:
                    raise KernelError(
                        Errno.ENOENT, f"no CPU PMU with type {hint}"
                    )
            else:
                pmu = self.registry.default_cpu_pmu()
            base = attr.base_config()
            arch = GENERIC_HW_MAP.get(base)
            if arch is None:
                raise KernelError(
                    Errno.EINVAL, f"unknown generic hardware event {base:#x}"
                )
            if arch not in pmu.decode.values():
                raise KernelError(
                    Errno.EINVAL,
                    f"{pmu.name} cannot count {arch.name}",
                )
            return pmu, arch, None

        if attr.type == PerfType.SOFTWARE:
            pmu = self.registry.by_type[int(PerfType.SOFTWARE)]
            if attr.config not in pmu.decode:
                raise KernelError(
                    Errno.EINVAL, f"unsupported software event {attr.config:#x}"
                )
            return pmu, pmu.decode[attr.config], None

        pmu = self.registry.by_type.get(attr.type)
        if pmu is None:
            raise KernelError(Errno.ENOENT, f"no PMU with type {attr.type}")
        if pmu.kind is PmuKind.RAPL:
            if attr.config not in (
                RAPL_CONFIG_PKG,
                RAPL_CONFIG_CORES,
                RAPL_CONFIG_RAM,
            ):
                raise KernelError(
                    Errno.EINVAL, f"unknown RAPL event {attr.config:#x}"
                )
            rapl = self.machine.rapl
            domain = {
                RAPL_CONFIG_PKG: rapl.package,
                RAPL_CONFIG_CORES: rapl.cores,
                RAPL_CONFIG_RAM: rapl.dram,
            }[attr.config]
            return pmu, None, domain
        if not pmu.decodes(attr.base_config()):
            raise KernelError(
                Errno.EINVAL,
                f"PMU {pmu.name} does not decode config {attr.base_config():#x}",
            )
        return pmu, pmu.arch_event(attr.base_config()), None

    def _check_group_compatible(self, leader: KernelPerfEvent, pmu: KernelPmu) -> None:
        """Software events may join any group; everything else must match PMUs."""
        if pmu.kind is PmuKind.SOFTWARE:
            return
        for member in leader.group_events():
            if member.pmu.kind is PmuKind.SOFTWARE:
                continue
            if member.pmu.type != pmu.type:
                raise KernelError(
                    Errno.EINVAL,
                    f"cannot group {pmu.name} event with {member.pmu.name} "
                    "event: event groups cannot span PMUs",
                )

    # ---------------------------------------------------------------- ioctls

    def ioctl(
        self,
        fd: int,
        op: PerfIoctl,
        flag_group: bool = False,
        caller: Optional["SimThread"] = None,
    ) -> None:
        self.cost.charge(caller, "ioctl")
        self._maybe_fail("ioctl")
        self._dispatch_gen += 1
        event = self._event(fd)
        targets = event.group_events() if flag_group else [event]
        for ev in targets:
            if op is PerfIoctl.ENABLE:
                self._arm(ev)
            elif op is PerfIoctl.DISABLE:
                ev.disable()
            elif op is PerfIoctl.RESET:
                ev.reset()
                self._rebase(ev)
        tr = self.machine.tracer
        if tr is not None and tr.perf:
            tr.emit(
                "perf",
                op.value,
                tid=event.target_tid,
                cpu=event.target_cpu,
                args={"fd": fd, "id": event.id, "group": flag_group},
            )

    def _arm(self, ev: KernelPerfEvent) -> None:
        ev.enable()
        self._rebase(ev)

    def _rebase(self, ev: KernelPerfEvent) -> None:
        """Snapshot baselines for events counted by differencing."""
        if ev.pmu.kind is PmuKind.SOFTWARE and ev.target_tid is not None:
            ev._sw_base = self._sw_stat(ev)
        if ev.pmu.kind is PmuKind.RAPL:
            try:
                ev._rapl_base = ev._rapl_domain.visible_energy_j()  # type: ignore[attr-defined]
            except SensorReadError:
                # Sensor dropout at enable time: keep the previous
                # baseline (stale rebase) rather than failing the ioctl.
                pass

    def _sw_stat(self, ev: KernelPerfEvent) -> float:
        thread = self.machine.thread_by_tid(ev.target_tid)
        if ev.attr.config == SwConfig.CONTEXT_SWITCHES:
            return float(thread.nr_switches)
        if ev.attr.config == SwConfig.CPU_MIGRATIONS:
            return float(thread.nr_migrations)
        if ev.attr.config in (SwConfig.CPU_CLOCK, SwConfig.TASK_CLOCK):
            # On-CPU time (spinning included), in nanoseconds like Linux.
            return thread.total_runtime_s * 1e9
        return 0.0

    # ------------------------------------------------------------------ read

    def read(
        self, fd: int, caller: Optional["SimThread"] = None
    ) -> PerfReadValue | list[PerfReadValue]:
        event = self._event(fd)
        group = event.wants(_READ_GROUP)
        self.cost.charge(caller, "read_group" if group else "read")
        self._maybe_fail("read")
        tr = self.machine.tracer
        if tr is not None and not tr.perf:
            tr = None
        if group:
            return [self._materialize(ev, tr) for ev in event.group_events()]
        return self._materialize(event, tr)

    def _materialize(self, ev: KernelPerfEvent, tr=None) -> PerfReadValue:
        if ev.pmu.kind is PmuKind.SOFTWARE and ev.target_tid is not None:
            base = ev._sw_base if ev._sw_base is not None else 0.0
            ev.count = self._sw_stat(ev) - base
        elif ev.pmu.kind is PmuKind.RAPL:
            base = ev._rapl_base if ev._rapl_base is not None else 0.0
            try:
                joules = ev._rapl_domain.visible_energy_j() - base  # type: ignore[attr-defined]
            except SensorReadError as exc:
                raise KernelError(Errno.EIO, str(exc)) from exc
            ev.count = joules / RAPL_PERF_UNIT_J
        rv = ev.read_value()
        if tr is not None:
            tr.emit(
                "perf",
                "read",
                tid=ev.target_tid,
                cpu=ev.target_cpu,
                args={
                    "id": ev.id,
                    "pmu": ev.pmu.name,
                    "value": rv.value,
                    "enabled_ns": rv.time_enabled_ns,
                    "running_ns": rv.time_running_ns,
                },
            )
        return rv

    def close(self, fd: int, caller: Optional["SimThread"] = None) -> None:
        self.cost.charge(caller, "close")
        event = self._fds.pop(fd, None)
        if event is None:
            raise KernelError(Errno.EBADF, f"bad fd {fd}")
        event.closed = True
        event.disable()
        self._dispatch_gen += 1
        tr = self.machine.tracer
        if tr is not None and tr.perf:
            tr.emit(
                "perf",
                "close",
                tid=event.target_tid,
                cpu=event.target_cpu,
                args={"fd": fd, "id": event.id},
            )
        # Detach from the group so GROUP reads and hw_counters_needed()
        # stop seeing the closed event; closing a leader upgrades its
        # siblings to singleton events, as Linux's perf_group_detach does.
        leader = event.group_leader
        if leader is not event:
            if event in leader.siblings:
                leader.siblings.remove(event)
            event.group_leader = event
        elif event.siblings:
            for sibling in event.siblings:
                sibling.group_leader = sibling
            event.siblings = []
        for bucket in (
            self._thread_events.get(event.target_tid or -2, []),
            self._cpuwide_events.get(
                event.target_cpu if event.target_cpu is not None else -2, []
            ),
            self._uncore_events,
            self._rapl_events,
        ):
            if event in bucket:
                bucket.remove(event)

    def _event(self, fd: int) -> KernelPerfEvent:
        ev = self._fds.get(fd)
        if ev is None:
            raise KernelError(Errno.EBADF, f"bad fd {fd}")
        return ev

    # ------------------------------------------------------------- accounting

    def _account(
        self,
        thread: "SimThread",
        core: Core,
        rates: PhaseRates,
        instr: float,
        ref_cycles: float,
        time_s: float,
    ) -> None:
        if not self._fds:
            return  # nothing has ever been opened (or all fds closed)
        cpu_id = core.cpu_id
        events = self._thread_events.get(thread.tid)
        cpuwide = self._cpuwide_events.get(cpu_id)
        uncore = self._uncore_events
        if not events and not cpuwide and not uncore:
            return
        # The bucket's event vector, built once for every event credited.
        values = self.machine._rate_vec(core.ctype, rates) * instr
        values[_REF_CYCLES] = ref_cycles
        rec = self.machine._rec
        tr = self.machine.tracer
        if tr is not None and not tr.perf:
            tr = None
        if events:
            core_pmu_type = self._cpu_pmu_type[cpu_id]
            entry = self._dispatch_entry(thread.tid, core_pmu_type, events)
            active = entry.static_active
            if active is None:
                slot, active = self._rotated_active(entry, thread, tr)
                if rec is not None:
                    # A span switches the rotating events' increments at
                    # each later slot, unless every rotation must be
                    # traced on the tick it happens.
                    cells = None
                    if tr is None:
                        cells = self._rotating_cells(
                            entry, events, core_pmu_type, values, time_s
                        )
                    rec.mux_guard(thread, entry, slot, cells)
            now_s = self.machine.clock.now_s
            if tr is not None:
                self._note_pmu_mismatches(events, core_pmu_type, cpu_id, tr)
            for ev in events:
                ev.accrue(
                    core_pmu_type,
                    values,
                    time_s,
                    counting_allowed=ev.group_leader in active,
                    now_s=now_s,
                    cpu=cpu_id,
                    rec=rec,
                    tracer=tr,
                )
        if cpuwide:
            for ev in cpuwide:
                ev.accrue_cpuwide(values, rec)
        for ev in uncore:
            ev.accrue_uncore(values, rec)

    def _dispatch_entry(
        self,
        tid: int,
        core_pmu_type: int,
        events: list[KernelPerfEvent],
    ) -> _DispatchEntry:
        """The cached multiplexing decision for one (thread, PMU) pair."""
        key = (tid, core_pmu_type)
        entry = self._dispatch.get(key)
        if entry is not None and entry.gen == self._dispatch_gen:
            return entry
        entry = _DispatchEntry(self._dispatch_gen)
        # Enabled group leaders; foreign-PMU CPU groups take no counters
        # here but stay "active" so their software members keep counting.
        leaders = [ev for ev in events if ev.is_group_leader and ev.enabled]
        cpu_leaders = [
            ev
            for ev in leaders
            if ev.pmu.kind is PmuKind.CPU and ev.pmu.type == core_pmu_type
        ]
        if not cpu_leaders:
            entry.static_active = set(leaders)
        else:
            pmu = cpu_leaders[0].pmu
            budget = self._budget(pmu)
            needed = sum(ev.hw_counters_needed() for ev in cpu_leaders)
            if needed <= budget:
                entry.static_active = set(leaders)
            else:
                # Rotation required: pinned groups are granted counters
                # first (deterministically), the rest round-robin.
                base = {ev for ev in leaders if ev not in cpu_leaders}
                pinned = [ev for ev in cpu_leaders if ev.attr.pinned]
                rotating = [ev for ev in cpu_leaders if not ev.attr.pinned]
                for ev in pinned:
                    need = ev.hw_counters_needed()
                    if need <= budget:
                        base.add(ev)
                        budget -= need
                if not rotating:
                    entry.static_active = base
                else:
                    entry.base_active = base
                    entry.rotating = rotating
                    entry.budget = budget
        self._dispatch[key] = entry
        return entry

    def _note_pmu_mismatches(
        self, events, core_pmu_type: int, cpu_id: int, tr
    ) -> None:
        """Emit begin/end events when an enabled event starts/stops being
        counted on the wrong core-type PMU (enabled-but-not-running).

        Transitions require a migration, enable/disable or hotplug —
        all of which run on live ticks — so emission is path-identical.
        """
        traced = self._mismatch_traced
        for ev in events:
            mismatched = (
                ev.enabled
                and not ev.closed
                and ev.pmu.kind is PmuKind.CPU
                and ev.pmu.type != core_pmu_type
            )
            if mismatched != traced.get(ev.id, False):
                traced[ev.id] = mismatched
                tr.emit(
                    "perf",
                    "pmu_mismatch_begin" if mismatched else "pmu_mismatch_end",
                    tid=ev.target_tid,
                    cpu=cpu_id,
                    args={"id": ev.id, "pmu": ev.pmu.name},
                )
                if mismatched:
                    tr.metrics.counter("perf.pmu_mismatches", key=ev.pmu.name)

    def _rotated_active(
        self, entry: _DispatchEntry, thread: "SimThread", tr=None
    ) -> tuple[int, set[KernelPerfEvent]]:
        """The rotation slot of ``thread`` and its active set."""
        rotating = entry.rotating
        slot = entry.slot(thread.total_runtime_s)
        if tr is not None:
            key = (thread.tid, rotating[0].pmu.type)
            if self._mux_traced.get(key) != slot:
                self._mux_traced[key] = slot
                tr.emit(
                    "perf",
                    "mux_rotate",
                    tid=thread.tid,
                    args={
                        "pmu": rotating[0].pmu.name,
                        "slot": slot,
                        "groups": len(rotating),
                    },
                )
                tr.metrics.counter("perf.mux_rotations", key=rotating[0].pmu.name)
        return slot, entry.window(slot)

    @staticmethod
    def _rotating_cells(
        entry: _DispatchEntry,
        events: list[KernelPerfEvent],
        core_pmu_type: int,
        values,
        time_s: float,
    ) -> Optional[list[tuple]]:
        """What each rotating group's events add per tick while their
        group holds counters, as ``(leader, dict, key, increment)``
        cells of a tick recorder; None while one of them samples (each
        threshold crossing must run live)."""
        rotating = set(entry.rotating)
        cells = []
        for ev in events:
            leader = ev.group_leader
            if leader not in rotating or not ev.enabled or ev.closed:
                continue
            if ev._next_overflow is not None:
                return None
            adds = ev.counting_adds(core_pmu_type, values, time_s)
            if adds is None:
                continue
            running, inc = adds
            cells.append((leader, ev.__dict__, "time_running_s", running))
            if inc is not None:
                cells.append((leader, ev.__dict__, "count", inc))
        return cells

    def _on_tick(self, machine: "Machine") -> None:
        dt = machine.clock.dt_s
        rec = machine._rec
        for ev in self._uncore_events:
            ev.accrue_wall_time(dt, rec)
        for ev in self._rapl_events:
            ev.accrue_wall_time(dt, rec)
        for bucket in self._cpuwide_events.values():
            for ev in bucket:
                ev.accrue_wall_time(dt, rec)
