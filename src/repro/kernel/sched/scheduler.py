"""Quantum-level CPU scheduler.

A CFS-flavoured scheduler operating at tick granularity: placement is
sticky, contended CPUs timeshare proportionally to weight, idle CPUs pull
waiting work (work-conserving load balancing), and placement of waking
threads is capacity-aware — the highest-capacity idle CPU wins, matching
the performance-first behaviour of Intel Thread Director / EAS on big
cores, which is why an unpinned single thread lands on a P-core and only
visits E-cores when pushed off by other load.

``migrate_jitter`` injects the background-interference migrations the
paper's ``papi_hybrid_100m_one_eventset`` discussion describes ("you might
get 0, 1 million, or something in between depending how the OS scheduled
the process"): with that probability per tick, a running thread is moved
to another allowed CPU.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.checkpoint.surface import snapshot_surface
from repro.hw.topology import CpuTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.task import SimThread


@dataclass
class SchedEntry:
    """One thread's share of one CPU for the coming tick."""

    thread: "SimThread"
    share: float    # fraction of the tick this thread gets


@snapshot_surface(
    state=(
        "topology",
        "rng",
        "migrate_jitter",
        "rebalance_jitter",
        "total_migrations",
        "total_switches",
        "tracer",
        "_prev_assignment",
    ),
    digest_exclude=("tracer",),
    note="All state: the jitter RNG (random.Random pickles its full "
    "Mersenne state), migration/switch totals, and the previous "
    "assignment map that keeps placement sticky across ticks.  The "
    "tracer is a digest-excluded observer set by the machine."
)
class Scheduler:
    """Assigns runnable threads to CPUs once per tick."""

    def __init__(
        self,
        topology: CpuTopology,
        seed: int = 0,
        migrate_jitter: float = 0.0,
        rebalance_jitter: float = 0.0,
    ):
        self.topology = topology
        self.rng = random.Random(seed)
        self.migrate_jitter = migrate_jitter
        self.rebalance_jitter = rebalance_jitter
        self.total_migrations = 0
        self.total_switches = 0
        #: Trace observer, set by the owning Machine when tracing is on.
        self.tracer = None
        self._prev_assignment: dict[int, list[int]] = {}

    # -- helpers -----------------------------------------------------------

    def _allowed_cpus(self, thread: "SimThread") -> list[int]:
        online = self.topology.online_cpus()
        if thread.affinity is None:
            return online
        allowed = sorted(thread.affinity.intersection(online))
        if not allowed:
            # Linux cpuset-fallback semantics: when hotplug empties a
            # task's effective mask, it runs on any online CPU.  The
            # stored affinity is untouched, so the task snaps back as
            # soon as one of its CPUs returns.
            return online
        return allowed

    def _usable(self, thread: "SimThread", cpu_id: int) -> bool:
        """Whether ``thread`` may run on ``cpu_id`` right now (affinity
        plus hotplug state, including the empty-mask fallback)."""
        if not self.topology.core(cpu_id).online:
            return False
        if thread.allowed_on(cpu_id):
            return True
        # Fallback-mode thread: every online CPU is usable.
        return not thread.affinity.intersection(self.topology.online_cpus())

    def _placement_rank(self, cpu_id: int, load: dict[int, int]) -> tuple:
        """Sort key for idle-CPU selection: lowest load, then biggest
        capacity, then primary SMT threads, then lowest id."""
        core = self.topology.core(cpu_id)
        return (
            load[cpu_id],
            -self.topology.capacity_of(cpu_id),
            core.smt_thread,
            cpu_id,
        )

    # -- the per-tick decision ----------------------------------------------

    def schedule(self, runnable: list["SimThread"]) -> dict[int, list[SchedEntry]]:
        """Place ``runnable`` threads; returns cpu -> entries with shares."""
        online = [c for c in self.topology.cores if c.online]
        load: dict[int, int] = {c.cpu_id: 0 for c in online}
        placed: dict[int, list["SimThread"]] = {c.cpu_id: [] for c in online}

        # Jitter first: occasionally kick a thread off its CPU, forcing a
        # fresh placement decision (background interference model), and
        # occasionally let the periodic load balancer pull a thread back
        # to the best-ranked CPU (idle big cores first).
        kicked: set[int] = set()
        rebalanced: set[int] = set()
        if self.migrate_jitter > 0.0 or self.rebalance_jitter > 0.0:
            for t in runnable:
                if t.last_cpu is None:
                    continue
                r = self.rng.random()
                if r < self.migrate_jitter:
                    kicked.add(id(t))
                elif r < self.migrate_jitter + self.rebalance_jitter:
                    rebalanced.add(id(t))

        # Pass 1: sticky placement.
        fresh: list["SimThread"] = []
        for t in runnable:
            if (
                t.last_cpu is not None
                and id(t) not in kicked
                and id(t) not in rebalanced
                and t.last_cpu in placed
                and self._usable(t, t.last_cpu)
            ):
                placed[t.last_cpu].append(t)
                load[t.last_cpu] += 1
            else:
                fresh.append(t)

        # Pass 2: place fresh/kicked threads on the best available CPU.
        for t in fresh:
            allowed = self._allowed_cpus(t)
            if not allowed:
                continue
            if id(t) in kicked:
                # Kicked threads land somewhere else, chosen at random among
                # the other allowed CPUs (interference is not capacity-aware).
                others = [c for c in allowed if c != t.last_cpu] or allowed
                target = self.rng.choice(others)
            else:
                target = min(allowed, key=lambda c: self._placement_rank(c, load))
            placed[target].append(t)
            load[target] += 1

        # Pass 3: work-conserving balance — idle allowed CPUs pull waiters
        # from CPUs running more than one thread.  A single ascending sweep
        # is equivalent to restarting after every move: pass-3 moves only
        # fill idle CPUs (no CPU ever becomes overloaded again) and the
        # idle set only shrinks (an unmovable waiter stays unmovable), so
        # re-scanning already-drained CPUs can never find new work.
        idle = [c for c, ts in placed.items() if not ts]
        if idle:
            for cpu in placed:
                ts = placed[cpu]
                while len(ts) > 1 and idle:
                    # Move the most recently added movable waiter to the
                    # best idle CPU.
                    moved_thread = None
                    for t in reversed(ts):
                        targets = [c for c in idle if self._usable(t, c)]
                        if targets:
                            target = min(
                                targets, key=lambda c: self._placement_rank(c, load)
                            )
                            ts.remove(t)
                            placed[target].append(t)
                            load[cpu] -= 1
                            load[target] += 1
                            idle.remove(target)
                            moved_thread = t
                            break
                    if moved_thread is None:
                        break
                if not idle:
                    break

        # Build entries with proportional shares, and account switches and
        # migrations by diffing against the previous tick.  Trace events
        # fire only on *placement changes* (never on the per-tick
        # timesharing switch accounting): steady placements must stay
        # silent so a replayed span — which skips the scheduler —
        # emits the same event sequence as single-stepping.
        tr = self.tracer
        if tr is not None and not tr.sched:
            tr = None
        result: dict[int, list[SchedEntry]] = {}
        new_assignment: dict[int, list[int]] = {}
        for cpu, ts in placed.items():
            if not ts:
                continue
            total_w = sum(t.weight for t in ts)
            result[cpu] = [SchedEntry(t, t.weight / total_w) for t in ts]
            new_assignment[cpu] = [t.tid for t in ts]
            for t in ts:
                if tr is not None and t.cpu != cpu:
                    if t.cpu is not None:
                        tr.emit("sched", "switch_out", tid=t.tid, cpu=t.cpu)
                    to_type = self.topology.core(cpu).ctype.name
                    if t.last_cpu is not None and t.last_cpu != cpu:
                        from_type = self.topology.core(t.last_cpu).ctype.name
                        tr.emit(
                            "sched",
                            "migrate",
                            tid=t.tid,
                            cpu=cpu,
                            args={
                                "from_cpu": t.last_cpu,
                                "to_cpu": cpu,
                                "from_type": from_type,
                                "to_type": to_type,
                            },
                        )
                        tr.metrics.counter("sched.migrations", key=to_type)
                        if from_type != to_type:
                            tr.metrics.counter(
                                "sched.cross_type_migrations", key=to_type
                            )
                    tr.emit("sched", "switch_in", tid=t.tid, cpu=cpu)
                    tr.metrics.counter("sched.placements", key=to_type)
                if t.last_cpu is not None and t.last_cpu != cpu:
                    t.nr_migrations += 1
                    self.total_migrations += 1
                if t.cpu != cpu or len(ts) > 1:
                    t.nr_switches += 1
                    self.total_switches += 1
                t.cpu = cpu
                t.last_cpu = cpu
        self._prev_assignment = new_assignment
        return result
