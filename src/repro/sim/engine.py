"""The machine: couples hardware models, scheduler and threads.

:class:`Machine` advances in fixed ticks.  Per tick:

1. wake sleeping threads whose condition fired,
2. the scheduler places runnable threads on CPUs,
3. each placed thread executes its time share at the CPU's current DVFS
   frequency, generating architectural counter events that are credited to
   the thread (per PMU) and any registered account hooks (the kernel perf
   layer),
4. power is sampled; RAPL accounts energy and runs the PL1/PL2 capping
   controller; the thermal model integrates and applies throttling,
5. the DVFS governor picks next-tick frequencies.

The engine is deterministic for a given seed.

Accounting kernel
-----------------

Event generation is *fused per slice*: while a thread executes its time
share, each work chunk only accumulates ``(instructions, seconds)`` into a
per-rates bucket.  Buckets are flushed early at every point where other
code could observe them — before a :class:`ControlOp` runs, before a phase
``on_complete`` callback, and when the thread blocks or finishes — so the
fusion is invisible to measured programs.  A flush hands each bucket's
``(core type, rates, instructions, reference cycles, seconds)`` to
:meth:`SimThread.account` and to every account hook.  The thread appends
it to a small ledger and materializes the architectural event vectors
(per-instruction rate vector times instructions) in bulk when the ledger
fills or its ``counters`` are read; the perf hook builds the vector only
when it has an event to credit.

Engines
-------

Two interchangeable engines drive the loop (``Machine(engine=...)``):

* ``"events"`` (the default) — the event-driven engine in
  :mod:`repro.sim.events`: record one steady tick, then turn its replay
  guards into a queue of pending events (phase change, mux rotation,
  wake-up, timed fault, overflow crossing) and leap straight to the
  earliest one, plus sticky-placement scheduling reuse and adaptive
  record back-off.  ``run_ticks`` and ``run_until_done`` go through its
  one run loop; any other ``run_until`` condition is opaque and runs
  plain ticks on both engines.
* ``"ticks"`` — the plain single-tick loop above; the reference oracle.

Both produce bit-identical state (gated by the engine parity matrix in
``tests/test_engine_parity.py``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.checkpoint.surface import snapshot_surface
from repro.hw.coretype import CoreType
from repro.hw.cpuid import CpuidEmulator
from repro.hw.cache import LlcModel
from repro.hw.dvfs import DvfsGovernor
from repro.hw.machines import MachineSpec
from repro.hw.power import PowerModel, PowerSample, SPIN_POWER_FRACTION
from repro.hw.rapl import RaplPackage
from repro.hw.thermal import ThermalModel
from repro.hw.topology import Core
from repro.kernel.sched import Scheduler
from repro.sim.clock import SimClock
from repro.sim.events import AllDone, SchedCache, grid_crossing, run_budget
from repro.sim.task import ControlOp, Program, SimThread, ThreadState
from repro.trace.tracer import make_tracer
from repro.sim.workload import (
    ChunkStream,
    ComputePhase,
    SleepPhase,
    SpinPhase,
    SPIN_RATES,
    PhaseRates,
    arch_event_rates,
)

#: Safety valve: max control ops a thread may run inside one time slice.
MAX_CONTROL_OPS_PER_SLICE = 100_000

#: ``hook(thread, core, rates, instructions, ref_cycles, time_s)``: the
#: inputs of one :meth:`SimThread.account` call, on the core that ran it.
AccountHook = Callable[[SimThread, Core, PhaseRates, float, float, float], None]
TickHook = Callable[["Machine"], None]
HotplugHook = Callable[[int, bool], None]


class SimTimeout(RuntimeError):
    """``run_until``/``run_until_done`` hit ``max_s`` in strict mode.

    The message names the threads that were still unfinished — with the
    CPU and core type each is wedged on — and the machine's last
    checkpoint path, so a stuck run is diagnosable (and resumable) from
    the error alone.
    """

    def __init__(
        self,
        message: str,
        stuck: list[SimThread],
        checkpoint_path: Optional[str],
        details: list[dict],
    ):
        super().__init__(message)
        self.stuck = stuck
        self.checkpoint_path = checkpoint_path
        self._details = details

    def stuck_details(self) -> list[dict]:
        """JSON-able description of the stuck threads (for manifests),
        one :meth:`Machine._stuck_detail` entry per thread."""
        return self._details


@snapshot_surface(
    state=(
        "spec",
        "topology",
        "clock",
        "scheduler",
        "governor",
        "thermal",
        "rapl",
        "power_model",
        "llc",
        "cpuid",
        "tsc_ghz",
        "threads",
        "tick_hooks",
        "account_hooks",
        "hotplug_hooks",
        "last_power",
        "last_checkpoint_path",
        "engine",
        "tracer",
        "_next_tid",
        "_tid_index",
        "_fastpath_safe_hooks",
    ),
    caches=(
        "_rate_vecs",
        "_rec",
        "_sched_cache",
        "_retired",
    ),
    rebuild="_init_snapshot_caches",
    digest_exclude=(
        "engine",
        "last_checkpoint_path",
        "tracer",
    ),
    note=(
        "The rate-vector memo is rebuilt lazily; a tick recorder never "
        "outlives a tick.  Engine-path selection, the checkpoint "
        "breadcrumb and the tracer (a pure observer that "
        "must not perturb trace-on/off digest parity) are configuration, "
        "not machine state, so they stay out of the digest."
    ),
)
class Machine:
    """A simulated machine executing simulated threads."""

    def __init__(
        self,
        spec: MachineSpec,
        dt_s: float = 0.01,
        seed: int = 0,
        migrate_jitter: float = 0.0,
        rebalance_jitter: float = 0.0,
        engine: str = "events",
        trace=None,
    ):
        if engine not in ("ticks", "events"):
            raise ValueError(f"unknown engine {engine!r}; want 'ticks' or 'events'")
        self.engine = engine
        self.spec = spec
        self.topology = spec.topology
        self.clock = SimClock(dt_s)
        self.tracer = make_tracer(trace, self.clock)
        self.governor = DvfsGovernor(self.topology)
        self.power_model = PowerModel(spec)
        self.thermal = ThermalModel(spec)
        self.rapl = RaplPackage(spec)
        self.llc = LlcModel(float(spec.extra.get("llc_mib", 8.0)))
        self.cpuid = CpuidEmulator(spec)
        self.scheduler = Scheduler(
            self.topology,
            seed=seed,
            migrate_jitter=migrate_jitter,
            rebalance_jitter=rebalance_jitter,
        )
        # Hand the observer to the layers that emit from their own step
        # functions; perf/PAPI/faults reach it through ``machine.tracer``.
        self.scheduler.tracer = self.tracer
        self.governor.tracer = self.tracer
        self.thermal.tracer = self.tracer
        self.rapl.tracer = self.tracer

        self.threads: list[SimThread] = []
        self._next_tid = 1000
        self._tid_index: dict[int, SimThread] = {}
        self.account_hooks: list[AccountHook] = []
        self.tick_hooks: list[TickHook] = []
        #: Called as ``hook(cpu_id, online)`` after a CPU changes hotplug
        #: state (the perf subsystem parks/resumes events through this).
        self.hotplug_hooks: list[HotplugHook] = []
        #: Hooks the event engine may replay over (their per-tick effects
        #: are fully captured by the tick recorder).  Hooks not
        #: registered here disable recording, never correctness.
        self._fastpath_safe_hooks: list = []
        self.last_power: Optional[PowerSample] = None
        # The TSC / architectural timer rate (invariant across the package).
        self.tsc_ghz = self.topology.clusters[-1].ctype.base_freq_mhz / 1000.0
        self._init_snapshot_caches()
        #: Path of the most recent checkpoint of this machine (set by
        #: ``System.save``); surfaced by SimTimeout for diagnosability.
        self.last_checkpoint_path: Optional[str] = None

    def _init_snapshot_caches(self) -> None:
        """(Re)create the cache attributes excluded from snapshots.

        ``_rate_vecs`` memoizes event-rate vectors by value (see
        ``_rate_vec``); ``_rec`` is the active tick recorder (event engine
        only; None on every plain tick); ``_sched_cache`` replays provably
        side-effect-free sticky placements (event engine only — the
        ``ticks`` reference exercises the scheduler every tick, which is
        what keeps the cache honest under the parity matrix).
        """
        self._rate_vecs: dict = {}
        self._rec = None
        #: Threads retired since this machine was built or restored: an
        #: ``AllDone`` rescans its threads only once this moved.
        self._retired = 0
        if getattr(self, "engine", None) == "events":
            self._sched_cache = SchedCache(self.scheduler)
        else:
            self._sched_cache = None

    # -- thread lifecycle ---------------------------------------------------

    def spawn(self, thread: SimThread) -> SimThread:
        """Register a thread; it becomes runnable on the next tick."""
        if thread.tid == -1:
            thread.tid = self._next_tid
            self._next_tid += 1
        thread.state = ThreadState.READY
        self.threads.append(thread)
        self._tid_index[thread.tid] = thread
        return thread

    def spawn_program(
        self,
        name: str,
        items: Iterable,
        affinity: Optional[set[int]] = None,
        weight: float = 1.0,
    ) -> SimThread:
        return self.spawn(SimThread(name, Program(items), affinity=affinity, weight=weight))

    def thread_by_tid(self, tid: int) -> SimThread:
        try:
            return self._tid_index[tid]
        except KeyError:
            raise KeyError(f"no thread with tid {tid}") from None

    def mark_hook_fastpath_safe(self, hook) -> None:
        """Declare that ``hook``'s per-tick effects are recorder-visible."""
        self._fastpath_safe_hooks.append(hook)

    # -- CPU hotplug ---------------------------------------------------------

    def offline_cpu(self, cpu_id: int) -> None:
        """Take a CPU offline (``echo 0 > /sys/.../cpuN/online``).

        Linux semantics: cpu0 is not hotpluggable, threads running on the
        dying CPU migrate off at the next scheduling point, and perf
        events bound to the CPU stop counting (parked via the hotplug
        hooks).  Idempotent for an already-offline CPU.
        """
        from repro.kernel.errno import Errno, KernelError

        core = self.topology.core(cpu_id)  # KeyError on bad id
        if cpu_id == 0:
            raise KernelError(Errno.EBUSY, "cpu0 is not hotpluggable")
        if not core.online:
            return
        core.online = False
        tr = self.tracer
        if tr is not None and not tr.sched:
            tr = None
        # Threads on the dead CPU lose their placement; the scheduler
        # gives them a fresh capacity-aware placement next tick.
        for t in self.threads:
            if t.cpu == cpu_id:
                if tr is not None:
                    tr.emit("sched", "switch_out", tid=t.tid, cpu=cpu_id)
                t.cpu = None
            if t.last_cpu == cpu_id:
                t.last_cpu = None
        if tr is not None:
            tr.emit("sched", "hotplug_offline", cpu=cpu_id)
        if self._rec is not None:
            self._rec.kill(self)
        for hook in self.hotplug_hooks:
            hook(cpu_id, False)

    def online_cpu(self, cpu_id: int) -> None:
        """Bring a previously offlined CPU back (idempotent)."""
        core = self.topology.core(cpu_id)
        if core.online:
            return
        core.online = True
        tr = self.tracer
        if tr is not None and tr.sched:
            tr.emit("sched", "hotplug_online", cpu=cpu_id)
        if self._rec is not None:
            self._rec.kill(self)
        for hook in self.hotplug_hooks:
            hook(cpu_id, True)

    def hooks_fastpath_safe(self) -> bool:
        safe = self._fastpath_safe_hooks
        return all(h in safe for h in self.account_hooks) and all(
            h in safe for h in self.tick_hooks
        )

    # -- main loop ------------------------------------------------------------

    @property
    def now_s(self) -> float:
        return self.clock.now_s

    def tick(self) -> None:
        dt = self.clock.dt_s
        rec = self._rec
        _blocked = ThreadState.BLOCKED
        _ready = ThreadState.READY
        _running = ThreadState.RUNNING

        # 1. Wake sleepers.
        for t in self.threads:
            if t.state is not _blocked:
                continue
            phase = t.current_phase
            woke = False
            if isinstance(phase, SleepPhase):
                if phase.until is not None and phase.until():
                    woke = True
                elif t.wake_at_s is not None and self.now_s >= t.wake_at_s:
                    woke = True
            else:
                woke = True
            if woke:
                t.current_phase = None
                t.wake_at_s = None
                t.state = ThreadState.READY
                if rec is not None:
                    rec.kill(self)
                    rec = None
            elif rec is not None:
                rec.blocked.append((t, phase))

        # 2. Place runnable threads (through the sticky-placement cache
        # when the event engine installed one and the placement repeats).
        runnable = [
            t
            for t in self.threads
            if t.state is _ready or t.state is _running
        ]
        if rec is not None:
            rec.freq_before = list(self.governor.freq_mhz)
        cache = self._sched_cache
        assignment = cache.lookup(runnable) if cache is not None else None
        if assignment is None:
            if rec is not None:
                rec.note_pre_schedule(self.scheduler, runnable)
            assignment = self.scheduler.schedule(runnable)
            if rec is not None:
                rec.note_post_schedule(self, self.scheduler, runnable)
                rec = self._rec  # note_post_schedule kills on migration
            if cache is not None:
                cache.store(runnable, assignment)

        # 3. Execute.  Per-CPU activity accumulates in plain lists (the
        # values are bit-identical to numpy scalar accumulation; list
        # indexing is what keeps the whole-machine reductions below off
        # the numpy scalar-boxing path).
        n_cpus = self.topology.n_cpus
        busy_l = [0.0] * n_cpus
        spin_l = [0.0] * n_cpus
        for t in runnable:
            t.state = _ready  # set RUNNING below if placed
        topo_core = self.topology.core
        freq_mhz = self.governor.freq_mhz
        for cpu_id, entries in assignment.items():
            core = topo_core(cpu_id)
            freq_ghz = freq_mhz[core.cluster] / 1000.0
            for entry in entries:
                entry.thread.state = _running
                busy_s, spin_s = self._execute_slice(
                    entry.thread, core, freq_ghz, dt * entry.share
                )
                busy_l[cpu_id] += busy_s / dt
                spin_l[cpu_id] += spin_s / dt

        # 4. Power, energy, thermal.
        sample = self.power_model.sample_activity(
            busy_l, spin_l, self.governor.freq_mhz
        )
        self.last_power = sample
        self.rapl.step(
            self.governor,
            sample.package_w,
            sample.cores_w,
            sample.dram_w,
            dt,
        )
        self.thermal.step(sample.package_w, dt)

        # Per-cluster activity (for throttling) and peak utilization (for
        # the governor) in one pass; the accumulation order matches the
        # former sum()/max() reductions term for term.
        cluster_activity = []
        cluster_util = []
        for cl in self.topology.clusters:
            act = 0.0
            peak = 0.0
            for c in cl.cpu_ids:
                b = busy_l[c]
                s = spin_l[c]
                act += b + SPIN_POWER_FRACTION * s
                u = b + s
                if u > peak:
                    peak = u
            cluster_activity.append(act)
            cluster_util.append(peak if peak < 1.0 else 1.0)
        self.thermal.apply_throttling(
            self.governor,
            cluster_activity,
            sample.uncore_w + sample.dram_w,
            dt,
        )

        # 5. Governor for next tick.
        self.governor.update(cluster_util)

        rec = self._rec  # a slice may have killed the recorder
        if rec is not None:
            rec.power_inputs = (
                sample,
                cluster_activity,
                sample.uncore_w + sample.dram_w,
                cluster_util,
            )
            rec.freq_after = list(self.governor.freq_mhz)

        self.clock.advance()
        for hook in self.tick_hooks:
            hook(self)

    def _execute_slice(
        self, thread: SimThread, core: Core, freq_ghz: float, t_slice: float
    ) -> tuple[float, float]:
        """Run ``thread`` on ``core`` for up to ``t_slice`` seconds."""
        time_left = t_slice
        busy_s = 0.0
        spin_s = 0.0
        control_ops = 0
        rec = self._rec
        ct = core.ctype
        # Per-slice fused accounting: id(rates) -> [rates, instr, seconds].
        buckets: dict[int, list] = {}
        while time_left > 1e-15:
            phase = thread.current_phase
            if phase is None:
                # Any phase-boundary event makes this tick non-replayable.
                if rec is not None:
                    rec.kill(self)
                    rec = None
                item = thread.take_next()
                if item is None:
                    if buckets:
                        self._flush_slice(thread, core, buckets)
                    thread.state = ThreadState.DONE
                    self._retired += 1
                    tr = self.tracer
                    if tr is not None and tr.sched:
                        tr.emit("sched", "switch_out", tid=thread.tid, cpu=core.cpu_id)
                        tr.emit("sched", "exit", tid=thread.tid, cpu=core.cpu_id)
                    thread.cpu = None
                    break
                if isinstance(item, ControlOp):
                    control_ops += 1
                    if control_ops > MAX_CONTROL_OPS_PER_SLICE:
                        raise RuntimeError(
                            f"thread {thread.name!r} ran {control_ops} control ops "
                            "in one slice; likely an infinite control loop"
                        )
                    if buckets:
                        self._flush_slice(thread, core, buckets)
                    item.fn(thread)
                    continue
                thread.current_phase = item
                phase = item

            if isinstance(phase, ComputePhase):
                rates = phase.rates_fn(ct)
                instr_per_s = freq_ghz * 1e9 * rates.ipc
                possible = instr_per_s * time_left
                remaining = phase.remaining
                executed = remaining if remaining < possible else possible
                dt_used = executed / instr_per_s if instr_per_s > 0 else time_left
                phase.remaining = remaining - executed
                bucket = buckets.get(id(rates))
                if bucket is None:
                    buckets[id(rates)] = [rates, executed, dt_used]
                else:
                    bucket[1] += executed
                    bucket[2] += dt_used
                if rec is not None:
                    rec.compute_step(phase, executed)
                busy_s += dt_used
                time_left -= dt_used
                if phase.remaining <= 0.0:
                    thread.current_phase = None
                    if rec is not None:
                        rec.kill(self)
                        rec = None
                    if phase.on_complete is not None:
                        if buckets:
                            self._flush_slice(thread, core, buckets)
                        phase.on_complete(thread)
                continue

            if isinstance(phase, ChunkStream):
                # Fused claim-execute loop: the whole dynamic-chunk
                # stream advances without per-chunk phase objects.  The
                # shared pool makes the tick unreplayable.
                if rec is not None:
                    rec.kill(self)
                    rec = None
                rates = phase.rates_fn(ct)
                instr_per_s = freq_ghz * 1e9 * rates.ipc
                pool_list = phase.pool
                idx = phase.index
                grain = phase.grain
                fpi = phase.flops_per_instr
                pool = pool_list[idx]
                remaining = phase.remaining
                claimed = 0.0
                executed_total = 0.0
                time_used = 0.0
                if instr_per_s <= 0:  # pragma: no cover - defensive
                    time_left = 0.0
                else:
                    # Finish the chunk carried over from the last slice.
                    if remaining > 0.0:
                        possible = instr_per_s * time_left
                        executed = remaining if remaining < possible else possible
                        dt_used = executed / instr_per_s
                        remaining -= executed
                        executed_total += executed
                        time_used += dt_used
                        time_left -= dt_used
                    # Claim every whole chunk this slice can retire in one
                    # bulk step: mid-stream chunks are all grain-sized, so
                    # their count is the min of what the remaining time
                    # and the pool admit.
                    if remaining <= 0.0 and pool > 0.0 and time_left > 1e-15:
                        x = grain / fpi
                        chunk_instr = x if x > 1.0 else 1.0
                        dt_chunk = chunk_instr / instr_per_s
                        n_time = int(time_left / dt_chunk)
                        n_pool = int(pool / grain)
                        n = n_time if n_time < n_pool else n_pool
                        if n > 0:
                            bulk = n * grain
                            pool -= bulk
                            claimed += bulk
                            executed_total += n * chunk_instr
                            t_bulk = n * dt_chunk
                            time_used += t_bulk
                            time_left -= t_bulk
                        # Tail: the final partial chunk / partial tick.
                        while time_left > 1e-15:
                            if remaining <= 0.0:
                                if pool <= 0.0:
                                    break
                                take = grain if grain < pool else pool
                                pool -= take
                                claimed += take
                                x = take / fpi
                                remaining = x if x > 1.0 else 1.0
                            possible = instr_per_s * time_left
                            executed = remaining if remaining < possible else possible
                            dt_used = executed / instr_per_s
                            remaining -= executed
                            executed_total += executed
                            time_used += dt_used
                            time_left -= dt_used
                pool_list[idx] = pool
                phase.remaining = remaining
                if claimed > 0.0 and phase.on_claimed is not None:
                    phase.on_claimed(claimed)
                if executed_total > 0.0:
                    bucket = buckets.get(id(rates))
                    if bucket is None:
                        buckets[id(rates)] = [rates, executed_total, time_used]
                    else:
                        bucket[1] += executed_total
                        bucket[2] += time_used
                    busy_s += time_used
                if remaining <= 0.0 and pool_list[idx] <= 0.0:
                    thread.current_phase = None
                continue

            if isinstance(phase, SpinPhase):
                if phase.until():
                    thread.current_phase = None
                    if rec is not None:
                        rec.kill(self)
                        rec = None
                    continue
                # Spin for the rest of the slice.
                instr = SPIN_RATES.ipc * (freq_ghz * 1e9 * time_left)
                bucket = buckets.get(id(SPIN_RATES))
                if bucket is None:
                    buckets[id(SPIN_RATES)] = [SPIN_RATES, instr, time_left]
                else:
                    bucket[1] += instr
                    bucket[2] += time_left
                thread.spin_time_s += time_left
                if rec is not None:
                    rec.spin_step(thread, phase.until, time_left)
                spin_s += time_left
                time_left = 0.0
                break

            if isinstance(phase, SleepPhase):
                if rec is not None:
                    rec.kill(self)
                    rec = None
                if phase.until is not None and phase.until():
                    thread.current_phase = None
                    continue
                if buckets:
                    self._flush_slice(thread, core, buckets)
                thread.state = ThreadState.BLOCKED
                tr = self.tracer
                if tr is not None and tr.sched:
                    tr.emit("sched", "switch_out", tid=thread.tid, cpu=core.cpu_id)
                thread.cpu = None
                if phase.wake_at_s is not None and thread.wake_at_s is None:
                    thread.wake_at_s = self.now_s + phase.wake_at_s
                break

            raise TypeError(f"unknown phase type {type(phase)!r}")
        if buckets:
            self._flush_slice(thread, core, buckets)
        vdelta = (busy_s + spin_s) / thread.weight
        thread.vruntime += vdelta
        if rec is not None and vdelta != 0.0:
            rec.scalar(thread, "vruntime", vdelta)
        return busy_s, spin_s

    def _flush_slice(self, thread: SimThread, core: Core, buckets: dict) -> None:
        """Credit each bucket to the thread and to every account hook."""
        rec = self._rec
        ct = core.ctype
        ref_per_s = self.tsc_ghz * 1e9
        hooks = self.account_hooks
        for rates, instr, time_s in buckets.values():
            if time_s <= 0:
                continue
            ref_cycles = ref_per_s * time_s
            thread.account(ct, rates, instr, ref_cycles, time_s, rec)
            for hook in hooks:
                hook(thread, core, rates, instr, ref_cycles, time_s)
        buckets.clear()

    def _rate_vec(self, ct: CoreType, rates: PhaseRates) -> np.ndarray:
        """Per-instruction architectural event rates for the perf account
        hook (a thread's ledger resolves its own at settle), memoized by
        value: a rates function may build a fresh ``PhaseRates`` per call.

        ``REF_CYCLES`` is time-based, not instruction-based; its slot is
        zero here and the caller sets it from the bucket's seconds.
        """
        key = (
            id(ct),
            rates.ipc,
            rates.flops_per_instr,
            rates.llc_refs_per_instr,
            rates.llc_miss_rate,
            rates.l2_refs_per_instr,
            rates.l2_miss_rate,
            rates.branches_per_instr,
            rates.branch_miss_rate,
        )
        vec = self._rate_vecs.get(key)
        if vec is None:
            # Shared with the validation oracle: sim.workload owns the
            # PhaseRates -> event-vector translation.
            vec = self._rate_vecs[key] = arch_event_rates(ct, rates)
        return vec

    # -- convenience runners ---------------------------------------------------

    def run_ticks(self, n: int) -> None:
        if self.engine == "events":
            run_budget(self, n)
        else:
            for _ in range(n):
                self.tick()

    def run_for(self, seconds: float) -> None:
        self.run_ticks(max(1, round(seconds / self.clock.dt_s)))

    def run_until(
        self,
        cond: Callable[[], bool],
        max_s: float = 3600.0,
        strict: bool = False,
        watch: Optional[list[SimThread]] = None,
    ) -> bool:
        """Tick until ``cond()`` is true; returns False on timeout.

        ``run_until_done``'s condition leaps under the event engine; any
        other condition is opaque and runs plain ticks on both engines.
        With ``strict=True`` a timeout raises :class:`SimTimeout` naming
        the unfinished threads (``watch`` if given, else all threads)
        instead of returning a silently discardable ``False``.
        """
        deadline = self.now_s + max_s
        if self.engine == "events" and type(cond) is AllDone:
            clock = self.clock
            run_budget(self, grid_crossing(clock.ticks, clock.dt_s, deadline), cond)
            ok = cond()
        else:
            ok = True
            while not cond():
                if self.now_s >= deadline:
                    ok = False
                    break
                self.tick()
        if not ok and strict:
            pool = watch if watch is not None else self.threads
            stuck = [t for t in pool if not t.done]
            details = [self._stuck_detail(t) for t in stuck]
            names = ", ".join(
                f"{d['name']!r} (tid={d['tid']}, {d['state']}, "
                f"cpu={d['cpu']} [{d['core_type'] or 'off-cpu'}], "
                f"phase={d['phase']})"
                for d in details
            ) or "<none>"
            ckpt = (
                f"; last checkpoint: {self.last_checkpoint_path}"
                if self.last_checkpoint_path
                else "; no checkpoint taken"
            )
            raise SimTimeout(
                f"condition not reached within {max_s} simulated seconds "
                f"(t={self.now_s:.3f}s); stuck threads: {names}{ckpt}",
                stuck,
                checkpoint_path=self.last_checkpoint_path,
                details=details,
            )
        return ok

    def _stuck_detail(self, t: SimThread) -> dict:
        """One stuck thread's manifest entry: where it is wedged."""
        cpu = t.cpu if t.cpu is not None else t.last_cpu
        core_type = None
        if cpu is not None:
            try:
                core_type = self.topology.core(cpu).ctype.name
            except KeyError:  # pragma: no cover - defensive
                core_type = None
        return {
            "name": t.name,
            "tid": t.tid,
            "state": t.state.value,
            "cpu": cpu,
            "core_type": core_type,
            "phase": getattr(t.current_phase, "label", None),
        }

    def run_until_done(
        self,
        threads: Optional[Iterable[SimThread]] = None,
        max_s: float = 3600.0,
        strict: bool = False,
    ) -> bool:
        watch = list(threads) if threads is not None else self.threads
        return self.run_until(
            AllDone(watch, self),
            max_s=max_s,
            strict=strict,
            watch=watch,
        )

    def cool_down(self, target_c: float = 35.0, max_s: float = 600.0) -> bool:
        """Idle the machine until the package settles at ``target_c``.

        Mirrors the paper's methodology of waiting for ``x86_pkg_temp`` to
        settle at 35 degC before each HPL run.
        """
        return self.run_until(lambda: self.thermal.is_settled(target_c), max_s=max_s)
