"""Running HPL on a simulated machine.

One thread per selected logical CPU, pinned 1:1 (how both benchmark
builds run in the paper, with ``taskset``/``OMP_NUM_THREADS``).  A shared
:class:`HplCoordinator` hands out each step's panel and update work
according to the variant's policy; threads spin at a barrier between
steps, exactly the behaviour whose power/instruction signature the
motivation experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Optional, Sequence

from repro.hw.coretype import ArchEvent, CoreType
from repro.hpl.dat import HplConfig
from repro.hpl.model import HplStep, hpl_flops, hpl_steps
from repro.hpl.variants import VARIANTS, HplVariant
from repro.sim.task import SimThread
from repro.sim.workload import (
    ChunkStream,
    ComputePhase,
    SpinPhase,
    WorkPhase,
    constant_rates,
)
from repro.system import System


class HplCoordinator:
    """Shared state: per-step work assignments and the step barrier."""

    def __init__(
        self,
        steps: list[HplStep],
        variant: HplVariant,
        core_types: list[CoreType],
    ):
        self.steps = steps
        self.variant = variant
        self.core_types = core_types
        self.n_threads = len(core_types)
        self.panel_done = [False] * len(steps)
        self.generation = 0     # completed steps (acts as the barrier)
        self._arrived = 0
        dyn = variant.dynamic_fraction
        self.static_flops = [
            s.update_flops * (1.0 - dyn) / self.n_threads for s in steps
        ]
        self._pool = [s.update_flops * dyn for s in steps]
        self._grain = [
            max(1.0, s.update_flops * dyn / (self.n_threads * variant.grain_parts))
            for s in steps
        ]

    def arrive(self) -> None:
        self._arrived += 1
        if self._arrived >= self.n_threads:
            self._arrived = 0
            self.generation += 1

    @property
    def done(self) -> bool:
        return self.generation >= len(self.steps)


class HplThreadSource:
    """Work source of one pinned HPL thread (a per-step state machine)."""

    def __init__(
        self,
        coord: HplCoordinator,
        slot: int,
        ctype: CoreType,
        nb: int | None = None,
    ):
        self.coord = coord
        self.slot = slot
        self.ctype = ctype
        profile = coord.variant.profile
        self._rates = profile.rates(ctype, nb=nb)
        self._panel_rates = profile.panel_rates(ctype)
        self._flops_per_instr = self._rates.flops_per_instr
        # One rates_fn per source (threads are pinned, so the executing
        # core type is always this one) instead of a lambda per phase.
        self._rates_fn = constant_rates(self._rates)
        self._panel_rates_fn = constant_rates(self._panel_rates)
        self.step = 0
        self.stage = "panel"
        self.flops_done = 0.0

    def _note_flops(self, flops: float) -> None:
        self.flops_done += flops

    def _compute(self, flops: float, rates, rates_fn, label: str) -> ComputePhase:
        self.flops_done += flops
        instr = max(1.0, flops / rates.flops_per_instr)
        return ComputePhase(instr, rates_fn, label=label)

    def next_phase(self, thread: SimThread) -> Optional[WorkPhase]:
        coord = self.coord
        while True:
            if self.step >= len(coord.steps):
                return None
            st = coord.steps[self.step]

            if self.stage == "panel":
                # Look-ahead: the panel for the next step is factorized by
                # thread 0 *concurrently* with everyone's update work, as
                # both real HPL builds do; no panel barrier.
                self.stage = "static"
                if self.slot == 0 and st.panel_flops > 0:
                    step_idx = self.step
                    phase = self._compute(
                        st.panel_flops,
                        self._panel_rates,
                        self._panel_rates_fn,
                        "hpl-panel",
                    )
                    phase.on_complete = (
                        lambda thread, _c=coord, _i=step_idx: _c.panel_done.__setitem__(_i, True)
                    )
                    return phase
                continue

            if self.stage == "static":
                self.stage = "dynamic"
                amount = coord.static_flops[self.step]
                if amount > 0:
                    return self._compute(
                        amount, self._rates, self._rates_fn, "hpl-update"
                    )
                continue

            if self.stage == "dynamic":
                self.stage = "barrier"
                if coord._pool[self.step] > 0.0:
                    # The engine claims grain-sized chunks from the shared
                    # pool inside its fused slice loop (same arithmetic as
                    # one ComputePhase per claim, minus the phase churn).
                    return ChunkStream(
                        pool=coord._pool,
                        index=self.step,
                        grain=coord._grain[self.step],
                        rates_fn=self._rates_fn,
                        flops_per_instr=self._flops_per_instr,
                        on_claimed=self._note_flops,
                        label="hpl-steal",
                    )
                continue

            if self.stage == "barrier":
                coord.arrive()
                self.stage = "wait"
                gen_target = self.step + 1
                if coord.generation < gen_target:
                    return SpinPhase(
                        until=lambda _c=coord, _g=gen_target: _c.generation >= _g,
                        label="step-barrier",
                    )
                continue

            if self.stage == "wait":
                self.step += 1
                self.stage = "panel"
                continue

            raise AssertionError(f"unknown stage {self.stage}")


@dataclass
class HplResult:
    """Outcome of one HPL run."""

    variant: str
    config: HplConfig
    cpus: list[int]
    gflops: float
    wall_s: float
    energy_j: float
    avg_power_w: float
    # Per-PMU counter totals summed over HPL threads.
    instructions: dict[str, float] = field(default_factory=dict)
    llc_references: dict[str, float] = field(default_factory=dict)
    llc_misses: dict[str, float] = field(default_factory=dict)
    fp_ops: dict[str, float] = field(default_factory=dict)
    runtime_s: dict[str, float] = field(default_factory=dict)
    spin_time_s: float = 0.0

    def llc_miss_rate(self, pmu: str) -> float:
        refs = self.llc_references.get(pmu, 0.0)
        return self.llc_misses.get(pmu, 0.0) / refs if refs else 0.0

    def instruction_share(self, pmu: str) -> float:
        total = reduce(add, self.instructions.values(), 0)
        return self.instructions.get(pmu, 0.0) / total if total else 0.0


def default_cpu_selection(system: System) -> list[int]:
    """One logical CPU per physical core (the paper's 1 thread/core)."""
    return system.topology.primary_threads()


@dataclass
class HplRunHandle:
    """An HPL run in flight: everything needed to finish and score it.

    The handle is part of the checkpoint payload a supervisor worker
    saves between slices — it survives a snapshot/restore alongside the
    :class:`~repro.system.System`, so a resumed run finishes with the
    same baselines (``t0``/``e0``) the uninterrupted run would use.
    """

    variant: str
    config: HplConfig
    cpus: list[int]
    threads: list[SimThread]
    t0: float
    e0: float

    @property
    def done(self) -> bool:
        return all(t.done for t in self.threads)


def start_hpl(
    system: System,
    config: HplConfig,
    variant: str = "openblas",
    cpus: Optional[Sequence[int]] = None,
    settle_temp_c: Optional[float] = None,
) -> HplRunHandle:
    """Spawn an HPL run's threads without driving the clock.

    The caller decides how to advance time — :func:`run_hpl` runs to
    completion in one go; the experiment supervisor's worker advances in
    slices with periodic checkpoints in between.
    """
    try:
        var = VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown HPL variant {variant!r}; known: {sorted(VARIANTS)}"
        ) from None
    machine = system.machine
    if settle_temp_c is not None:
        machine.cool_down(settle_temp_c, max_s=600.0)

    cpu_list = list(cpus) if cpus is not None else default_cpu_selection(system)
    if not cpu_list:
        raise ValueError("need at least one CPU")
    core_types = [machine.topology.core(c).ctype for c in cpu_list]
    steps = hpl_steps(config)
    coord = HplCoordinator(steps, var, core_types)

    threads = []
    for slot, cpu in enumerate(cpu_list):
        src = HplThreadSource(coord, slot, core_types[slot], nb=config.nb)
        threads.append(
            machine.spawn(
                SimThread(f"hpl-{variant}-{slot}", src, affinity={cpu})
            )
        )
    return HplRunHandle(
        variant=variant,
        config=config,
        cpus=cpu_list,
        threads=threads,
        t0=machine.now_s,
        e0=machine.rapl.package.energy_j,
    )


def finish_hpl(system: System, handle: HplRunHandle) -> HplResult:
    """Score a completed HPL run (all handle threads done)."""
    machine = system.machine
    wall = machine.now_s - handle.t0
    energy = machine.rapl.package.energy_j - handle.e0
    config = handle.config

    result = HplResult(
        variant=handle.variant,
        config=config,
        cpus=handle.cpus,
        gflops=hpl_flops(config.n) / wall / 1e9 if wall else 0.0,
        wall_s=wall,
        energy_j=energy,
        avg_power_w=energy / wall if wall else 0.0,
        spin_time_s=reduce(add, (t.spin_time_s for t in handle.threads), 0),
    )
    for t in handle.threads:
        for pmu, counters in t.counters.items():
            result.instructions[pmu] = (
                result.instructions.get(pmu, 0.0) + counters[ArchEvent.INSTRUCTIONS]
            )
            result.llc_references[pmu] = (
                result.llc_references.get(pmu, 0.0)
                + counters[ArchEvent.LLC_REFERENCES]
            )
            result.llc_misses[pmu] = (
                result.llc_misses.get(pmu, 0.0) + counters[ArchEvent.LLC_MISSES]
            )
            result.fp_ops[pmu] = (
                result.fp_ops.get(pmu, 0.0) + counters[ArchEvent.FP_OPS]
            )
        for pmu, rt in t.runtime_s.items():
            result.runtime_s[pmu] = result.runtime_s.get(pmu, 0.0) + rt
    return result


def run_hpl(
    system: System,
    config: HplConfig,
    variant: str = "openblas",
    cpus: Optional[Sequence[int]] = None,
    settle_temp_c: Optional[float] = None,
    max_s: float = 36_000.0,
) -> HplResult:
    """Run one HPL benchmark to completion and collect its metrics."""
    handle = start_hpl(
        system, config, variant=variant, cpus=cpus, settle_temp_c=settle_temp_c
    )
    # strict: a wedged run raises SimTimeout naming the stuck threads.
    system.machine.run_until_done(handle.threads, max_s=max_s, strict=True)
    return finish_hpl(system, handle)
