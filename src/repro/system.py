"""A complete simulated system: hardware + kernel services.

:class:`System` is the top-level object experiments and the PAPI library
operate on — the equivalent of "a Linux machine": the simulated hardware
(:class:`~repro.sim.engine.Machine`), the perf_event subsystem, and the
virtual /sys and /proc trees.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.hw.machines import MACHINE_PRESETS, MachineSpec
from repro.kernel.perf.subsystem import PerfSubsystem
from repro.kernel.procfs import ProcFs
from repro.kernel.sysfs import SysFs
from repro.sim.engine import Machine


class System:
    """A booted simulated machine."""

    def __init__(
        self,
        spec: Union[MachineSpec, str],
        dt_s: float = 0.01,
        seed: int = 0,
        migrate_jitter: float = 0.0,
        rebalance_jitter: float = 0.0,
        expose_cpu_types: bool = False,
        engine: str = "events",
        trace=None,
    ):
        if isinstance(spec, str):
            try:
                spec = MACHINE_PRESETS[spec]()
            except KeyError:
                raise ValueError(
                    f"unknown machine preset {spec!r}; "
                    f"known: {sorted(MACHINE_PRESETS)}"
                ) from None
        self.spec = spec
        self.machine = Machine(
            spec,
            dt_s=dt_s,
            seed=seed,
            migrate_jitter=migrate_jitter,
            rebalance_jitter=rebalance_jitter,
            engine=engine,
            trace=trace,
        )
        self.perf = PerfSubsystem(self.machine)
        self.sysfs = SysFs(self.machine, self.perf, expose_cpu_types=expose_cpu_types)
        self.procfs = ProcFs(self.machine)

    @property
    def topology(self):
        return self.machine.topology

    @property
    def tracer(self):
        """The structured-trace collector, or ``None`` when tracing is off.

        Enable with ``System(..., trace=True)`` (all categories), a list
        of category names, or a :class:`repro.trace.TraceConfig`.
        """
        return self.machine.tracer

    # -- checkpoint/restore --------------------------------------------------

    def save(self, path: str, meta: Optional[dict] = None) -> dict:
        """Snapshot the whole system to ``path`` (atomic, versioned).

        The snapshot carries every stateful layer — topology and
        hotplug state, DVFS/thermal/RAPL, scheduler run-queues and RNG,
        thread state including in-flight phases and closures, all perf
        event contexts, fault-plan progress — such that
        ``System.restore(path)`` followed by running is bit-identical to
        never having snapshotted.  Returns the snapshot header.
        """
        from repro.checkpoint.snapshot import save_object

        merged = {
            "kind": "system",
            "spec": self.spec.name,
            "sim_time_s": self.machine.now_s,
            "ticks": self.machine.clock.ticks,
            "engine": self.machine.engine,
            "state_digest": self.state_digest(),
        }
        if meta:
            merged.update(meta)
        header = save_object(self, path, meta=merged)
        self.machine.last_checkpoint_path = path
        return header

    @classmethod
    def restore(cls, path: str) -> "System":
        """Load a snapshot written by :meth:`save`.  The restored system
        carries all its state, its kernel's next perf event id included,
        so restoring leaves every other system in the process as it was.
        """
        from repro.checkpoint.snapshot import SnapshotError, load_object

        obj = load_object(path)
        if not isinstance(obj, cls):
            raise SnapshotError(
                f"{path} holds a {type(obj).__name__}, not a System; "
                "use repro.checkpoint.load_object for composite snapshots"
            )
        obj.machine.last_checkpoint_path = path
        return obj

    def state_digest(self) -> str:
        """Stable hash over the snapshot surface (see
        :mod:`repro.checkpoint.digest`).  Two systems digest equal iff
        their observable simulated state is bit-identical; engine
        selection (``engine``) is excluded, so single-tick and
        event-driven runs of one workload must digest equal."""
        from repro.checkpoint.digest import state_digest

        return state_digest(self)

    # -- fault injection -----------------------------------------------------

    def offline_cpu(self, cpu_id: int) -> None:
        """Hotplug a CPU offline (``echo 0 > .../cpuN/online``)."""
        self.machine.offline_cpu(cpu_id)

    def online_cpu(self, cpu_id: int) -> None:
        """Bring a hotplugged CPU back online."""
        self.machine.online_cpu(cpu_id)

    def inject_faults(self, plan):
        """Attach a :class:`~repro.faults.plan.FaultPlan`; returns the
        live :class:`~repro.faults.injector.FaultInjector`."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, plan)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"System({self.spec.name!r}, t={self.machine.now_s:.3f}s)"
