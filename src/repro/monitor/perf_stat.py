"""A miniature ``perf stat`` over the simulated kernel.

This is the tool the paper contrasts PAPI with: on a heterogeneous
machine it opens one event *per core-type PMU* and reports them all,
with time_enabled/time_running scaling — straightforward, but aggregate
only (no calipering) and needing one read syscall per PMU.

Two modes, like the real tool:

* per-thread (``perf stat <cmd>``): events follow given threads;
* system-wide (``perf stat -a``): one event per (CPU, matching PMU).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Optional, Sequence

from repro.kernel.perf.attr import PerfEventAttr
from repro.kernel.perf.subsystem import PerfIoctl
from repro.pfmlib.library import Pfmlib
from repro.sim.task import SimThread
from repro.system import System


@dataclass
class PerfStatCount:
    """One (event, pmu) line of perf stat output."""

    event: str
    pmu: str
    raw: float
    scaled: float
    time_enabled_s: float
    time_running_s: float

    @property
    def multiplexed(self) -> bool:
        return self.time_running_s < self.time_enabled_s * 0.999


@dataclass
class PerfStatResult:
    counts: list[PerfStatCount] = field(default_factory=list)

    def total(self, event: str) -> float:
        return reduce(add, (c.scaled for c in self.counts if c.event == event), 0)

    def by_pmu(self, event: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for c in self.counts:
            if c.event == event:
                out[c.pmu] = out.get(c.pmu, 0.0) + c.scaled
        return out

    def render(self) -> str:
        lines = ["    count  (scaled)        event                    pmu"]
        for c in self.counts:
            mux = " [mux]" if c.multiplexed else ""
            lines.append(
                f"{c.raw:15.0f} ({c.scaled:15.0f})  {c.event:24s} {c.pmu}{mux}"
            )
        return "\n".join(lines)


class PerfStat:
    """Counts unqualified events across every core-type PMU."""

    def __init__(self, system: System, pfm: Optional[Pfmlib] = None):
        self.system = system
        self.pfm = pfm if pfm is not None else Pfmlib(system)
        self._fds: list[tuple[int, str, str]] = []  # (fd, event label, pmu)

    # -- setup ---------------------------------------------------------------

    def open_for_threads(
        self, events: Sequence[str], threads: Sequence[SimThread]
    ) -> None:
        """Per-thread mode: every event is opened once per core PMU per
        thread, the way perf handles hybrid machines."""
        for label in events:
            for info in self.pfm.find_all_matches(label):
                attr = PerfEventAttr(
                    type=self.pfm.kernel_pmu_type(info),
                    config=info.config,
                    name=info.fullname,
                )
                for t in threads:
                    fd = self.system.perf.perf_event_open(attr, pid=t.tid, cpu=-1)
                    self._fds.append((fd, label, info.pmu.name))

    def open_system_wide(self, events: Sequence[str]) -> None:
        """``perf stat -a``: one event per CPU, on that CPU's own PMU."""
        for label in events:
            for info in self.pfm.find_all_matches(label):
                ptype = self.pfm.kernel_pmu_type(info)
                pmu = self.system.perf.registry.by_type[ptype]
                attr = PerfEventAttr(type=ptype, config=info.config, name=info.fullname)
                for cpu in pmu.cpus:
                    fd = self.system.perf.perf_event_open(attr, pid=-1, cpu=cpu)
                    self._fds.append((fd, label, info.pmu.name))

    # -- control ----------------------------------------------------------------

    def start(self) -> None:
        for fd, _, _ in self._fds:
            self.system.perf.ioctl(fd, PerfIoctl.RESET)
            self.system.perf.ioctl(fd, PerfIoctl.ENABLE)

    def stop(self) -> PerfStatResult:
        result = PerfStatResult()
        for fd, label, pmu in self._fds:
            rv = self.system.perf.read(fd)
            self.system.perf.ioctl(fd, PerfIoctl.DISABLE)
            result.counts.append(
                PerfStatCount(
                    event=label,
                    pmu=pmu,
                    raw=float(rv.value),
                    scaled=rv.scaled_value(),
                    time_enabled_s=rv.time_enabled_ns / 1e9,
                    time_running_s=rv.time_running_ns / 1e9,
                )
            )
        return result

    def close(self) -> None:
        for fd, _, _ in self._fds:
            self.system.perf.close(fd)
        self._fds.clear()


def perf_stat_threads(
    system: System,
    threads: Sequence[SimThread],
    events: Sequence[str],
    run_fn,
) -> PerfStatResult:
    """Convenience: open per-thread events, run, and report."""
    tool = PerfStat(system)
    tool.open_for_threads(events, threads)
    tool.start()
    run_fn()
    result = tool.stop()
    tool.close()
    return result
