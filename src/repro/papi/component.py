"""PAPI component framework, plus the two legacy auxiliary components.

PAPI exposes counters through *components*; an EventSet belongs to
exactly one, and only one EventSet per component may be running at a
time (the constraint that defeats the "just make two EventSets"
workaround in §IV-E).

Besides the central perf_event component
(:mod:`repro.papi.perf_event_component`) we implement the two legacy
companions the paper discusses:

* ``perf_event_uncore`` — the separate uncore component that exists
  *because* pre-patch EventSets could not mix PMU types (§V-3 asks
  whether it can be retired once hybrid EventSets land);
* ``rapl`` — energy readings via the powercap sysfs tree, used by the
  monitoring scripts.
"""

from __future__ import annotations

import abc
from typing import Optional, TYPE_CHECKING

from repro.kernel.errno import Errno, KernelError
from repro.kernel.perf.attr import PerfEventAttr
from repro.kernel.perf.pmu import PmuKind
from repro.papi.consts import PAPI_OK, PapiErrorCode
from repro.papi.error import PapiError
from repro.papi.eventset import EventSet
from repro.pfmlib.library import EventInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.task import SimThread
    from repro.system import System
    from repro.pfmlib.library import Pfmlib


class Component(abc.ABC):
    """Base class of PAPI components."""

    name: str = "component"

    def __init__(self, cmp_id: int, system: "System", pfm: "Pfmlib"):
        self.cmp_id = cmp_id
        self.system = system
        self.pfm = pfm
        # One running EventSet per component *per thread context* (PAPI's
        # rule; cpu-wide EventSets share a single global context, key
        # None).  This is the constraint §IV-E cites against the
        # "just make two EventSets" workaround.
        self._active: dict[Optional[int], EventSet] = {}

    def _context_key(self, es: EventSet) -> Optional[int]:
        return es.attached.tid if es.attached is not None else None

    def _require_inactive_slot(self, es: EventSet) -> None:
        key = self._context_key(es)
        current = self._active.get(key)
        if current is not None and current is not es:
            raise PapiError(
                PapiErrorCode.EISRUN,
                f"component {self.name!r} already has a running EventSet "
                f"(#{current.esid}) in this thread context; only one may "
                "be active per component at a time",
            )

    def _mark_active(self, es: EventSet) -> None:
        self._active[self._context_key(es)] = es

    def _mark_inactive(self, es: EventSet) -> None:
        key = self._context_key(es)
        if self._active.get(key) is es:
            del self._active[key]

    @abc.abstractmethod
    def supports(self, info: EventInfo) -> bool:
        """Whether this component can count the resolved event."""

    @abc.abstractmethod
    def add_slot(self, es: EventSet, info: EventInfo, caller: Optional["SimThread"]) -> int:
        """Create a native slot for ``info``; returns the slot index."""

    @abc.abstractmethod
    def start(self, es: EventSet, caller: Optional["SimThread"]) -> None: ...

    @abc.abstractmethod
    def stop(self, es: EventSet, caller: Optional["SimThread"]) -> list[float]: ...

    @abc.abstractmethod
    def read(self, es: EventSet, caller: Optional["SimThread"]) -> list[float]: ...

    @abc.abstractmethod
    def reset(self, es: EventSet, caller: Optional["SimThread"]) -> None: ...

    @abc.abstractmethod
    def cleanup(self, es: EventSet, caller: Optional["SimThread"]) -> None: ...


class UncoreComponent(Component):
    """The legacy ``perf_event_uncore`` component (separate by necessity)."""

    name = "perf_event_uncore"

    def __init__(self, cmp_id: int, system: "System", pfm: "Pfmlib"):
        super().__init__(cmp_id, system, pfm)
        self._fds: dict[int, list[int]] = {}        # esid -> fds

    def supports(self, info: EventInfo) -> bool:
        ptype = self.pfm.kernel_pmu_type(info)
        return self.system.perf.registry.by_type[ptype].kind is PmuKind.UNCORE

    def add_slot(self, es: EventSet, info: EventInfo, caller) -> int:
        if not self.supports(info):
            raise PapiError(
                PapiErrorCode.ECMP,
                f"{info.fullname} is not an uncore event",
            )
        ptype = self.pfm.kernel_pmu_type(info)
        pmu = self.system.perf.registry.by_type[ptype]
        attr = PerfEventAttr(type=ptype, config=info.config, name=info.fullname)
        fd = self.system.perf.perf_event_open(
            attr, pid=-1, cpu=pmu.cpus[0], caller=caller
        )
        fds = self._fds.setdefault(es.esid, [])
        fds.append(fd)
        return len(fds) - 1

    def _leaders(self, es: EventSet) -> list[int]:
        return self._fds.get(es.esid, [])

    def start(self, es, caller):
        from repro.kernel.perf.subsystem import PerfIoctl

        self._require_inactive_slot(es)
        for fd in self._leaders(es):
            self.system.perf.ioctl(fd, PerfIoctl.RESET, caller=caller)
            self.system.perf.ioctl(fd, PerfIoctl.ENABLE, caller=caller)
        self._mark_active(es)

    def read(self, es, caller):
        return [
            float(self.system.perf.read(fd, caller=caller).value)
            for fd in self._leaders(es)
        ]

    def stop(self, es, caller):
        from repro.kernel.perf.subsystem import PerfIoctl

        values = self.read(es, caller)
        for fd in self._leaders(es):
            self.system.perf.ioctl(fd, PerfIoctl.DISABLE, caller=caller)
        self._mark_inactive(es)
        return values

    def reset(self, es, caller):
        from repro.kernel.perf.subsystem import PerfIoctl

        for fd in self._leaders(es):
            self.system.perf.ioctl(fd, PerfIoctl.RESET, caller=caller)

    def cleanup(self, es, caller):
        for fd in self._fds.pop(es.esid, []):
            self.system.perf.close(fd, caller=caller)
        self._mark_inactive(es)


class RaplComponent(Component):
    """PAPI's rapl component: energy via the powercap sysfs tree (nJ)."""

    name = "rapl"

    _DOMAIN_PATHS = {
        "rapl::RAPL_ENERGY_PKG": "/sys/class/powercap/intel-rapl/intel-rapl:0/energy_uj",
        "rapl::RAPL_ENERGY_CORES": "/sys/class/powercap/intel-rapl/intel-rapl:0:0/energy_uj",
        "rapl::RAPL_ENERGY_DRAM": "/sys/class/powercap/intel-rapl/intel-rapl:0:1/energy_uj",
    }

    def __init__(self, cmp_id: int, system: "System", pfm: "Pfmlib"):
        super().__init__(cmp_id, system, pfm)
        self._paths: dict[int, list[str]] = {}
        self._base_uj: dict[int, list[int]] = {}

    def supports(self, info: EventInfo) -> bool:
        return info.pmu.name == "rapl"

    def _key(self, info: EventInfo) -> str:
        return f"rapl::{info.event.name}"

    def add_slot(self, es: EventSet, info: EventInfo, caller) -> int:
        if not self.supports(info):
            raise PapiError(PapiErrorCode.ECMP, f"{info.fullname} is not a RAPL event")
        path = self._DOMAIN_PATHS.get(self._key(info))
        if path is None or not self.system.sysfs.exists(path):
            raise PapiError(
                PapiErrorCode.ENOEVNT, f"no powercap domain for {info.fullname}"
            )
        paths = self._paths.setdefault(es.esid, [])
        paths.append(path)
        return len(paths) - 1

    def _read_uj(self, path: str):
        """One powercap read; a dropped-out sensor (EIO) yields None."""
        try:
            return int(self.system.sysfs.read(path))
        except KernelError as exc:
            if exc.kernel_errno is not Errno.EIO:
                raise
            return None

    def start(self, es, caller):
        self._require_inactive_slot(es)
        self._base_uj[es.esid] = [
            self._read_uj(p) for p in self._paths.get(es.esid, [])
        ]
        self._mark_active(es)

    def read(self, es, caller):
        base = self._base_uj.get(es.esid)
        if base is None:
            raise PapiError(PapiErrorCode.ENOTRUN, "EventSet not started")
        now = [self._read_uj(p) for p in self._paths.get(es.esid, [])]
        es.last_status = PAPI_OK
        # PAPI reports nanojoules; a domain whose sensor dropped out (at
        # start or now) degrades to NaN plus a PAPI_ECNFLCT status.
        values = []
        for n, b in zip(now, base):
            if n is None or b is None:
                values.append(float("nan"))
                es.last_status = PapiErrorCode.ECNFLCT
            else:
                values.append(float((n - b) * 1000))
        return values

    def stop(self, es, caller):
        values = self.read(es, caller)
        self._mark_inactive(es)
        return values

    def reset(self, es, caller):
        self._base_uj[es.esid] = [
            self._read_uj(p) for p in self._paths.get(es.esid, [])
        ]

    def cleanup(self, es, caller):
        self._paths.pop(es.esid, None)
        self._base_uj.pop(es.esid, None)
        self._mark_inactive(es)
