"""The PAPI library facade.

:class:`Papi` is the user-facing API: EventSet lifecycle
(create/attach/add/start/stop/read/reset/accum/cleanup/destroy), preset
resolution (including derived multi-PMU presets on heterogeneous
machines), hardware info, and component management.

``mode`` selects the perf_event component behaviour: ``"hybrid"`` (the
paper's patched PAPI) or ``"legacy"`` (PAPI 7.1).  In legacy mode on a
heterogeneous machine, unqualified event names and presets fail — the
paper's observation that old PAPI "did not handle this case well and
would give an error or possibly even crash" (we always give the error,
never the crash).
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Optional, Sequence, TYPE_CHECKING

from repro.checkpoint.surface import snapshot_surface
from repro.papi.component import Component, RaplComponent, UncoreComponent
from repro.papi.consts import PRESETS, PapiErrorCode, PapiState, pmu_family
from repro.papi.error import PapiError
from repro.papi.eventset import EventEntry, EventSet
from repro.papi.hwinfo import PapiHardwareInfo, get_hardware_info
from repro.papi.perf_event_component import PerfEventComponent
from repro.papi.sysdetect import DetectionReport, detect_core_types
from repro.pfmlib.library import EventInfo, Pfmlib, PfmError
from repro.system import System

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.task import SimThread


@snapshot_surface(
    state=(
        "system",
        "mode",
        "pfm",
        "_csv_presets",
        "perf_event",
        "perf_event_uncore",
        "components",
        "rapl",
        "_eventsets",
        "_next_esid",
        "_started",
        "_overflow_handlers",
        "_overflow_hook_installed",
    ),
    note="All state: eventsets (ids, entries, attach targets, "
    "multiplex flags, open fds into the perf subsystem), components "
    "and preset tables.  Snapshot a Papi together with its system in "
    "one composite payload so the shared references stay shared."
)
class Papi:
    """One initialized PAPI library instance bound to a system."""

    def __init__(
        self,
        system: System,
        mode: str = "hybrid",
        pfm: Optional[Pfmlib] = None,
        preset_csv: Optional[str] = None,
    ):
        if mode not in ("hybrid", "legacy"):
            raise ValueError(f"unknown PAPI mode {mode!r}")
        self.system = system
        self.mode = mode
        self.pfm = pfm if pfm is not None else Pfmlib(system)
        # Optional PAPI_events.csv preset definitions (§V-2); these take
        # precedence over the built-in preset table.
        self._csv_presets: dict = {}
        if preset_csv is not None:
            from repro.papi.events_csv import load_preset_table, parse_events_csv

            self._csv_presets = load_preset_table(
                parse_events_csv(preset_csv),
                self.pfm,
                hybrid_aware=(mode == "hybrid"),
            )
        self.perf_event = PerfEventComponent(0, system, self.pfm, mode=mode)
        self.perf_event_uncore = UncoreComponent(1, system, self.pfm)
        self.components: list[Component] = [self.perf_event, self.perf_event_uncore]
        if system.spec.has_rapl:
            self.rapl = RaplComponent(2, system, self.pfm)
            self.components.append(self.rapl)
        self._eventsets: dict[int, EventSet] = {}
        self._next_esid = 1
        self._started: set[int] = set()
        self._overflow_handlers: dict[int, tuple] = {}
        self._overflow_hook_installed = False

    # -- tracing --------------------------------------------------------------

    def _trace(self, call: str, esid: Optional[int] = None, tid=None, **args) -> None:
        """Emit one ``("papi", call)`` event when PAPI tracing is on.

        Values are sanitized for the exporters: non-finite floats (NaN
        reads after sensor dropouts) become ``None`` so dumps stay
        strict JSON and compare equal across runs.  PAPI calls happen
        between ticks (control operations kill any pending tick
        recording), so emission is engine-parity-safe by construction.
        """
        tr = self.system.machine.tracer
        if tr is None or not tr.papi:
            return
        payload: dict = {}
        if esid is not None:
            payload["esid"] = esid
        for key, value in args.items():
            if isinstance(value, float) and not math.isfinite(value):
                value = None
            elif isinstance(value, list):
                value = [
                    None
                    if isinstance(v, float) and not math.isfinite(v)
                    else v
                    for v in value
                ]
            payload[key] = value
        tr.emit("papi", call, tid=tid, args=payload)
        tr.metrics.counter("papi.calls", key=call)

    # -- EventSet lifecycle ---------------------------------------------------

    def create_eventset(self) -> int:
        es = EventSet(esid=self._next_esid)
        self._next_esid += 1
        self._eventsets[es.esid] = es
        self._trace("create_eventset", esid=es.esid)
        return es.esid

    def eventset(self, esid: int) -> EventSet:
        es = self._eventsets.get(esid)
        if es is None:
            raise PapiError(PapiErrorCode.ENOEVST, f"no EventSet #{esid}")
        return es

    def attach(self, esid: int, thread: "SimThread") -> None:
        es = self.eventset(esid)
        self._require_stopped(es)
        if es.entries:
            raise PapiError(
                PapiErrorCode.EINVAL,
                "cannot re-attach an EventSet that already has events",
            )
        es.attached = thread
        self._trace("attach", esid=esid, tid=thread.tid)

    def set_multiplex(self, esid: int) -> None:
        es = self.eventset(esid)
        self._require_stopped(es)
        if es.entries:
            raise PapiError(
                PapiErrorCode.EINVAL,
                "PAPI_set_multiplex must be called before events are added",
            )
        es.multiplexed = True
        self._trace("set_multiplex", esid=esid)

    def cleanup_eventset(self, esid: int, caller: Optional["SimThread"] = None) -> None:
        es = self.eventset(esid)
        self._require_stopped(es)
        if es.component is not None:
            es.component.cleanup(es, caller)
        es.entries.clear()
        es.component = None
        self._started.discard(esid)
        self._trace("cleanup_eventset", esid=esid)

    def destroy_eventset(self, esid: int, caller: Optional["SimThread"] = None) -> None:
        es = self.eventset(esid)
        if es.entries:
            self.cleanup_eventset(esid, caller)
        del self._eventsets[esid]
        self._trace("destroy_eventset", esid=esid)

    # -- adding events -----------------------------------------------------------

    def add_event(
        self,
        esid: int,
        name: str,
        caller: Optional["SimThread"] = None,
        component: Optional[str] = None,
    ) -> None:
        """Add a preset or native event to an EventSet.

        ``component`` forces a specific component by name — the
        backwards-compatibility path §V-3 worries about: workflows with
        ``perf_event_uncore`` hardcoded keep working even in hybrid mode,
        where uncore events would otherwise join the combined EventSet.
        """
        es = self.eventset(esid)
        self._require_stopped(es)
        if name.startswith("PAPI_"):
            if component is not None:
                raise PapiError(
                    PapiErrorCode.EINVAL, "presets cannot be routed by component"
                )
            self._add_preset(es, name, caller)
        else:
            self._add_native(es, name, caller, component)
        self._trace("add_event", esid=esid, event=name)

    def add_events(
        self, esid: int, names: Sequence[str], caller: Optional["SimThread"] = None
    ) -> None:
        for name in names:
            self.add_event(esid, name, caller)

    def _component_for(self, info: EventInfo) -> Component:
        if self.mode == "hybrid":
            return self.perf_event
        if info.pmu.name == "rapl":
            if not self.system.spec.has_rapl:
                raise PapiError(PapiErrorCode.ECMP, "machine has no RAPL")
            return self.rapl
        if not info.pmu.is_core:
            return self.perf_event_uncore
        return self.perf_event

    def _bind_component(self, es: EventSet, component: Component) -> None:
        if es.component is None:
            es.component = component
        elif es.component is not component:
            raise PapiError(
                PapiErrorCode.ECNFLCT,
                f"EventSet #{es.esid} belongs to component "
                f"{es.component.name!r}; cannot add {component.name!r} events",
            )

    def _component_by_name(self, name: str) -> Component:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise PapiError(PapiErrorCode.ENOCMP, f"no component named {name!r}")

    def _add_native(
        self, es: EventSet, name: str, caller, component_name: Optional[str] = None
    ) -> None:
        try:
            matches = self.pfm.find_all_matches(name)
        except (PfmError, ValueError) as exc:
            raise PapiError(PapiErrorCode.ENOEVNT, str(exc)) from None
        if len(matches) > 1:
            info = self._pick_default(matches, what=name)
        else:
            info = matches[0]
        if component_name is not None:
            component = self._component_by_name(component_name)
            if not component.supports(info):
                raise PapiError(
                    PapiErrorCode.ECMP,
                    f"component {component_name!r} cannot count {info.fullname}",
                )
        else:
            component = self._component_for(info)
        self._bind_component(es, component)
        slot = component.add_slot(es, info, caller)
        es.entries.append(
            EventEntry(name=name, is_preset=False, slot_indices=[slot])
        )

    def _pick_default(self, matches: list[EventInfo], what: str) -> EventInfo:
        """Resolve an unqualified name that matched several default PMUs.

        Legacy PAPI fails here (§IV-D); the patched library hard-codes a
        preference for the "big" core type's PMU, as the paper does for
        Raptor Lake's P-core.
        """
        if self.mode == "legacy":
            raise PapiError(
                PapiErrorCode.EMISC,
                f"{what!r} matches {len(matches)} default PMUs "
                f"({', '.join(m.pmu.name for m in matches)}); unpatched PAPI "
                "cannot handle multiple default PMUs",
            )
        ranking = self._pmu_capacity_ranking()
        return max(matches, key=lambda m: ranking.get(m.pmu.name, -1))

    def _pmu_capacity_ranking(self) -> dict[str, float]:
        topo = self.system.topology
        return {
            ct.pfm_pmu: ct.capacity * ct.max_freq_mhz for ct in topo.core_types
        }

    def _preset_natives(self, name: str) -> list[EventInfo]:
        """The native events preset ``name`` counts on this system: its
        ``preset_csv`` definition if it has one, else the built-in table
        mapped onto every default core PMU.  Raises :class:`PapiError`
        when the preset resolves to nothing addable."""
        resolved = self._csv_presets.get(name)
        if resolved is not None:
            natives = list(resolved.natives)
            missing = f"{name}: no CSV-defined native event is available"
        else:
            spec = PRESETS.get(name)
            if spec is None:
                raise PapiError(PapiErrorCode.ENOTPRESET, f"unknown preset {name!r}")
            defaults = self.pfm.default_pmus()
            if not defaults:
                raise PapiError(PapiErrorCode.ENOCMP, "no core PMU detected")
            if self.mode == "legacy" and len(defaults) > 1:
                raise PapiError(
                    PapiErrorCode.EMISC,
                    f"{name}: presets are ambiguous with {len(defaults)} default "
                    "PMUs; unpatched PAPI cannot map presets on heterogeneous "
                    "machines",
                )
            natives = [
                f"{table.name}::{spec[pmu_family(table.name)]}"
                for table in defaults
                if pmu_family(table.name) in spec
            ]
            missing = f"{name} maps to no available native event"
        infos: list[EventInfo] = []
        for native in natives:
            try:
                infos.append(self.pfm.find_event(native))
            except PfmError:
                continue
        if not infos:
            raise PapiError(PapiErrorCode.ENOEVNT, missing)
        return infos

    def _add_preset(self, es: EventSet, name: str, caller) -> None:
        infos = self._preset_natives(name)
        self._bind_component(es, self.perf_event)
        slots = [self.perf_event.add_slot(es, info, caller) for info in infos]
        es.entries.append(
            EventEntry(
                name=name,
                is_preset=True,
                slot_indices=slots,
                derived="DERIVED_ADD" if len(slots) > 1 else "NOT_DERIVED",
            )
        )

    def query_event(self, name: str) -> bool:
        """Whether ``name`` could be added on this system (PAPI_query_event).

        Presets resolve exactly as :meth:`add_event` resolves them."""
        try:
            if name.startswith("PAPI_"):
                self._preset_natives(name)
            else:
                self.pfm.find_all_matches(name)
            return True
        except (PapiError, PfmError, ValueError):
            return False

    # -- counting -----------------------------------------------------------------

    def _require_stopped(self, es: EventSet) -> None:
        if es.running:
            raise PapiError(
                PapiErrorCode.EISRUN, f"EventSet #{es.esid} is currently counting"
            )

    def start(self, esid: int, caller: Optional["SimThread"] = None) -> None:
        es = self.eventset(esid)
        self._require_stopped(es)
        if not es.entries or es.component is None:
            raise PapiError(PapiErrorCode.EINVAL, "EventSet has no events")
        es.component.start(es, caller)
        es.state = PapiState.RUNNING
        self._started.add(esid)
        self._trace("start", esid=esid, **es.trace_args())

    def stop(self, esid: int, caller: Optional["SimThread"] = None) -> list[float]:
        es = self.eventset(esid)
        if not es.running:
            raise PapiError(
                PapiErrorCode.ENOTRUN, f"EventSet #{esid} is not running"
            )
        slot_values = es.component.stop(es, caller)
        es.state = PapiState.STOPPED
        values = self._combine(es, slot_values)
        self._trace("stop", esid=esid, values=values)
        return values

    def read(self, esid: int, caller: Optional["SimThread"] = None) -> list[float]:
        es = self.eventset(esid)
        if esid not in self._started:
            raise PapiError(
                PapiErrorCode.ENOTRUN, f"EventSet #{esid} was never started"
            )
        values = self._combine(es, es.component.read(es, caller))
        self._trace("read", esid=esid, values=values)
        return values

    def last_status(self, esid: int) -> int:
        """Status of the EventSet's most recent read/stop: ``PAPI_OK`` or
        ``PapiErrorCode.ECNFLCT`` when some counters degraded to NaN."""
        return self.eventset(esid).last_status

    def reset(self, esid: int, caller: Optional["SimThread"] = None) -> None:
        es = self.eventset(esid)
        if es.component is None:
            raise PapiError(PapiErrorCode.EINVAL, "EventSet has no events")
        es.component.reset(es, caller)
        self._trace("reset", esid=esid)

    def accum(
        self,
        esid: int,
        values: list[float],
        caller: Optional["SimThread"] = None,
    ) -> list[float]:
        """PAPI_accum: add current counts into ``values``, then reset."""
        current = self.read(esid, caller)
        if len(values) != len(current):
            raise PapiError(
                PapiErrorCode.EINVAL,
                f"accum buffer has {len(values)} entries, EventSet has "
                f"{len(current)}",
            )
        out = [a + b for a, b in zip(values, current)]
        self.reset(esid, caller)
        self._trace("accum", esid=esid, values=out)
        return out

    def _combine(self, es: EventSet, slot_values: list[float]) -> list[float]:
        return [
            reduce(add, (slot_values[i] for i in entry.slot_indices), 0)
            for entry in es.entries
        ]

    # -- overflow (PAPI_overflow) ---------------------------------------------------

    def overflow(
        self,
        esid: int,
        event_name: str,
        threshold: int,
        handler,
        caller: Optional["SimThread"] = None,
    ) -> None:
        """PAPI_overflow: call ``handler(esid, sample)`` every
        ``threshold`` counted events.

        On a heterogeneous machine a derived preset's overflow fires from
        whichever core-type PMU is counting — each backing slot samples
        independently.  ``threshold=0`` disables overflow delivery.
        """
        es = self.eventset(esid)
        if not isinstance(es.component, PerfEventComponent):
            raise PapiError(
                PapiErrorCode.ECMP, "overflow requires a perf_event EventSet"
            )
        try:
            entry_index = next(
                i for i, e in enumerate(es.entries) if e.name == event_name
            )
        except StopIteration:
            raise PapiError(
                PapiErrorCode.ENOEVNT,
                f"{event_name!r} is not in EventSet #{esid}",
            ) from None
        fds = es.component.set_overflow(es, entry_index, threshold, caller)
        self._trace("overflow", esid=esid, event=event_name, threshold=threshold)
        self._overflow_handlers.pop(esid, None)
        if threshold > 0:
            self._overflow_handlers[esid] = (handler, fds)
            self._install_overflow_hook()

    def _install_overflow_hook(self) -> None:
        if self._overflow_hook_installed:
            return
        self._overflow_hook_installed = True

        def drain(machine):
            for esid, (handler, fds) in list(self._overflow_handlers.items()):
                for fd in fds:
                    try:
                        ev = self.system.perf._event(fd)
                    except Exception:
                        continue
                    for sample in ev.read_samples():
                        handler(esid, sample)

        self.system.machine.tick_hooks.append(drain)
        # Sampling accruals mark the tick recorder unsteady, so a steady
        # replayed span can never have pending samples for drain to
        # deliver — skipping it during replay is a no-op.
        self.system.machine.mark_hook_fastpath_safe(drain)

    # -- information -------------------------------------------------------------

    def get_real_usec(self) -> int:
        """PAPI_get_real_usec: wall-clock (simulated) microseconds."""
        return int(self.system.machine.now_s * 1e6)

    def get_real_cyc(self) -> int:
        """PAPI_get_real_cyc: TSC-equivalent cycles."""
        return int(self.system.machine.now_s * self.system.machine.tsc_ghz * 1e9)

    def get_virt_usec(self, thread: "SimThread") -> int:
        """PAPI_get_virt_usec: the thread's own CPU time in microseconds."""
        return int(thread.total_runtime_s * 1e6)

    def get_component_info(self, cmp_id: int) -> dict:
        """PAPI_get_component_info-style summary."""
        try:
            comp = self.components[cmp_id]
        except IndexError:
            raise PapiError(
                PapiErrorCode.ENOCMP, f"no component with index {cmp_id}"
            ) from None
        num_native = sum(
            1
            for name in self.pfm.list_events()
            if comp.supports(self.pfm.find_event(name))
        )
        return {
            "name": comp.name,
            "cmp_id": comp.cmp_id,
            "num_native_events": num_native,
            "mode": getattr(comp, "mode", None),
        }

    def get_hardware_info(self) -> PapiHardwareInfo:
        return get_hardware_info(self.system)

    def sysdetect(self) -> DetectionReport:
        return detect_core_types(self.system)

    def num_components(self) -> int:
        return len(self.components)

    def list_events(self, pmu: Optional[str] = None) -> list[str]:
        return list(self.pfm.list_events(pmu))

    def num_groups(self, esid: int) -> int:
        """perf event groups backing the EventSet (§V-5 overhead metric)."""
        es = self.eventset(esid)
        if isinstance(es.component, PerfEventComponent):
            return es.component.num_groups(es)
        return len(es.entries)
