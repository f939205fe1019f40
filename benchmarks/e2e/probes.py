"""Outside-in instrumentation for one benchmark rep.

Nothing under ``src/`` changes: a :class:`Probe` replaces public
callables on their classes (and on every module that imported a
function by name) for the lifetime of the rep process, which runs one
workload and exits.

Every rep installs the cheap half:

* a registry of every :class:`~repro.system.System` the workload builds.
  When a System is garbage collected, or at the end of the rep, its
  observable state (``clock.ticks``, RAPL package energy, every thread's
  ``counters_total()``) is digested for the output fingerprint and its
  retired instructions are summed for ``sim_instr_per_s``;
* a call counter on ``Machine.tick``: the number of full (non-replayed)
  ticks, which the traced rep must reproduce exactly.

A traced rep (``Probe(traced=True)``) also wraps each layer's public
functions in ``perf_counter_ns`` accumulators that keep calls, total
time and self time (total minus the time of wrapped callees), and
records coarse spans for a Chrome trace-event file.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import time
import weakref
from typing import Callable, Optional

from repro.hw.coretype import ArchEvent
from repro.system import System
from repro.sim.engine import Machine

_INSTRUCTIONS = int(ArchEvent.INSTRUCTIONS)


def _layer_targets() -> list[tuple[str, object, tuple[str, ...], tuple]]:
    """(layer key, owner class or module, public function names,
    exceptions counted as errors) for every accumulator of the traced rep."""
    from repro.hpl import runner
    from repro.hw.dvfs import DvfsGovernor
    from repro.hw.power import PowerModel
    from repro.hw.rapl import RaplPackage
    from repro.hw.thermal import ThermalModel
    from repro.kernel.errno import KernelError
    from repro.kernel.perf.subsystem import PerfSubsystem
    from repro.kernel.sched.scheduler import Scheduler
    from repro.papi.error import PapiError
    from repro.papi.library import Papi
    from repro.pfmlib.library import Pfmlib
    from repro.sim.task import SimThread
    from repro.supervisor.journal import Journal
    from repro.supervisor.supervisor import Supervisor
    from repro.validate import harness

    return [
        ("sim.tick", Machine, ("tick",), ()),
        ("sim.run", Machine, ("run_ticks", "run_until"), ()),
        ("sim.account", SimThread, ("account",), ()),
        ("sched.schedule", Scheduler, ("schedule",), ()),
        ("hw.power", PowerModel, ("sample_activity",), ()),
        ("hw.rapl", RaplPackage, ("step",), ()),
        ("hw.thermal", ThermalModel, ("step", "apply_throttling"), ()),
        ("hw.dvfs", DvfsGovernor, ("update",), ()),
        (
            "perf.syscall",
            PerfSubsystem,
            ("perf_event_open", "ioctl", "read", "close"),
            (KernelError,),
        ),
        (
            "papi",
            Papi,
            (
                "create_eventset",
                "attach",
                "set_multiplex",
                "add_event",
                "add_events",
                "query_event",
                "start",
                "stop",
                "read",
                "reset",
                "accum",
                "overflow",
                "last_status",
                "cleanup_eventset",
                "destroy_eventset",
            ),
            (PapiError,),
        ),
        # PAPI resolves and encodes events through these rather than
        # through the libpfm4-style get_os_event_encoding wrapper.
        (
            "pfmlib",
            Pfmlib,
            ("find_event", "find_all_matches", "kernel_pmu_type", "get_os_event_encoding"),
            (),
        ),
        ("hpl.run", runner, ("run_hpl",), ()),
        ("hpl.start", runner, ("start_hpl",), ()),
        ("validate", harness, ("run_validation",), ()),
        ("supervisor.run", Supervisor, ("run",), ()),
        ("supervisor.journal", Journal, ("append", "append_many"), ()),
    ]


#: Layers whose calls also become spans in the Chrome trace.
_SPAN_LAYERS = ("hpl.run", "validate", "supervisor.run")


class Probe:
    """Instruments the current process for one rep; see the module doc."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.ticks_full = 0
        #: layer key -> [calls, total_ns, self_ns, errors]
        self.layers: dict[str, list[int]] = {}
        self.spans: list[dict] = []
        self._stack = [0]  # child time of each open accumulator frame
        self._t0_ns = time.perf_counter_ns()
        #: Per System, in construction order: (digest, ticks, instructions).
        self._systems: list[Optional[tuple[bytes, int, float]]] = []
        self._finalizers: list[weakref.finalize] = []
        self._install()

    # -- installation ---------------------------------------------------------

    def _install(self) -> None:
        original_init = System.__init__

        def init(system, *args, **kwargs):
            original_init(system, *args, **kwargs)
            self._adopt(system)

        System.__init__ = init  # type: ignore[method-assign]

        if self.traced:
            for key, owner, names, errors in _layer_targets():
                for name in names:
                    _replace(owner, name, self.wrap(key, getattr(owner, name), errors))
        tick = Machine.tick

        def counted_tick(machine):
            self.ticks_full += 1
            if self.traced:
                self._wrap_hooks(machine)
            return tick(machine)

        Machine.tick = counted_tick  # type: ignore[method-assign]

    def wrap(self, key: str, fn: Callable, errors: tuple = ()) -> Callable:
        """``fn`` with its calls, total time and self time accumulated
        under ``key`` (and failures raising one of ``errors`` counted)."""
        acc = self.layers.setdefault(key, [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        span = key in _SPAN_LAYERS

        def timed(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except errors:
                acc[3] += 1
                raise
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - child
                if span:
                    label = args[0] if args and isinstance(args[0], str) else key
                    self.add_span(label, key, t0, dur)

        return timed

    def _wrap_hooks(self, machine: Machine) -> None:
        """Time every account/tick hook of ``machine`` as ``perf.hook``.

        A hook the machine trusts during macro-tick replay is re-marked
        for its wrapper, so replay eligibility (and hence the count of
        full ticks) is the same as in an untraced rep.
        """
        for hooks in (machine.account_hooks, machine.tick_hooks):
            for i, hook in enumerate(hooks):
                if getattr(hook, "e2e_probe", False):
                    continue
                wrapper = self.wrap("perf.hook", hook)
                wrapper.e2e_probe = True  # type: ignore[attr-defined]
                # The safe list is private; membership is the only way to
                # learn whether the machine marked the original.
                if hook in machine._fastpath_safe_hooks:
                    machine.mark_hook_fastpath_safe(wrapper)
                hooks[i] = wrapper

    # -- spans ----------------------------------------------------------------

    def add_span(self, name: str, cat: str, t0_ns: int, dur_ns: int) -> None:
        self.spans.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": (t0_ns - self._t0_ns) / 1e3,
                "dur": dur_ns / 1e3,
                "pid": 1,
                "tid": 1,
            }
        )

    def write_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.spans, "displayTimeUnit": "ms"}, fh)

    # -- the System registry ---------------------------------------------------

    def _adopt(self, system: System) -> None:
        index = len(self._systems)
        self._systems.append(None)
        self._finalizers.append(
            weakref.finalize(system, self._absorb, index, system.machine)
        )

    def _absorb(self, index: int, machine: Machine) -> None:
        h = hashlib.sha256()
        h.update(struct.pack("<qd", machine.clock.ticks, machine.rapl.package.energy_j))
        instructions = 0.0
        for thread in machine.threads:
            total = thread.counters_total()
            h.update(total.tobytes())
            instructions += float(total[_INSTRUCTIONS])
        self._systems[index] = (h.digest(), machine.clock.ticks, instructions)

    def finish_systems(self) -> tuple[list[bytes], int, float]:
        """Digest every System still alive; returns (per-System digests in
        construction order, total simulated ticks, total instructions)."""
        for fin in self._finalizers:
            fin()
        done = [s for s in self._systems if s is not None]
        return (
            [d for d, _, _ in done],
            sum(t for _, t, _ in done),
            sum(i for _, _, i in done),
        )


def _replace(owner: object, name: str, new: Callable) -> None:
    """Rebind ``owner.name``; for a module function, also every module
    that imported it by name (``from repro.hpl import run_hpl``)."""
    old = getattr(owner, name)
    setattr(owner, name, new)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        if module is not None and getattr(module, name, None) is old:
            setattr(module, name, new)
