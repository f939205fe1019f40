"""Deterministic structured tracing and aggregated metrics.

The tracer is a *pure observer* of the simulation: layers emit semantic
events (a thread switched in, the governor changed a cluster frequency,
a perf event was rotated out) into a ring buffer, stamped with the
simulated clock.  Three contracts make it safe to thread through the
whole stack:

* **Zero overhead when disabled.**  ``Machine(trace=None)`` keeps every
  holder's ``tracer`` attribute ``None``; emission sites are guarded by
  one attribute load and a ``None`` test.

* **Pure observer.**  Emitting never mutates simulated state, and every
  holder excludes its ``tracer`` from ``state_digest`` — a traced run
  and an untraced run of the same workload digest equal, bit for bit.

* **Engine parity.**  The event engine replays steady ticks without
  running the scheduler or the perf accrual hooks, so events are either
  *transition-only* (they can only fire on ticks that end a span:
  placement changes, control ops, multiplex slot changes, PMU-mismatch
  transitions, overflow samples) or emitted from code that runs live
  during replay (DVFS, thermal, RAPL).  The parity suite asserts
  ``engine="events"`` and ``engine="ticks"`` produce identical event
  sequences.

Events are plain tuples ``(ts_s, category, name, tid, cpu, args)`` —
``tid``/``cpu`` are ``None`` when not applicable, ``args`` is ``None``
or a JSON-safe dict.  Categories and names must not contain whitespace
(the text dump in :mod:`repro.trace.export` is whitespace-delimited).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.checkpoint.surface import snapshot_surface

#: Every known event category, in emission-layer order.
CATEGORIES = ("sched", "perf", "papi", "dvfs", "thermal", "rapl", "fault")

#: One trace event: (ts_s, category, name, tid, cpu, args).
TraceEvent = tuple[float, str, str, Optional[int], Optional[int], Optional[dict]]


@dataclass(frozen=True)
@snapshot_surface(
    state=("categories", "capacity", "rapl_sample_every"),
    note="Pure configuration: enabled categories, ring capacity, and "
    "the RAPL energy-sample cadence in ticks.",
)
class TraceConfig:
    """Static tracer configuration (immutable, picklable)."""

    categories: tuple[str, ...] = CATEGORIES
    #: Ring-buffer capacity; older events are dropped (and counted).
    capacity: int = 65536
    #: Emit one RAPL energy sample every N ticks (RAPL steps per tick).
    rapl_sample_every: int = 25


def _bucket(value: float) -> int:
    """Power-of-two histogram bucket: the binary exponent of ``value``.

    ``frexp`` is exact IEEE-754 arithmetic, so bucketing is
    deterministic; non-positive values share the underflow bucket.
    """
    if value <= 0.0 or not math.isfinite(value):
        return -1075  # below the smallest subnormal exponent
    return math.frexp(value)[1]


@snapshot_surface(
    state=("counters", "gauges", "histograms"),
    note="Aggregated observability state keyed (metric name, key) — "
    "typically a core-type name.  Carried by the owning Tracer, so it "
    "shares the tracer's digest exclusion at every holder.",
)
class MetricsRegistry:
    """Counters, gauges and power-of-two histograms.

    Keys are ``(name, key)`` pairs; ``key`` is a free-form dimension,
    conventionally a core-type or PMU name so heterogeneous attribution
    falls out of the keying.
    """

    def __init__(self) -> None:
        self.counters: dict[tuple[str, Optional[str]], float] = {}
        self.gauges: dict[tuple[str, Optional[str]], float] = {}
        self.histograms: dict[tuple[str, Optional[str]], dict[int, int]] = {}

    def counter(
        self, name: str, key: Optional[str] = None, inc: float = 1.0
    ) -> None:
        k = (name, key)
        self.counters[k] = self.counters.get(k, 0.0) + inc

    def gauge(self, name: str, key: Optional[str] = None, value: float = 0.0) -> None:
        self.gauges[(name, key)] = value

    def observe(self, name: str, key: Optional[str] = None, value: float = 0.0) -> None:
        k = (name, key)
        h = self.histograms.get(k)
        if h is None:
            h = self.histograms[k] = {}
        b = _bucket(value)
        h[b] = h.get(b, 0) + 1

    def as_dict(self) -> dict:
        """JSON-able snapshot, keys flattened to ``name|key`` strings."""

        def flat(d: dict) -> dict:
            return {
                (name if key is None else f"{name}|{key}"): v
                for (name, key), v in sorted(
                    d.items(), key=lambda item: (item[0][0], item[0][1] or "")
                )
            }

        return {
            "counters": flat(self.counters),
            "gauges": flat(self.gauges),
            "histograms": {
                k: {str(b): n for b, n in sorted(h.items())}
                for k, h in flat(self.histograms).items()
            },
        }


@snapshot_surface(
    state=(
        "clock",
        "config",
        "events",
        "dropped",
        "metrics",
        "sched",
        "perf",
        "papi",
        "dvfs",
        "thermal",
        "rapl",
        "fault",
        "_rapl_left",
    ),
    note="The tracer is serialized (a restored run carries its prefix "
    "events, so checkpoint stitching is automatic) but every holder "
    "digest-excludes it: tracing is a pure observer and must not "
    "perturb state_digest parity.",
)
class Tracer:
    """Ring-buffered event sink plus aggregated metrics.

    Per-category enablement is exposed as plain bool attributes
    (``tracer.sched`` ...) so hot emission sites pay one attribute load,
    not a set lookup.
    """

    def __init__(self, clock, config: Optional[TraceConfig] = None) -> None:
        if config is None:
            config = TraceConfig()
        bad = [c for c in config.categories if c not in CATEGORIES]
        if bad:
            raise ValueError(
                f"unknown trace categories {bad}; known: {list(CATEGORIES)}"
            )
        self.clock = clock
        self.config = config
        self.events: deque = deque(maxlen=config.capacity)
        self.dropped = 0
        self.metrics = MetricsRegistry()
        enabled = frozenset(config.categories)
        # Explicit per-category flags (not a setattr loop) so the
        # SURFACE-DECL contract sees every attribute this class owns.
        self.sched = "sched" in enabled
        self.perf = "perf" in enabled
        self.papi = "papi" in enabled
        self.dvfs = "dvfs" in enabled
        self.thermal = "thermal" in enabled
        self.rapl = "rapl" in enabled
        self.fault = "fault" in enabled
        self._rapl_left = 1

    # -- emission -----------------------------------------------------------

    def emit(
        self,
        cat: str,
        name: str,
        tid: Optional[int] = None,
        cpu: Optional[int] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Append one event stamped with the current simulated time.

        Callers are responsible for the category-enabled check (it is
        the zero-overhead guard); ``args`` must be JSON-safe.
        """
        events = self.events
        if len(events) == events.maxlen:
            self.dropped += 1
        events.append((self.clock.now_s, cat, name, tid, cpu, args))

    def rapl_sample(self, rapl, package_w: float) -> None:
        """Cadenced RAPL energy sample, called from ``RaplPackage.step``.

        The cadence counter lives *here* (not in RAPL state) so it is
        digest-excluded with the tracer; RAPL steps every tick on both
        engine paths, so the cadence is path-identical.
        """
        self._rapl_left -= 1
        if self._rapl_left > 0:
            return
        self._rapl_left = self.config.rapl_sample_every
        self.emit(
            "rapl",
            "energy",
            args={
                "package_j": rapl.package.energy_j,
                "cores_j": rapl.cores.energy_j,
                "dram_j": rapl.dram.energy_j,
                "package_w": package_w,
            },
        )
        m = self.metrics
        m.gauge("rapl.energy_j", key=rapl.package.name, value=rapl.package.energy_j)
        m.observe("rapl.package_w", key=rapl.package.name, value=package_w)

    # -- introspection ------------------------------------------------------

    def events_list(self) -> list[TraceEvent]:
        return list(self.events)

    def by_category(self, cat: str) -> list[TraceEvent]:
        return [ev for ev in self.events if ev[1] == cat]

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def summary(self) -> dict:
        """JSON-able run summary: volumes per category plus metrics."""
        per_cat: dict[str, int] = {}
        for ev in self.events:
            per_cat[ev[1]] = per_cat.get(ev[1], 0) + 1
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "by_category": dict(sorted(per_cat.items())),
            "metrics": self.metrics.as_dict(),
        }


def make_tracer(trace, clock) -> Optional[Tracer]:
    """Normalize the ``System(trace=...)`` argument.

    ``None``/``False`` disable tracing; ``True`` enables everything;
    a :class:`TraceConfig` is used as-is; a sequence of category names
    enables just those categories.
    """
    if trace is None or trace is False:
        return None
    if trace is True:
        return Tracer(clock)
    if isinstance(trace, TraceConfig):
        return Tracer(clock, trace)
    if isinstance(trace, Tracer):
        raise TypeError(
            "pass a TraceConfig (or True), not a Tracer: the tracer is "
            "bound to the machine's clock at construction"
        )
    if isinstance(trace, (list, tuple)):
        return Tracer(clock, TraceConfig(categories=tuple(trace)))
    raise TypeError(f"unsupported trace argument {trace!r}")
