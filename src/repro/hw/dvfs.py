"""Per-cluster dynamic voltage and frequency scaling.

The governor is schedutil-like: each cluster requests a frequency
proportional to the utilization of its busiest core (with the usual 1.25x
headroom), clipped to externally imposed *ceilings*.  Two controllers push
ceilings down: the RAPL power-cap controller (:mod:`repro.hw.rapl`) on
machines that have RAPL, and the thermal throttler
(:mod:`repro.hw.thermal`) everywhere.  The effective ceiling is the
minimum of all constraints.
"""

from __future__ import annotations

from repro.checkpoint.surface import snapshot_surface
from repro.hw.topology import CpuTopology

#: schedutil's utilization headroom: f = max_f * util * 1.25.
UTIL_HEADROOM = 1.25


@snapshot_surface(
    state=("topology", "freq_mhz", "_ceilings", "tracer"),
    caches=("_ceiling_min",),
    rebuild="_init_caches",
    digest_exclude=("tracer",),
    note="All state: per-cluster frequencies and named ceiling maps.  "
    "The tracer is a digest-excluded observer set by the machine; each "
    "cluster's effective (lowest) ceiling is derived from the maps."
)
class DvfsGovernor:
    """Tracks the operating frequency of each cluster.

    Frequencies are in MHz internally (matching sysfs ``cpuinfo_cur_freq``
    units of kHz at the presentation layer).
    """

    def __init__(self, topology: CpuTopology):
        self.topology = topology
        n = len(topology.clusters)
        # Current frequency per cluster, start at min (idle).
        self.freq_mhz: list[float] = [
            cl.ctype.min_freq_mhz for cl in topology.clusters
        ]
        # Constraint ceilings, each a dict constraint-name -> max MHz.
        self._ceilings: list[dict[str, float]] = [dict() for _ in range(n)]
        #: Trace observer, set by the owning Machine when tracing is on.
        self.tracer = None
        self._init_caches()

    def _init_caches(self) -> None:
        self._ceiling_min = [
            self._lowest(i) for i in range(len(self.topology.clusters))
        ]

    def _lowest(self, cluster: int) -> float:
        lims = self._ceilings[cluster]
        if lims:
            return min(lims.values())
        return self.topology.clusters[cluster].ctype.max_freq_mhz

    # -- constraints ------------------------------------------------------

    def set_ceiling(self, cluster: int, name: str, max_mhz: float) -> None:
        """Impose (or update) a named frequency ceiling on a cluster."""
        ct = self.topology.clusters[cluster].ctype
        # ``min(max(max_mhz, lo), hi)``, returning the same operand on
        # ties (so an int bound stays an int).
        lo = ct.min_freq_mhz
        hi = ct.max_freq_mhz
        mhz = lo if lo > max_mhz else max_mhz
        if hi < mhz:
            mhz = hi
        lims = self._ceilings[cluster]
        old = lims.get(name)
        if old == mhz and type(old) is type(mhz):
            return  # steady state: RAPL and thermal rewrite every tick
        lims[name] = mhz
        self._ceiling_min[cluster] = min(lims.values())

    def ceiling_mhz(self, cluster: int) -> float:
        return self._ceiling_min[cluster]

    # -- governor ----------------------------------------------------------

    def update(self, cluster_util: list[float]) -> None:
        """Advance one governor step.

        ``cluster_util`` is the utilization (0..1) of the busiest core in
        each cluster over the last tick.
        """
        if len(cluster_util) != len(self.topology.clusters):
            raise ValueError("one utilization value per cluster required")
        # The governor runs live on every tick of both engines (span
        # replay steps it too), so frequency-change events are emitted
        # at identical sim times under either engine.
        tr = self.tracer
        if tr is not None and not tr.dvfs:
            tr = None
        freq_mhz = self.freq_mhz
        ceiling = self._ceiling_min
        for i, cl in enumerate(self.topology.clusters):
            ct = cl.ctype
            # The clamps are ``min``/``max`` written out: the same operand
            # on ties, so an int bound stays an int.
            util = cluster_util[i] * UTIL_HEADROOM
            target = ct.max_freq_mhz * (util if util < 1.0 else 1.0)
            lo = ct.min_freq_mhz
            if lo > target:
                target = lo
            cap = ceiling[i]
            if cap < target:
                target = cap
            if tr is not None and target != freq_mhz[i]:
                tr.emit(
                    "dvfs",
                    "freq",
                    args={
                        "cluster": i,
                        "core_type": ct.name,
                        "from_mhz": freq_mhz[i],
                        "to_mhz": target,
                        "capped": target < ct.max_freq_mhz and target == cap,
                    },
                )
                tr.metrics.counter("dvfs.transitions", key=ct.name)
                tr.metrics.gauge("dvfs.freq_mhz", key=ct.name, value=target)
                tr.metrics.observe("dvfs.freq_mhz", key=ct.name, value=target)
            # Frequency transitions are effectively instantaneous at our
            # tick granularity (hardware P-state changes take microseconds).
            freq_mhz[i] = target

    def freq_of_cpu_mhz(self, cpu_id: int) -> float:
        return self.freq_mhz[self.topology.core(cpu_id).cluster]

    def freq_of_cpu_ghz(self, cpu_id: int) -> float:
        return self.freq_of_cpu_mhz(cpu_id) / 1000.0
