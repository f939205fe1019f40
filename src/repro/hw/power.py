"""Package power model.

Per-core dynamic power follows the classic ``C * f * V^2`` law with a
linear voltage/frequency curve (coefficients live on each
:class:`~repro.hw.coretype.CoreType`); idle cores burn only leakage.
Cores that are *spin-waiting* (busy-looping at a synchronization barrier,
as BLAS thread pools do) draw a configurable fraction of full busy power —
this is what makes the naive HPL variant peak at ~166 W while the
hybrid-aware variant reaches ~215 W (Figure 2).

Package power adds an uncore/fabric base and DRAM power scaled by average
machine utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from repro.checkpoint.surface import snapshot_surface
from repro.hw.machines import MachineSpec

#: Fraction of full dynamic power drawn by a core spinning at a barrier.
SPIN_POWER_FRACTION = 0.5


@dataclass
class PowerSample:
    """One tick's power breakdown, in watts."""

    package_w: float
    per_cluster_w: list[float]
    uncore_w: float
    dram_w: float

    @property
    def cores_w(self) -> float:
        # Left to right on every CPython (3.12's sum() compensates).
        return reduce(add, self.per_cluster_w, 0)


@snapshot_surface(
    state=("spec", "topology", "_phys_groups"),
    note="Stateless between ticks apart from the static physical-core "
    "grouping, which is derived from the topology and pickles as-is."
)
class PowerModel:
    """Computes instantaneous package power from per-CPU activity."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.topology = spec.topology
        # SMT siblings share a physical core's power budget; account
        # physical cores once.  The grouping is static, so precompute
        # (cluster, core type, sibling cpu ids) per physical core.
        seen_phys: dict[int, list[int]] = {}
        for core in self.topology.cores:
            seen_phys.setdefault(core.phys_core, []).append(core.cpu_id)
        self._phys_groups = [
            (
                self.topology.core(cpu_ids[0]).cluster,
                self.topology.core(cpu_ids[0]).ctype,
                cpu_ids,
            )
            for cpu_ids in seen_phys.values()
        ]

    def sample_activity(
        self,
        busy: list[float],
        spin: list[float],
        cluster_freq_mhz: list[float],
    ) -> PowerSample:
        """Sample from each CPU's busy and spin fractions of the last
        tick (lists of floats indexed by cpu id)."""
        clusters = self.topology.clusters
        per_cluster = [0.0] * len(clusters)
        # Each cluster's c_dyn * f * V^2 once per sample, evaluated left
        # to right as ``PowerCoefficients.core_power`` does; a core then
        # adds ``dyn * activity + leak`` exactly as ``core_power`` would.
        dyn = []
        for cl, mhz in zip(clusters, cluster_freq_mhz):
            pc = cl.ctype.power
            ghz = mhz / 1000.0
            v = pc.v0 + pc.v_slope * ghz
            dyn.append(pc.c_dyn * ghz * v * v)
        spf = SPIN_POWER_FRACTION
        for cluster, ct, cpu_ids in self._phys_groups:
            c0 = cpu_ids[0]
            primary = busy[c0] + spf * spin[c0]
            if len(cpu_ids) > 1:
                # SMT siblings: the busiest drives the core and each other
                # busy sibling adds ~20% on top of the shared core power.
                # ``total`` is the siblings' sum (started at int 0, as
                # ``sum`` starts) and ``primary`` their ``max``.
                total = 0 + primary
                for c in cpu_ids[1:]:
                    a = busy[c] + spf * spin[c]
                    total += a
                    if a > primary:
                        primary = a
                eff_activity = primary + 0.2 * (total - primary)
            else:
                eff_activity = primary
            if eff_activity > 1.2:
                eff_activity = 1.2
            per_cluster[cluster] += dyn[cluster] * eff_activity + ct.power.leak_w
        n = len(self.topology.cores)
        util = 0.0
        for b, s in zip(busy, spin):
            util += b + s
        avg_util = util / max(1, n)
        uncore = self.spec.uncore_base_w
        dram = self.spec.dram_w_per_util * avg_util
        return PowerSample(
            package_w=reduce(add, per_cluster, 0) + uncore + dram,
            per_cluster_w=per_cluster,
            uncore_w=uncore,
            dram_w=dram,
        )

    def max_package_w(self) -> float:
        """Upper bound: every core busy at max frequency."""
        n = self.topology.n_cpus
        freqs = [cl.ctype.max_freq_mhz for cl in self.topology.clusters]
        return self.sample_activity([1.0] * n, [0.0] * n, freqs).package_w
