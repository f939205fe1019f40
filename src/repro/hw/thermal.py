"""Lumped RC thermal model and IPA-style thermal throttling.

The package temperature follows a first-order RC model::

    C * dT/dt = P - (T - T_ambient) / R

On the Raptor Lake machine the RAPL power caps keep power low enough that
the 100 degC trip is never reached (the paper notes neither benchmark is
thermally throttled).  On the OrangePi the trip point *is* the binding
constraint: the big cores heat the SoC past the trip within seconds and
get scaled down hard — the mechanism behind Figures 3 and 4.

Throttling mimics Linux's Intelligent Power Allocator (IPA): when the
temperature approaches the trip point a package power budget is computed
and clusters are throttled greedily, the least power-efficient
(power per unit capacity) cluster first, which is why the big cluster
pins at minimum frequency while the LITTLE cluster keeps running.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from repro.checkpoint.surface import snapshot_surface
from repro.hw.machines import MachineSpec
from repro.hw.dvfs import DvfsGovernor

CEILING_NAME = "thermal"


@dataclass
class ThermalZone:
    """A sysfs-visible thermal zone (millidegree granularity)."""

    name: str
    index: int
    temp_c: float
    #: Injected sensor fault: None (live), "stale" or "error".
    fault_mode: str | None = None
    _stale_c: float = 0.0

    def set_fault(self, mode: str | None) -> None:
        """Inject/clear a sensor dropout; "stale" freezes the reading."""
        from repro.hw.sensor import check_fault_mode

        check_fault_mode(mode)
        if mode == "stale":
            self._stale_c = self.temp_c
        self.fault_mode = mode

    def visible_c(self) -> float:
        """Unrounded temperature as a reader sees it, honoring faults."""
        from repro.hw.sensor import SensorReadError

        if self.fault_mode == "error":
            raise SensorReadError(f"thermal:{self.name}")
        return self._stale_c if self.fault_mode == "stale" else self.temp_c

    def read_millic(self) -> int:
        """The value a sysfs reader sees, honoring injected faults."""
        return round(self.visible_c() * 1000)

    @property
    def temp_millic(self) -> int:
        return round(self.temp_c * 1000)


@snapshot_surface(
    state=("spec", "temp_c", "zone", "_scale", "throttle_events", "tracer"),
    caches=("_ipa",),
    rebuild="_init_caches",
    digest_exclude=("tracer",),
    note="All state: integrated temperature, the sysfs-visible zone, "
    "per-cluster throttle scales and the throttle-event count.  The "
    "tracer is a digest-excluded observer set by the machine; the IPA "
    "allocator's per-cluster power constants are a derived cache."
)
class ThermalModel:
    """Integrates package temperature and applies thermal frequency limits."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.temp_c = spec.ambient_c
        self.zone = ThermalZone(
            name=spec.thermal_zone_name,
            index=spec.thermal_zone_index,
            temp_c=self.temp_c,
        )
        # Per-cluster throttle scale in (0, 1], 1 = unthrottled.
        self._scale = [1.0] * len(spec.topology.clusters)
        self.throttle_events = 0
        #: Trace observer, set by the owning Machine when tracing is on.
        self.tracer = None
        self._init_caches()

    def _init_caches(self) -> None:
        self._ipa = None

    def _ipa_constants(self):
        """Memoized allocator inputs, all derived from the static machine
        spec: per-cluster min/max-frequency core power at full activity,
        the most-efficient-first grant order, the sustainable power and
        per-cluster max frequency in GHz."""
        ipa = self._ipa
        if ipa is None:
            clusters = self.spec.topology.clusters
            min_w = [
                cl.ctype.power.core_power(cl.ctype.min_freq_ghz, 1.0)
                for cl in clusters
            ]
            max_ghz = [cl.ctype.max_freq_ghz for cl in clusters]
            max_w = [
                cl.ctype.power.core_power(ghz, 1.0)
                for cl, ghz in zip(clusters, max_ghz)
            ]
            order = sorted(
                range(len(clusters)),
                key=lambda i: clusters[i].ctype.capacity / max(max_w[i], 1e-6),
                reverse=True,
            )
            ipa = self._ipa = (min_w, max_w, order, self.sustainable_power_w, max_ghz)
        return ipa

    @property
    def sustainable_power_w(self) -> float:
        """Power at which temperature settles exactly at the trip point."""
        return (self.spec.thermal_trip_c - self.spec.ambient_c) / self.spec.thermal_r_c_per_w

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the RC model by ``dt_s`` under ``power_w``; returns temp."""
        spec = self.spec
        prev_c = self.temp_c
        ambient = spec.ambient_c
        dTdt = (power_w - (prev_c - ambient) / spec.thermal_r_c_per_w) / spec.thermal_c_j_per_c
        temp = prev_c + dTdt * dt_s
        # ``max(ambient, temp)``: ambient (maybe an int) on a tie.
        self.temp_c = self.zone.temp_c = temp if temp > ambient else ambient
        # Thermal steps run live on both engines; trip-crossing events
        # are therefore emitted at engine-identical sim times.
        tr = self.tracer
        if tr is not None and tr.thermal:
            trip = spec.thermal_trip_c
            if (prev_c < trip) != (self.temp_c < trip):
                above = self.temp_c >= trip
                tr.emit(
                    "thermal",
                    "trip_above" if above else "trip_below",
                    args={"temp_c": self.temp_c, "trip_c": trip},
                )
                if above:
                    tr.metrics.counter("thermal.trips", key=self.zone.name)
            tr.metrics.gauge("thermal.temp_c", key=self.zone.name, value=self.temp_c)
        return self.temp_c

    def quiet_ticks(
        self,
        cluster_activity: list[float],
        other_power_w: float,
        power_w: float,
        dt_s: float,
        n: int,
    ) -> int:
        """How many of the next ``n`` ticks at constant inputs leave every
        thermal ceiling and scale as it is; changes no state.

        Such a tick finds each active cluster unthrottled (scale 1.0; an
        idle one writes the ceiling and scale it already holds) and the
        IPA grant still covering its max-frequency power, so of
        :meth:`step` plus :meth:`apply_throttling` only the temperature
        and the throttle count move (:meth:`advance_quiet`).  The test
        evaluates their expressions in their order; terms that are
        constant at constant activity are computed once, by the same
        expressions.
        """
        spec = self.spec
        min_w, max_w, order, sustainable_w, _max_ghz = self._ipa_constants()
        floor_w = [0.0] * len(cluster_activity)
        for i, activity in enumerate(cluster_activity):
            if activity > 1e-6:
                floor_w[i] = min_w[i] * activity
        floor_sum = reduce(add, floor_w, 0)
        grants = []   # active clusters in grant order
        for i in order:
            activity = cluster_activity[i]
            if activity <= 1e-6:
                continue
            if self._scale[i] != 1.0:
                return 0  # un-throttling moves the ceiling
            used_extra = max_w[i] * activity - floor_w[i]
            grants.append((
                (max_w[i] - min_w[i]) * activity,
                floor_w[i],
                activity,
                max_w[i],
                0.0 if 0.0 > used_extra else used_extra,
            ))
        ambient = spec.ambient_c
        r = spec.thermal_r_c_per_w
        c = spec.thermal_c_j_per_c
        trip = spec.thermal_trip_c
        gain = self.BUDGET_GAIN_FRACTION_PER_C
        temp = self.temp_c
        for j in range(n):
            temp = temp + (power_w - (temp - ambient) / r) / c * dt_s
            temp = temp if temp > ambient else ambient
            remaining = (
                sustainable_w * (1.0 + gain * (trip - temp))
                - other_power_w
                - floor_sum
            )
            for extra_demand, floor, activity, max_core_w, used in grants:
                grant = 0.0 if 0.0 > remaining else remaining
                if extra_demand < grant:
                    grant = extra_demand
                if not max_core_w <= (floor + grant) / activity:
                    return j
                remaining -= used
        return n

    def advance_quiet(self, power_w: float, dt_s: float, n: int) -> None:
        """Commit ``n`` ticks :meth:`quiet_ticks` reported quiet: the
        temperature (and the zone's copy) and the throttle count move as
        :meth:`step` and :meth:`apply_throttling` move them."""
        spec = self.spec
        ambient = spec.ambient_c
        r = spec.thermal_r_c_per_w
        c = spec.thermal_c_j_per_c
        trip = spec.thermal_trip_c
        temp = self.temp_c
        over = 0
        for _ in range(n):
            temp = temp + (power_w - (temp - ambient) / r) / c * dt_s
            temp = temp if temp > ambient else ambient
            if trip - temp < 0:
                over += 1
        self.temp_c = self.zone.temp_c = temp
        self.throttle_events += over

    @property
    def scales(self) -> tuple[float, ...]:
        """Each cluster's throttle scale, 1.0 unthrottled."""
        return tuple(self._scale)

    def is_settled(self, target_c: float) -> bool:
        """Whether the package has cooled to ``target_c`` (run-start gate)."""
        return self.temp_c <= target_c

    def _note_scale(self, i: int, new: float) -> None:
        """Update one cluster's throttle scale, tracing the transitions.

        ``apply_throttling`` runs live on both engines (span replay
        steps it too), so begin/end events land at identical sim times
        regardless of the engine.
        """
        old = self._scale[i]
        tr = self.tracer
        if (
            tr is not None
            and tr.thermal
            and (old < 1.0 - 1e-9) != (new < 1.0 - 1e-9)
        ):
            ct_name = self.spec.topology.clusters[i].ctype.name
            tr.emit(
                "thermal",
                "throttle_begin" if new < 1.0 - 1e-9 else "throttle_end",
                args={"cluster": i, "scale": new, "temp_c": self.temp_c},
            )
            tr.metrics.counter("thermal.throttle_transitions", key=ct_name)
        self._scale[i] = new

    #: Proportional gain of the thermal governor, as a fraction of the
    #: sustainable power per degC of headroom.  Far from the trip point
    #: the budget is effectively unlimited; it converges on the
    #: sustainable power as the trip is approached.
    BUDGET_GAIN_FRACTION_PER_C = 0.1

    def apply_throttling(
        self,
        governor: DvfsGovernor,
        cluster_activity: list[float],
        other_power_w: float,
        dt_s: float,
    ) -> None:
        """Allocate a thermal power budget to clusters (Linux IPA style).

        The budget is ``sustainable + gain * (trip - T)``: far from the
        trip point it is effectively unlimited; as the package heats it
        converges on the sustainable power, so temperature approaches the
        trip asymptotically instead of oscillating.  The budget (minus
        uncore/DRAM draw) is granted to clusters most-efficient-first —
        capacity per watt — so on a big.LITTLE part the big cluster is
        squeezed to its minimum frequency before the LITTLE cluster loses
        anything.

        ``cluster_activity`` is the summed effective busy fraction of the
        cores in each cluster over the last tick; ``other_power_w`` is the
        uncore+DRAM power that comes off the top of the budget.
        """
        spec = self.spec
        clusters = spec.topology.clusters
        min_w, max_w, order, sustainable_w, max_ghz = self._ipa_constants()
        margin = spec.thermal_trip_c - self.temp_c
        budget = sustainable_w * (1.0 + self.BUDGET_GAIN_FRACTION_PER_C * margin)
        if margin < 0:
            self.throttle_events += 1

        # Active clusters burn their minimum-frequency power no matter
        # what the allocator decides; take that off the top so granting a
        # cluster zero surplus does not push the package past budget.
        # (Idle clusters' 0.0 entries leave the sum unchanged.)
        floor_w = [0.0] * len(clusters)
        for i in range(len(clusters)):
            activity = cluster_activity[i]
            if activity > 1e-6:
                floor_w[i] = min_w[i] * activity
        remaining = budget - other_power_w - reduce(add, floor_w, 0)

        # The clamps are ``min``/``max`` written out, returning the same
        # operand on ties.
        for i in order:
            ct = clusters[i].ctype
            activity = cluster_activity[i]
            if activity <= 1e-6:
                governor.set_ceiling(i, CEILING_NAME, ct.max_freq_mhz)
                self._note_scale(i, 1.0)
                continue
            # Grant this cluster its floor plus a share of the surplus.
            extra_demand = (max_w[i] - min_w[i]) * activity
            grant = 0.0 if 0.0 > remaining else remaining
            if extra_demand < grant:
                grant = extra_demand
            per_core = (floor_w[i] + grant) / activity
            if max_w[i] <= per_core:
                # freq_for_power's first test: max frequency fits.
                f_ghz = max_ghz[i]
                power_w = max_w[i]
            else:
                f_ghz = ct.power.freq_for_power(
                    per_core, 1.0, ct.min_freq_ghz, max_ghz[i]
                )
                power_w = ct.power.core_power(f_ghz, 1.0)
            governor.set_ceiling(i, CEILING_NAME, f_ghz * 1000.0)
            self._note_scale(i, f_ghz / max_ghz[i])
            used_extra = power_w * activity - floor_w[i]
            remaining -= 0.0 if 0.0 > used_extra else used_extra
