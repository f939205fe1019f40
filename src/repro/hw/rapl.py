"""RAPL (Running Average Power Limit) emulation.

Two halves, as on real Intel hardware:

* **Energy accounting** — each :class:`RaplDomain` accumulates energy in
  2^-16 J units in a 32-bit register that wraps, exactly like the
  ``MSR_PKG_ENERGY_STATUS`` counters PAPI's rapl component and the kernel's
  ``power`` perf PMU read.

* **Power capping** — :class:`RaplPackage` enforces the two power limits
  from the paper's Figure 2: the long-term limit PL1 (65 W on the
  i7-13700) over a multi-second averaging window, and the short-term limit
  PL2 (219 W) over a short window.  Enforcement is a running-average
  controller that lowers a package-wide frequency-ceiling scale; because
  the averaging window starts empty, a freshly started workload may burst
  to PL2 for roughly one PL1 window before being clamped to PL1 — the
  "initial spike" visible in Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Optional

from repro.checkpoint.surface import snapshot_surface
from repro.hw.dvfs import DvfsGovernor
from repro.hw.machines import MachineSpec
from repro.hw.sensor import SensorReadError, check_fault_mode

#: Energy unit of the emulated MSR: 2^-16 joules (15.26 uJ), Intel default.
ENERGY_UNIT_J = 2.0 ** -16
#: The energy status register is 32 bits wide and wraps.
ENERGY_COUNTER_MASK = 0xFFFFFFFF

CEILING_NAME = "rapl"


@dataclass
class RaplDomain:
    """One RAPL domain (package, pp0/cores, dram...)."""

    name: str
    energy_j: float = 0.0      # unwrapped ground truth
    _raw_units: float = 0.0
    #: Injected sensor fault: None (live), "stale" or "error".
    fault_mode: Optional[str] = None
    _stale_j: float = 0.0
    _stale_units: float = 0.0

    def accumulate(self, power_w: float, dt_s: float) -> None:
        e = power_w * dt_s
        self.energy_j += e
        self._raw_units += e / ENERGY_UNIT_J

    def accumulate_ticks(self, power_w: float, dt_s: float, n: int) -> None:
        """:meth:`accumulate` ``n`` times at constant power, on locals."""
        e = power_w * dt_s
        units = e / ENERGY_UNIT_J
        energy_j = self.energy_j
        raw_units = self._raw_units
        for _ in range(n):
            energy_j += e
            raw_units += units
        self.energy_j = energy_j
        self._raw_units = raw_units

    def set_fault(self, mode: Optional[str]) -> None:
        """Inject/clear a sensor dropout; "stale" freezes the reading."""
        check_fault_mode(mode)
        if mode == "stale":
            self._stale_j = self.energy_j
            self._stale_units = self._raw_units
        self.fault_mode = mode

    def visible_energy_j(self) -> float:
        """Energy as a reader sees it (ground truth unless faulted)."""
        if self.fault_mode == "error":
            raise SensorReadError(f"rapl:{self.name}")
        if self.fault_mode == "stale":
            return self._stale_j
        return self.energy_j

    def read_raw(self) -> int:
        """The wrapped 32-bit MSR value, in 2^-16 J units."""
        if self.fault_mode == "error":
            raise SensorReadError(f"rapl:{self.name}")
        units = self._stale_units if self.fault_mode == "stale" else self._raw_units
        return int(units) & ENERGY_COUNTER_MASK

    def read_uj(self) -> int:
        """Energy in microjoules as the kernel's powercap sysfs reports it."""
        return int(self.visible_energy_j() * 1e6)


@dataclass
@snapshot_surface(
    state=(
        "spec",
        "package",
        "cores",
        "dram",
        "_avg1_w",
        "_avg_fast_w",
        "_scale",
        "throttle_events",
        "tracer",
    ),
    digest_exclude=("tracer",),
    note="All state: domain energy accumulators, capping-controller "
    "averages and scale, throttle events, and fault modes.  The tracer "
    "is a digest-excluded observer set by the machine."
)
class RaplPackage:
    """Package-level RAPL: domains plus the PL1/PL2 capping controller."""

    spec: MachineSpec
    package: RaplDomain = field(default_factory=lambda: RaplDomain("package-0"))
    cores: RaplDomain = field(default_factory=lambda: RaplDomain("core"))
    dram: RaplDomain = field(default_factory=lambda: RaplDomain("dram"))
    _avg1_w: float = 0.0       # running average over the PL1 window
    _avg_fast_w: float = 0.0   # short EWMA the controller acts on
    _scale: float = 1.0        # package frequency-ceiling scale in (0, 1]
    throttle_events: int = 0
    #: Trace observer, set by the owning Machine when tracing is on.
    tracer: Optional[object] = None

    #: Smoothing window of the control signal, seconds.
    FAST_WINDOW_S = 0.25

    @property
    def enabled(self) -> bool:
        return self.spec.has_rapl

    @property
    def domains(self) -> list[RaplDomain]:
        return [self.package, self.cores, self.dram]

    def step(
        self,
        governor: DvfsGovernor,
        package_w: float,
        cores_w: float,
        dram_w: float,
        dt_s: float,
    ) -> None:
        """Account one tick of energy and run the capping controller."""
        self.package.accumulate(package_w, dt_s)
        self.cores.accumulate(cores_w, dt_s)
        self.dram.accumulate(dram_w, dt_s)
        # RAPL steps run live on both engines, so the periodic energy
        # samples land at identical sim times under either engine.
        tr = self.tracer
        if tr is not None and not tr.rapl:
            tr = None
        if tr is not None:
            tr.rapl_sample(self, package_w)
        if not self.enabled:
            return
        spec = self.spec
        pl1 = spec.rapl_pl1_w
        pl2 = spec.rapl_pl2_w
        # ``a if a < b else b`` is ``min(b, a)`` and ``a if a > b else b``
        # is ``max(b, a)``: the same operand on ties, so the same type.
        #
        # Exponential running averages; the PL1 window starts empty, so a
        # fresh workload may burst up to PL2 until it fills — Figure 2's
        # initial spike.
        k1 = dt_s / spec.rapl_pl1_window_s
        avg1 = self._avg1_w
        avg1 += (package_w - avg1) * (k1 if k1 < 1.0 else 1.0)
        self._avg1_w = avg1
        kf = dt_s / self.FAST_WINDOW_S
        fast = self._avg_fast_w
        fast += (package_w - fast) * (kf if kf < 1.0 else 1.0)
        self._avg_fast_w = fast

        # The budget the controller defends: PL2 while the long-term
        # average is still under PL1, then PL1.
        budget = pl2 if (pl2 is not None and avg1 < pl1 * 0.98) else pl1
        signal = 1e-3 if 1e-3 > fast else fast
        ratio = (budget / signal) ** 0.25
        # Rate-limit scale changes: shrink faster than grow.
        shrink = 1.2 * dt_s
        lo = 1.0 - (shrink if shrink < 0.5 else 0.5)
        grow = 0.5 * dt_s
        hi = 1.0 + (grow if grow < 0.2 else 0.2)
        adj = lo if lo > ratio else ratio
        if hi < adj:
            adj = hi
        if adj < 1.0:
            self.throttle_events += 1
        prev_scale = self._scale
        scale = prev_scale * adj
        scale = scale if scale > 0.05 else 0.05
        self._scale = scale = scale if scale < 1.0 else 1.0
        if (
            tr is not None
            and (self._scale < 1.0 - 1e-9) != (prev_scale < 1.0 - 1e-9)
        ):
            limited = self._scale < 1.0 - 1e-9
            tr.emit(
                "rapl",
                "power_limit_begin" if limited else "power_limit_end",
                args={
                    "budget_w": budget,
                    "avg_w": self._avg1_w,
                    "scale": self._scale,
                },
            )
            if limited:
                tr.metrics.counter(
                    "rapl.power_limit_transitions", key=self.package.name
                )

        for i, cl in enumerate(spec.topology.clusters):
            governor.set_ceiling(i, CEILING_NAME, cl.ctype.max_freq_mhz * scale)

    def advance_quiet(
        self,
        package_w: float,
        cores_w: float,
        dram_w: float,
        dt_s: float,
        n: int,
    ) -> int:
        """Run up to ``n`` untraced :meth:`step` ticks at constant power
        while the controller holds its scale; returns how many ran.

        Such a tick would rewrite every ceiling with the value it holds,
        so only energy, the two averages and the throttle count move.
        Each tick evaluates :meth:`step`'s expressions in its order into
        temporaries (leap constants precomputed by the same expressions)
        and commits only if the scale holds: the first tick that would
        move it is left to :meth:`step`, from unchanged state.
        """
        j = n
        if self.enabled:
            spec = self.spec
            pl1 = spec.rapl_pl1_w
            pl2 = spec.rapl_pl2_w
            k1 = dt_s / spec.rapl_pl1_window_s
            k1 = k1 if k1 < 1.0 else 1.0
            kf = dt_s / self.FAST_WINDOW_S
            kf = kf if kf < 1.0 else 1.0
            shrink = 1.2 * dt_s
            lo = 1.0 - (shrink if shrink < 0.5 else 0.5)
            grow = 0.5 * dt_s
            hi = 1.0 + (grow if grow < 0.2 else 0.2)
            scale = self._scale
            avg1 = self._avg1_w
            fast = self._avg_fast_w
            throttled = 0
            j = 0
            while j < n:
                a = avg1 + (package_w - avg1) * k1
                f = fast + (package_w - fast) * kf
                budget = pl2 if (pl2 is not None and a < pl1 * 0.98) else pl1
                signal = 1e-3 if 1e-3 > f else f
                ratio = (budget / signal) ** 0.25
                adj = lo if lo > ratio else ratio
                if hi < adj:
                    adj = hi
                s = scale * adj
                s = s if s > 0.05 else 0.05
                if (s if s < 1.0 else 1.0) != scale:
                    break
                avg1 = a
                fast = f
                if adj < 1.0:
                    throttled += 1
                j += 1
            self._avg1_w = avg1
            self._avg_fast_w = fast
            self.throttle_events += throttled
        if j:
            self.package.accumulate_ticks(package_w, dt_s, j)
            self.cores.accumulate_ticks(cores_w, dt_s, j)
            self.dram.accumulate_ticks(dram_w, dt_s, j)
        return j

    # -- introspection used by the monitor/sampler -------------------------

    @property
    def scale(self) -> float:
        return self._scale
