"""Figure 2: package power and temperature during the all-core runs.

Shape claims from the paper:

* an initial power spike while the RAPL PL1 averaging window fills,
  after which both benchmarks settle at the 65 W long-term limit;
* OpenBLAS HPL cannot reach the short-term cap, peaking at 165.7 W —
  its P-cores spin-wait at barriers instead of drawing full power —
  while Intel HPL's peak is substantially higher;
* neither run is thermally throttled (package stays below Tjmax=100 C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    REDUCED_RAPTOR_CONFIG,
    raptor_core_sets,
    raptor_system,
    render_table,
)
from repro.hpl import HplConfig, run_hpl
from repro.monitor import SampleTrace, monitored_run

PAPER_PEAK_W = {"openblas": 165.7, "intel": 219.0}
PAPER_STEADY_W = 65.0


@dataclass
class Fig2Result:
    traces: dict[str, SampleTrace] = field(default_factory=dict)
    peak_w: dict[str, float] = field(default_factory=dict)
    steady_w: dict[str, float] = field(default_factory=dict)
    max_temp_c: dict[str, float] = field(default_factory=dict)
    throttle_events_thermal: dict[str, int] = field(default_factory=dict)
    pl1_w: float = 65.0
    pl2_w: float = 219.0
    tjmax_c: float = 100.0


def run_fig2(
    config: HplConfig = REDUCED_RAPTOR_CONFIG, dt_s: float = 0.02
) -> Fig2Result:
    out = Fig2Result()
    for variant in ("openblas", "intel"):
        system = raptor_system(dt_s=dt_s)
        out.pl1_w = system.spec.rapl_pl1_w
        out.pl2_w = system.spec.rapl_pl2_w
        out.tjmax_c = system.spec.tjmax_c
        cpus = raptor_core_sets(system)["P and E"]
        _, trace = monitored_run(
            system,
            lambda: run_hpl(system, config, variant=variant, cpus=cpus),
            period_s=1.0,
            settle_temp_c=35.0,
        )
        out.traces[variant] = trace
        out.peak_w[variant] = trace.peak_power_w()
        out.steady_w[variant] = trace.steady_power_w()
        out.max_temp_c[variant] = trace.max_temp_c()
        out.throttle_events_thermal[variant] = system.machine.thermal.throttle_events
    return out


def render(result: Fig2Result) -> str:
    rows = []
    for variant in ("openblas", "intel"):
        rows.append(
            [
                variant,
                f"{result.peak_w[variant]:7.1f}",
                f"{result.steady_w[variant]:7.1f}",
                f"{result.max_temp_c[variant]:6.1f}",
                f"{PAPER_PEAK_W[variant]:7.1f}",
                f"{PAPER_STEADY_W:7.1f}",
            ]
        )
    table = render_table(
        ["variant", "peak W", "steady W", "max degC", "paper peak W", "paper steady W"],
        rows,
    )
    notes = [
        f"  PL1={result.pl1_w:.0f} W  PL2={result.pl2_w:.0f} W  Tjmax={result.tjmax_c:.0f} C",
    ]
    for variant, trace in result.traces.items():
        head = ", ".join(f"{v:.0f}" for v in trace.package_w[:10])
        notes.append(f"  {variant} power series: [{head}, ...] W @1Hz")
    return table + "\n" + "\n".join(notes)


def shape_holds(result: Fig2Result) -> dict[str, bool]:
    return {
        "spike_then_settle": all(
            result.peak_w[v] > result.steady_w[v] * 1.5 for v in result.peak_w
        ),
        "steady_at_pl1": all(
            abs(result.steady_w[v] - result.pl1_w) < result.pl1_w * 0.15
            for v in result.steady_w
        ),
        "openblas_peak_below_intel": result.peak_w["openblas"]
        < result.peak_w["intel"],
        "openblas_cannot_reach_pl2": result.peak_w["openblas"] < result.pl2_w * 0.9,
        "no_thermal_throttling": all(
            t < result.tjmax_c for t in result.max_temp_c.values()
        ),
    }
