"""Figure 3: ARM big.LITTLE frequency scaling under thermal pressure.

On the OrangePi 800, HPL on the big cores ramps them to 1.8 GHz but the
SoC heats past its trip point within seconds and the big cores are
scaled far down; with all six cores most of the computation ends up on
the LITTLE cores.  Wall power is measured WattsUpPro-style (package +
board overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.common import (
    REDUCED_ORANGEPI_CONFIG,
    orangepi_core_sets,
    orangepi_system,
    render_table,
)
from repro.hpl import HplConfig, run_hpl
from repro.monitor import SampleTrace, monitored_run


@dataclass
class Fig3Result:
    traces: dict[str, SampleTrace] = field(default_factory=dict)
    big_start_mhz: dict[str, float] = field(default_factory=dict)
    big_sustained_mhz: dict[str, float] = field(default_factory=dict)
    little_sustained_mhz: dict[str, float] = field(default_factory=dict)
    time_to_throttle_s: dict[str, float] = field(default_factory=dict)
    trip_c: float = 85.0


def run_fig3(
    config: HplConfig = REDUCED_ORANGEPI_CONFIG, dt_s: float = 0.02
) -> Fig3Result:
    out = Fig3Result()
    for name in ("big x2", "all x6"):
        system = orangepi_system(dt_s=dt_s)
        out.trip_c = system.spec.thermal_trip_c
        cpus = orangepi_core_sets(system)[name]
        _, trace = monitored_run(
            system,
            lambda: run_hpl(system, config, variant="openblas", cpus=cpus),
            period_s=1.0,
            settle_temp_c=35.0,
        )
        out.traces[name] = trace
        big = np.asarray(trace.freq_mhz["big"])
        little = np.asarray(trace.freq_mhz["LITTLE"])
        out.big_start_mhz[name] = float(big[:3].max()) if big.size else 0.0
        tail = slice(len(big) // 2, None)
        out.big_sustained_mhz[name] = float(np.median(big[tail])) if big.size else 0.0
        out.little_sustained_mhz[name] = (
            float(np.median(little[tail])) if little.size else 0.0
        )
        # First sample where the big cluster sits below 60% of max.
        throttled = np.nonzero(big < 0.6 * 1800)[0]
        out.time_to_throttle_s[name] = (
            float(trace.times_s[throttled[0]]) if throttled.size else float("inf")
        )
    return out


def render(result: Fig3Result) -> str:
    rows = []
    for name in result.traces:
        rows.append(
            [
                name,
                f"{result.big_start_mhz[name]:6.0f}",
                f"{result.big_sustained_mhz[name]:6.0f}",
                f"{result.little_sustained_mhz[name]:6.0f}",
                f"{result.time_to_throttle_s[name]:6.1f}",
            ]
        )
    table = render_table(
        ["run", "big start MHz", "big sustained MHz", "LITTLE sustained MHz",
         "throttle onset s"],
        rows,
    )
    notes = []
    for name, trace in result.traces.items():
        head = ", ".join(f"{v:.0f}" for v in trace.freq_mhz["big"][:10])
        notes.append(f"  {name} big-cluster freq: [{head}, ...] MHz @1Hz")
        headw = ", ".join(f"{v:.2f}" for v in trace.wall_power_w[:6])
        notes.append(f"  {name} wall power: [{headw}, ...] W @1Hz")
    return table + "\n" + "\n".join(notes)


def shape_holds(result: Fig3Result) -> dict[str, bool]:
    return {
        # Big cores start at (near) max frequency...
        "big_ramps_to_max": all(
            v > 1700 for v in result.big_start_mhz.values()
        ),
        # ...but are quickly scaled far down.
        "big_throttles_quickly": all(
            t < 30.0 for t in result.time_to_throttle_s.values()
        ),
        "big_sustained_far_below_max": all(
            v < 0.65 * 1800 for v in result.big_sustained_mhz.values()
        ),
        # In the all-core run the LITTLE cluster keeps a much higher
        # relative frequency: most computation lands there.
        "little_keeps_running": result.little_sustained_mhz["all x6"] / 1400
        > result.big_sustained_mhz["all x6"] / 1800,
    }
