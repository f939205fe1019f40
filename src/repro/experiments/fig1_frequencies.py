"""Figure 1: measured core frequencies, all-core runs, both HPL builds.

The paper's observations we verify:

* the P-core median frequency is *lower* for Intel HPL than for
  OpenBLAS HPL (2.61 vs 2.94 GHz) — Intel keeps every core busy, so at
  the same 65 W budget the P-cores clock lower;
* the P/E frequency gap is smaller for Intel HPL ("the heterogeneous
  core frequencies for Intel HPL were less dissimilar").
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

PAPER_MEDIANS_GHZ = {
    "openblas": {"P-core": 2.94, "E-core": 2.26},
    "intel": {"P-core": 2.61, "E-core": 2.32},
}


@dataclass
class Fig1Result:
    traces: dict[str, SampleTrace] = field(default_factory=dict)
    medians_ghz: dict[str, dict[str, float]] = field(default_factory=dict)


def run_fig1(
    config: HplConfig = REDUCED_RAPTOR_CONFIG, dt_s: float = 0.02
) -> Fig1Result:
    out = Fig1Result()
    for variant in ("openblas", "intel"):
        system = raptor_system(dt_s=dt_s)
        cpus = raptor_core_sets(system)["P and E"]
        _, trace = monitored_run(
            system,
            lambda: run_hpl(system, config, variant=variant, cpus=cpus),
            period_s=1.0,
            settle_temp_c=35.0,
        )
        out.traces[variant] = trace
        out.medians_ghz[variant] = {
            label: trace.median_freq_ghz(label) for label in trace.freq_mhz
        }
    return out


def render(result: Fig1Result) -> str:
    rows = []
    for variant in ("openblas", "intel"):
        med = result.medians_ghz[variant]
        paper = PAPER_MEDIANS_GHZ[variant]
        rows.append(
            [
                variant,
                f"{med.get('P-core', 0):.2f}",
                f"{med.get('E-core', 0):.2f}",
                f"{paper['P-core']:.2f}",
                f"{paper['E-core']:.2f}",
            ]
        )
    table = render_table(
        ["variant", "median P GHz", "median E GHz", "paper P", "paper E"], rows
    )
    series = []
    for variant, trace in result.traces.items():
        for label, vals in trace.freq_mhz.items():
            head = ", ".join(f"{v:.0f}" for v in vals[:8])
            series.append(f"  {variant}/{label}: [{head}, ...] MHz @1Hz")
    return table + "\n" + "\n".join(series)


def shape_holds(result: Fig1Result) -> dict[str, bool]:
    ob, it = result.medians_ghz["openblas"], result.medians_ghz["intel"]
    gap_ob = ob["P-core"] - ob["E-core"]
    gap_it = it["P-core"] - it["E-core"]
    return {
        "intel_p_median_lower": it["P-core"] < ob["P-core"],
        "intel_freqs_less_dissimilar": gap_it < gap_ob,
    }
