"""Extension experiment: energy efficiency of the core-set choices.

The paper motivates heterogeneous cores with power efficiency ("you can
have fast (but power-hungry) cores ... but smaller more power-efficient
cores").  This experiment quantifies that trade-off on the Table II
runs: Gflop/s per watt for each (variant, core set) cell.

Expected shape: the hybrid-aware build extracts more work per joule on
*every* core set; adding the E-cores **improves** its efficiency (more
silicon at lower voltage under the same budget — the whole point of
hybrid parts) while the homogeneity-naive build's efficiency *drops*
when the E-cores join; and the E-only runs draw by far the least power.
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

CORE_SET_ORDER = ["E only", "P only", "P and E"]


@dataclass
class EnergyCell:
    gflops: float
    avg_power_w: float
    energy_j: float

    @property
    def gflops_per_watt(self) -> float:
        return self.gflops / self.avg_power_w if self.avg_power_w else 0.0


@dataclass
class EnergyResult:
    cells: dict[str, dict[str, EnergyCell]] = field(default_factory=dict)

    def cell(self, core_set: str, variant: str) -> EnergyCell:
        return self.cells[core_set][variant]


def run_energy_efficiency(
    config: HplConfig = REDUCED_RAPTOR_CONFIG, dt_s: float = 0.02
) -> EnergyResult:
    out = EnergyResult()
    for core_set in CORE_SET_ORDER:
        out.cells[core_set] = {}
        for variant in ("openblas", "intel"):
            system = raptor_system(dt_s=dt_s)
            cpus = raptor_core_sets(system)[core_set]
            r = run_hpl(
                system, config, variant=variant, cpus=cpus, settle_temp_c=35.0
            )
            out.cells[core_set][variant] = EnergyCell(
                gflops=r.gflops,
                avg_power_w=r.avg_power_w,
                energy_j=r.energy_j,
            )
    return out


def render(result: EnergyResult) -> str:
    rows = []
    for core_set in CORE_SET_ORDER:
        ob = result.cell(core_set, "openblas")
        it = result.cell(core_set, "intel")
        rows.append(
            [
                core_set,
                f"{ob.gflops:8.2f}",
                f"{ob.avg_power_w:6.1f}",
                f"{ob.gflops_per_watt:6.2f}",
                f"{it.gflops:8.2f}",
                f"{it.avg_power_w:6.1f}",
                f"{it.gflops_per_watt:6.2f}",
            ]
        )
    return render_table(
        [
            "Enabled cores",
            "OB Gflop/s",
            "OB avg W",
            "OB Gf/W",
            "Intel Gflop/s",
            "Intel avg W",
            "Intel Gf/W",
        ],
        rows,
    )


def shape_holds(result: EnergyResult) -> dict[str, bool]:
    return {
        # The hybrid-aware build wins Gflop/s per watt on every core set.
        "intel_more_efficient_everywhere": all(
            result.cell(cs, "intel").gflops_per_watt
            > result.cell(cs, "openblas").gflops_per_watt
            for cs in CORE_SET_ORDER
        ),
        # Adding E-cores improves the hybrid-aware build's efficiency...
        "intel_gains_efficiency_from_ecores": (
            result.cell("P and E", "intel").gflops_per_watt
            > result.cell("P only", "intel").gflops_per_watt
        ),
        # ...but degrades the homogeneity-naive build's.
        "openblas_loses_efficiency_from_ecores": (
            result.cell("P and E", "openblas").gflops_per_watt
            < result.cell("P only", "openblas").gflops_per_watt
        ),
        # E-cores alone draw by far the least power.
        "ecores_lowest_power": all(
            result.cell("E only", v).avg_power_w
            < 0.6 * result.cell("P only", v).avg_power_w
            for v in ("openblas", "intel")
        ),
    }
