"""Table II: OpenBLAS HPL vs Intel HPL on E-only / P-only / all cores.

The headline motivation result.  Paper values (Gflop/s):

====================  =============  =========  ========
Enabled cores         OpenBLAS HPL   Intel HPL  % Change
====================  =============  =========  ========
E only                188.62         198.95     +5.4%
P only                356.28         392.89     +10.3%
P and E               290.51         457.38     +57.4%
====================  =============  =========  ========

The shape claims we verify: Intel beats OpenBLAS on every core set; the
all-core gap is by far the largest; OpenBLAS *loses* performance going
from P-only to all cores while Intel *gains*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    REDUCED_RAPTOR_CONFIG,
    pct_change,
    raptor_core_sets,
    raptor_system,
    render_table,
)
from repro.hpl import HplConfig, HplResult, run_hpl

PAPER_GFLOPS = {
    "E only": (188.62, 198.95),
    "P only": (356.28, 392.89),
    "P and E": (290.51, 457.38),
}

CORE_SET_ORDER = ["E only", "P only", "P and E"]


@dataclass
class Table2Result:
    results: dict[str, dict[str, HplResult]] = field(default_factory=dict)

    def gflops(self, core_set: str, variant: str) -> float:
        return self.results[core_set][variant].gflops

    def change_pct(self, core_set: str) -> float:
        return pct_change(
            self.gflops(core_set, "openblas"), self.gflops(core_set, "intel")
        )


def run_table2(
    config: HplConfig = REDUCED_RAPTOR_CONFIG, dt_s: float = 0.02
) -> Table2Result:
    """Run all six cells, each on a fresh machine settled to 35 degC per
    the paper's methodology.

    The paper averaged 10 runs per cell; here one run stands for all of
    them, because HPL threads are pinned and repeats are bit-identical.
    """
    out = Table2Result()
    for core_set in CORE_SET_ORDER:
        out.results[core_set] = {}
        for variant in ("openblas", "intel"):
            system = raptor_system(dt_s=dt_s)
            cpus = raptor_core_sets(system)[core_set]
            out.results[core_set][variant] = run_hpl(
                system, config, variant=variant, cpus=cpus, settle_temp_c=35.0
            )
    return out


def render(result: Table2Result) -> str:
    rows = []
    for core_set in CORE_SET_ORDER:
        po, pi = PAPER_GFLOPS[core_set]
        rows.append(
            [
                core_set,
                f"{result.gflops(core_set, 'openblas'):8.2f}",
                f"{result.gflops(core_set, 'intel'):8.2f}",
                f"{result.change_pct(core_set):+6.1f}%",
                f"{po:8.2f}",
                f"{pi:8.2f}",
                f"{pct_change(po, pi):+6.1f}%",
            ]
        )
    return render_table(
        [
            "Enabled cores",
            "OpenBLAS",
            "Intel",
            "% Change",
            "paper OpenBLAS",
            "paper Intel",
            "paper %",
        ],
        rows,
    )


def shape_holds(result: Table2Result) -> dict[str, bool]:
    """The paper's qualitative claims as booleans."""
    return {
        "intel_wins_everywhere": all(
            result.change_pct(cs) > 0 for cs in CORE_SET_ORDER
        ),
        "all_core_gap_largest": result.change_pct("P and E")
        > max(result.change_pct("E only"), result.change_pct("P only")),
        "openblas_all_core_regression": result.gflops("P and E", "openblas")
        < result.gflops("P only", "openblas"),
        "intel_all_core_gain": result.gflops("P and E", "intel")
        > result.gflops("P only", "intel"),
    }
