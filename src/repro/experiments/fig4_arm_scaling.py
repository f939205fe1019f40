"""Figure 4: OrangePi HPL performance as more cores are added.

The paper's counter-intuitive ordering, caused by thermal throttling:

* HPL on all four LITTLE cores completes *faster* than on both big
  cores;
* running on all six cores is only a minimal improvement over the four
  LITTLE cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    REDUCED_ORANGEPI_CONFIG,
    orangepi_system,
    render_table,
)
from repro.hpl import HplConfig, run_hpl

#: Core sets in "adding more cores" order (RK3399: cpus 0-3 LITTLE, 4-5 big).
CORE_SERIES: list[tuple[str, list[int]]] = [
    ("1 big", [4]),
    ("2 big", [4, 5]),
    ("2 little", [0, 1]),
    ("4 little", [0, 1, 2, 3]),
    ("4 little + 1 big", [0, 1, 2, 3, 4]),
    ("all 6", [0, 1, 2, 3, 4, 5]),
]


@dataclass
class Fig4Result:
    wall_s: dict[str, float] = field(default_factory=dict)
    gflops: dict[str, float] = field(default_factory=dict)


def run_fig4(
    config: HplConfig = REDUCED_ORANGEPI_CONFIG, dt_s: float = 0.02
) -> Fig4Result:
    out = Fig4Result()
    for name, cpus in CORE_SERIES:
        system = orangepi_system(dt_s=dt_s)
        r = run_hpl(
            system, config, variant="openblas", cpus=cpus, settle_temp_c=35.0
        )
        out.wall_s[name] = r.wall_s
        out.gflops[name] = r.gflops
    return out


def render(result: Fig4Result) -> str:
    rows = [
        [name, f"{result.wall_s[name]:8.1f}", f"{result.gflops[name]:6.2f}"]
        for name, _ in CORE_SERIES
    ]
    return render_table(["cores", "time (s)", "Gflop/s"], rows)


def shape_holds(result: Fig4Result) -> dict[str, bool]:
    return {
        "little4_beats_big2": result.wall_s["4 little"] < result.wall_s["2 big"],
        "all6_minimal_improvement": (
            result.wall_s["all 6"] <= result.wall_s["4 little"]
            and result.gflops["all 6"] / result.gflops["4 little"] < 1.25
        ),
        "more_littles_help": result.wall_s["4 little"] < result.wall_s["2 little"],
    }
