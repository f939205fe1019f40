"""Table III: hardware counter measurements for the all-core runs.

LLC miss rate per core type and the share of total instructions retired
by each core type.  The paper collected these with the perf tool, not
PAPI.  Here they are the simulator's ground truth: :func:`run_table3`
reads the per-PMU totals that ``finish_hpl`` sums from every HPL
thread's ``SimThread.counters``, and opens no perf event.  Measuring
them through the simulated perf is an open item in ROADMAP.md.

Paper values (all-core runs):

==========================  =============  ==========
                            OpenBLAS HPL   Intel HPL
==========================  =============  ==========
LLC missrate (P / E)        86% / 0.05%    64% / 0.03%
% of instructions (P / E)   80% / 20%      68% / 32%
==========================  =============  ==========
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

PAPER = {
    "openblas": {"miss_p": 0.86, "miss_e": 0.0005, "instr_p": 0.80},
    "intel": {"miss_p": 0.64, "miss_e": 0.0003, "instr_p": 0.68},
}


@dataclass
class Table3Result:
    miss_rate: dict[str, dict[str, float]] = field(default_factory=dict)
    instr_share: dict[str, dict[str, float]] = field(default_factory=dict)


def run_table3(
    config: HplConfig = REDUCED_RAPTOR_CONFIG, dt_s: float = 0.02
) -> Table3Result:
    out = Table3Result()
    for variant in ("openblas", "intel"):
        system = raptor_system(dt_s=dt_s)
        cpus = raptor_core_sets(system)["P and E"]
        result = run_hpl(
            system, config, variant=variant, cpus=cpus, settle_temp_c=35.0
        )
        out.miss_rate[variant] = {
            "P": result.llc_miss_rate("cpu_core"),
            "E": result.llc_miss_rate("cpu_atom"),
        }
        out.instr_share[variant] = {
            "P": result.instruction_share("cpu_core"),
            "E": result.instruction_share("cpu_atom"),
        }
    return out


def render(result: Table3Result) -> str:
    rows = [
        [
            "LLC missrate",
            f"{result.miss_rate['openblas']['P'] * 100:.0f}%",
            f"{result.miss_rate['openblas']['E'] * 100:.2f}%",
            f"{result.miss_rate['intel']['P'] * 100:.0f}%",
            f"{result.miss_rate['intel']['E'] * 100:.2f}%",
            "86% / 0.05%",
            "64% / 0.03%",
        ],
        [
            "% of total instructions",
            f"{result.instr_share['openblas']['P'] * 100:.0f}%",
            f"{result.instr_share['openblas']['E'] * 100:.0f}%",
            f"{result.instr_share['intel']['P'] * 100:.0f}%",
            f"{result.instr_share['intel']['E'] * 100:.0f}%",
            "80% / 20%",
            "68% / 32%",
        ],
    ]
    return render_table(
        [
            "Metric",
            "OpenBLAS P",
            "OpenBLAS E",
            "Intel P",
            "Intel E",
            "paper OpenBLAS",
            "paper Intel",
        ],
        rows,
    )


def shape_holds(result: Table3Result) -> dict[str, bool]:
    return {
        # Intel reduced the LLC miss rate on both core types.
        "intel_lower_p_missrate": result.miss_rate["intel"]["P"]
        < result.miss_rate["openblas"]["P"],
        "intel_lower_e_missrate": result.miss_rate["intel"]["E"]
        < result.miss_rate["openblas"]["E"],
        # E-core miss rates are orders of magnitude below P-core's.
        "e_missrate_tiny": all(
            result.miss_rate[v]["E"] < 0.01 < result.miss_rate[v]["P"]
            for v in ("openblas", "intel")
        ),
        # Intel runs a larger share of instructions on the E-cores.
        "intel_more_e_instructions": result.instr_share["intel"]["E"]
        > result.instr_share["openblas"]["E"],
    }
