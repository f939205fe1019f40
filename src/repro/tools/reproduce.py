"""``repro-reproduce``: regenerate every paper artifact in one command.

Runs all the experiments from DESIGN.md's index (Tables I–IV, Figures
1–4, the §IV-F functional result, the §V-5 overhead study) and writes a
markdown report of regenerated-vs-paper values together with the shape
verdicts.  ``--quick`` shrinks the problem sizes for a fast smoke pass;
``--full-scale`` uses the paper's exact parameters.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

from repro.experiments import (
    energy_efficiency,
    fig1_frequencies,
    fig2_power,
    fig3_arm_throttle,
    fig4_arm_scaling,
    hybrid_eventset,
    overhead,
    rapl_overhead,
    table1_hw,
    table2_hpl,
    table3_counters,
)
from repro.experiments.common import (
    FULL_ORANGEPI_CONFIG,
    FULL_RAPTOR_CONFIG,
    REDUCED_ORANGEPI_CONFIG,
    REDUCED_RAPTOR_CONFIG,
    orangepi_system,
    raptor_system,
)
from repro.hpl import HplConfig

QUICK_RAPTOR = HplConfig(n=29952, nb=192)
QUICK_OPI = HplConfig(n=9984, nb=128)


@dataclass
class Results:
    """One run of every experiment, as :func:`run_experiments` made it."""

    table1: table1_hw.HwConfigResult
    table4: table1_hw.HwConfigResult
    table2: table2_hpl.Table2Result
    table3: table3_counters.Table3Result
    fig1: fig1_frequencies.Fig1Result
    fig2: fig2_power.Fig2Result
    fig3: fig3_arm_throttle.Fig3Result
    fig4: fig4_arm_scaling.Fig4Result
    hybrid: list[hybrid_eventset.HybridTestResult]
    overhead: overhead.OverheadResult
    rapl_overhead: rapl_overhead.RaplOverheadResult
    energy: energy_efficiency.EnergyResult


def run_experiments(full_scale: bool = False, quick: bool = False, log=print) -> Results:
    """Run each experiment once; ``log`` announces each one as it starts."""
    if quick:
        raptor_cfg, opi_cfg = QUICK_RAPTOR, QUICK_OPI
    elif full_scale:
        raptor_cfg, opi_cfg = FULL_RAPTOR_CONFIG, FULL_ORANGEPI_CONFIG
    else:
        raptor_cfg, opi_cfg = REDUCED_RAPTOR_CONFIG, REDUCED_ORANGEPI_CONFIG

    log("Table I / Table IV (hardware config)...")
    t1 = table1_hw.run_hw_config(raptor_system())
    t4 = table1_hw.run_hw_config(orangepi_system())
    log("Table II (six HPL cells)...")
    t2 = table2_hpl.run_table2(config=raptor_cfg)
    log("Table III (counter measurements)...")
    t3 = table3_counters.run_table3(config=raptor_cfg)
    log("Figure 1 (frequencies)...")
    f1 = fig1_frequencies.run_fig1(config=raptor_cfg)
    log("Figure 2 (power and temperature)...")
    f2 = fig2_power.run_fig2(config=raptor_cfg)
    log("Figure 3 (ARM throttling)...")
    f3 = fig3_arm_throttle.run_fig3(config=opi_cfg)
    log("Figure 4 (ARM core scaling)...")
    f4 = fig4_arm_scaling.run_fig4(config=opi_cfg)
    log("papi_hybrid_100m_one_eventset (both machines)...")
    hybrid = hybrid_eventset.run_paper_scenarios("raptor-lake-i7-13700")
    log("§V-5 overhead ablation...")
    ov = overhead.run_overhead()
    log("V2 RAPL monitoring-overhead sweep...")
    ro = rapl_overhead.run_rapl_overhead()
    log("Energy efficiency extension...")
    ee = energy_efficiency.run_energy_efficiency(config=raptor_cfg)
    return Results(t1, t4, t2, t3, f1, f2, f3, f4, hybrid, ov, ro, ee)


def _block(title: str, body: str, verdicts: dict | None = None) -> str:
    out = [f"## {title}", "", "```", body, "```", ""]
    if verdicts is not None:
        out.append("Shape claims: " + ", ".join(
            f"{k}={'PASS' if v else 'FAIL'}" for k, v in verdicts.items()
        ))
        out.append("")
    return "\n".join(out)


def render_report(r: Results) -> tuple[str, bool]:
    """Returns (markdown report, all shape claims passed)."""
    free = next(s for s in r.hybrid if (s.mode, s.pinned) == ("hybrid", None))
    hybrid_ok = {
        "counts_split": free.average(0) > 0 and free.average(1) > 0,
        "sum_near_1m": 1e6 <= free.avg_total <= 1.05e6,
    }
    blocks = [
        ("Table I — Raptor Lake", table1_hw.render(r.table1), None),
        ("Table IV — OrangePi 800", table1_hw.render(r.table4), None),
        ("Table II — HPL Gflop/s", table2_hpl.render(r.table2),
         table2_hpl.shape_holds(r.table2)),
        ("Table III — counters", table3_counters.render(r.table3),
         table3_counters.shape_holds(r.table3)),
        ("Figure 1 — frequencies", fig1_frequencies.render(r.fig1),
         fig1_frequencies.shape_holds(r.fig1)),
        ("Figure 2 — power/temperature", fig2_power.render(r.fig2),
         fig2_power.shape_holds(r.fig2)),
        ("Figure 3 — ARM throttling", fig3_arm_throttle.render(r.fig3),
         fig3_arm_throttle.shape_holds(r.fig3)),
        ("Figure 4 — ARM scaling", fig4_arm_scaling.render(r.fig4),
         fig4_arm_scaling.shape_holds(r.fig4)),
        ("§IV-F — hybrid EventSet test", hybrid_eventset.render(r.hybrid), hybrid_ok),
        ("§V-5 — overhead", overhead.render(r.overhead), overhead.shape_holds(r.overhead)),
        ("V2 — RAPL monitoring overhead", rapl_overhead.render(r.rapl_overhead),
         rapl_overhead.shape_holds(r.rapl_overhead)),
        ("Extension — energy efficiency", energy_efficiency.render(r.energy),
         energy_efficiency.shape_holds(r.energy)),
    ]
    all_ok = all(all(verdicts.values()) for _, _, verdicts in blocks if verdicts)
    sections = ["# Reproduction report", ""]
    sections += [_block(title, body, verdicts) for title, body, verdicts in blocks]
    sections.append(
        f"**Overall: {'ALL SHAPE CLAIMS HOLD' if all_ok else 'SOME CLAIMS FAILED'}**"
    )
    return "\n".join(sections), all_ok


def run_all(full_scale: bool = False, quick: bool = False, log=print) -> tuple[str, bool]:
    """Returns (markdown report, all shape claims passed)."""
    return render_report(run_experiments(full_scale, quick, log))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="repro-reproduce", description=__doc__)
    p.add_argument("--out", type=Path, default=Path("reproduction_report.md"))
    p.add_argument("--quick", action="store_true",
                   help="reduced problem sizes (fast smoke pass)")
    p.add_argument("--full-scale", action="store_true",
                   help="the paper's exact problem sizes (slow)")
    args = p.parse_args(argv)
    report, ok = run_all(full_scale=args.full_scale, quick=args.quick)
    args.out.write_text(report)
    print(f"wrote {args.out}")
    print("ALL SHAPE CLAIMS HOLD" if ok else "SOME SHAPE CLAIMS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
