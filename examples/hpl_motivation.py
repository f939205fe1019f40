#!/usr/bin/env python3
"""The paper's motivation study: OpenBLAS HPL vs Intel HPL on Raptor Lake.

Reproduces Tables II/III and the Figure 1/2 series at a reduced problem
size (pass ``--full`` for the paper's exact N = 57024; much slower).
Run::

    python examples/hpl_motivation.py [--full]
"""

import sys

from repro.experiments import fig1_frequencies, fig2_power, table2_hpl, table3_counters
from repro.experiments.common import FULL_RAPTOR_CONFIG, REDUCED_RAPTOR_CONFIG


def main() -> None:
    config = FULL_RAPTOR_CONFIG if "--full" in sys.argv else REDUCED_RAPTOR_CONFIG

    print("Running Table II (six HPL cells; this takes a little while)...")
    t2 = table2_hpl.run_table2(config=config)
    print("\nTable II — Benchmark performance comparison (Gflop/s)")
    print(table2_hpl.render(t2))
    holds = table2_hpl.shape_holds(t2)
    print("shape claims:", ", ".join(f"{k}={v}" for k, v in holds.items()))

    print("\nRunning Table III (simulated ground-truth counter totals)...")
    t3 = table3_counters.run_table3(config=config)
    print("\nTable III — Hardware counter measurements, all-core runs")
    print(table3_counters.render(t3))

    print("\nRunning Figure 1 (frequency traces)...")
    f1 = fig1_frequencies.run_fig1(config=config)
    print(fig1_frequencies.render(f1))

    print("\nRunning Figure 2 (power and temperature traces)...")
    f2 = fig2_power.run_fig2(config=config)
    print(fig2_power.render(f2))

    print(
        "\nTakeaway: software built for homogeneous cores (OpenBLAS HPL) loses"
        "\nperformance when E-cores join; the hybrid-aware build gains "
        f"{t2.change_pct('P and E'):.0f}% instead."
    )


if __name__ == "__main__":
    main()
