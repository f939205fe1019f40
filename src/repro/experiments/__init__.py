"""One module per paper table/figure (see DESIGN.md's experiment index).

Each module exposes a ``run_*`` function returning a structured result
and a ``render(result) -> str`` producing the paper-style rows/series.
``repro-reproduce`` (:mod:`repro.tools.reproduce`) regenerates every
artifact through these entry points, and ``tests/test_experiments.py``
checks the paper's claims on its quick run.
"""

from repro.experiments import (  # noqa: F401
    common,
    table1_hw,
    table2_hpl,
    table3_counters,
    fig1_frequencies,
    fig2_power,
    fig3_arm_throttle,
    fig4_arm_scaling,
    energy_efficiency,
    hybrid_eventset,
    overhead,
    rapl_overhead,
)
