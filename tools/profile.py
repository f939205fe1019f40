#!/usr/bin/env python3
"""Deterministic cProfile harness for the simulation engines.

Profiles canned scenarios — the small HPL run and a fully loaded tick
loop with live perf counters, the same workloads ``benchmarks/
run_bench.py`` times — and prints a ``pstats`` table sorted by
cumulative time::

    python tools/profile.py hpl --engine events --top 25
    python tools/profile.py ticks --engine ticks --top 40
    python tools/profile.py all

The *workload* is deterministic (a pure function of machine and seed);
only the measured wall times vary run to run.  That makes call counts
directly comparable across commits — a hot-path regression shows up as
a call-count delta long before it is visible over host noise, which is
how the PR 2–5 fastpath erosion was eventually diagnosed (see
EXPERIMENTS.md).  ``--dump FILE`` saves the raw stats for ``pstats``
or snakeviz-style explorers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# ``python tools/profile.py`` puts tools/ first on sys.path, where this
# very file shadows the stdlib ``profile`` module that cProfile imports
# — drop the script directory before touching the profilers.
sys.path[:] = [
    p for p in sys.path if Path(p or ".").resolve() != REPO_ROOT / "tools"
]
sys.modules.pop("profile", None)

import cProfile  # noqa: E402
import pstats  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.hpl import HplConfig, run_hpl  # noqa: E402
from repro.kernel.perf import PerfEventAttr  # noqa: E402
from repro.kernel.perf.subsystem import PerfIoctl  # noqa: E402
from repro.sim.task import Program, SimThread  # noqa: E402
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates  # noqa: E402
from repro.system import System  # noqa: E402

MACHINE = "raptor-lake-i7-13700"
RATES = constant_rates(
    PhaseRates(ipc=2.0, llc_refs_per_instr=0.01, llc_miss_rate=0.5)
)


def scenario_hpl(engine: str) -> None:
    """The small HPL run the bench suite times (n=4608, nb=192)."""
    system = System(MACHINE, dt_s=0.01, engine=engine)
    result = run_hpl(
        system,
        HplConfig(n=4608, nb=192),
        variant="intel",
        cpus=system.topology.primary_threads(),
    )
    assert result.gflops > 0


def scenario_ticks(engine: str) -> None:
    """2000 fully loaded ticks with live perf counters on every thread."""
    system = System(MACHINE, dt_s=0.001, engine=engine)
    threads = [
        system.machine.spawn(
            SimThread(f"w{cpu}", Program([ComputePhase(1e12, RATES)]), affinity={cpu})
        )
        for cpu in system.topology.primary_threads()
    ]
    for t in threads:
        for pmu in ("cpu_core", "cpu_atom"):
            ptype = system.perf.registry.by_name[pmu].type
            fd = system.perf.perf_event_open(  # repro-lint: disable=PAPI-FD-LEAK
                PerfEventAttr(type=ptype, config=0x00C0), pid=t.tid, cpu=-1
            )
            system.perf.ioctl(fd, PerfIoctl.ENABLE)
    system.machine.run_ticks(2000)


SCENARIOS = {
    "hpl": scenario_hpl,
    "ticks": scenario_ticks,
}


def profile_scenario(
    name: str, engine: str, top: int, dump: Path | None = None
) -> None:
    fn = SCENARIOS[name]
    prof = cProfile.Profile()
    prof.enable()
    fn(engine)
    prof.disable()
    print(f"=== {name} (engine={engine}) ===")
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    if dump is not None:
        stats.dump_stats(str(dump))
        print(f"raw stats written to {dump}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenario",
        choices=[*SCENARIOS, "all"],
        help="canned workload to profile ('all' runs every scenario)",
    )
    parser.add_argument(
        "--engine",
        default="events",
        choices=("ticks", "events"),
        help="engine mode to drive the scenario with (default: events)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="rows of the pstats table to print (default: 25)",
    )
    parser.add_argument(
        "--dump",
        type=Path,
        default=None,
        help="also write raw pstats data to this file",
    )
    args = parser.parse_args(argv)
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    for name in names:
        profile_scenario(name, args.engine, args.top, args.dump)
    return 0


if __name__ == "__main__":
    sys.exit(main())
