"""``repro-perf-stat``: count events for a workload, perf-style.

Runs a workload (an HPL configuration, or a plain instruction loop) with
one event per core-type PMU per thread and prints the per-PMU counts —
the heterogeneous behaviour of the Linux perf tool the paper describes.
"""

from __future__ import annotations

import argparse

from repro.hpl import HplConfig
from repro.hpl.runner import start_hpl
from repro.hpl.variants import VARIANTS
from repro.hw.machines import MACHINE_PRESETS
from repro.kernel.sched.affinity import parse_cpu_list
from repro.monitor import PerfStat
from repro.sim.task import Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro-perf-stat", description=__doc__)
    p.add_argument("--machine", default="raptor-lake-i7-13700",
                   choices=sorted(MACHINE_PRESETS))
    p.add_argument("-e", "--events", default="INST_RETIRED",
                   help="comma-separated unqualified event names")
    p.add_argument("--workload", default="loop", choices=["loop", "hpl"])
    p.add_argument("--instructions", type=float, default=5e7,
                   help="loop workload size")
    p.add_argument("--n", type=int, default=9216, help="HPL N")
    p.add_argument("--nb", type=int, default=192, help="HPL NB")
    p.add_argument("--variant", default="openblas", choices=sorted(VARIANTS))
    p.add_argument("--cores", default=None, help="CPU list to pin to")
    p.add_argument("--jitter", type=float, default=0.02,
                   help="scheduler migration noise probability per tick")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    events = [e.strip() for e in args.events.split(",") if e.strip()]
    system = System(
        args.machine,
        dt_s=1e-3 if args.workload == "loop" else 0.02,
        migrate_jitter=args.jitter,
        rebalance_jitter=args.jitter,
    )
    cpus = sorted(parse_cpu_list(args.cores)) if args.cores else None

    if args.workload == "loop":
        rates = constant_rates(PhaseRates(ipc=2.0, llc_refs_per_instr=0.005,
                                          llc_miss_rate=0.3))
        threads = [
            system.machine.spawn(
                SimThread("loop", Program([ComputePhase(args.instructions, rates)]),
                          affinity=set(cpus) if cpus else None)
            )
        ]
    else:
        threads = start_hpl(system, HplConfig(n=args.n, nb=args.nb),
                            variant=args.variant, cpus=cpus).threads

    tool = PerfStat(system)
    tool.open_for_threads(events, threads)
    tool.start()
    system.machine.run_until_done(threads, max_s=36_000)
    result = tool.stop()
    tool.close()

    print(f"Performance counter stats ({args.workload} on {args.machine}):\n")
    print(result.render())
    print()
    for ev in events:
        by_pmu = result.by_pmu(ev)
        total = sum(by_pmu.values())
        split = "  ".join(
            f"{pmu}: {v:.0f} ({v / total * 100 if total else 0:.1f}%)"
            for pmu, v in sorted(by_pmu.items())
        )
        print(f"{ev}: total {total:.0f}   {split}")
    print(f"\n{system.machine.now_s:.3f} seconds (simulated) elapsed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
