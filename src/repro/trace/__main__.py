"""Command-line trace capture: run a canned workload, export the trace.

Examples (with ``src`` on ``PYTHONPATH``)::

    python -m repro.trace run --workload migrate --chrome out.trace.json
    python -m repro.trace run --workload hpl --seconds 2 --text out.trace.txt

``--chrome`` output loads directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``; ``--text`` is the ``perf script``-style dump
that :func:`repro.trace.parse_text` round-trips.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.trace.tracer import CATEGORIES, TraceConfig
from repro.trace.export import save_chrome, to_text


def _build_system(ns):
    from repro.system import System

    categories = (
        CATEGORIES
        if ns.categories is None
        else tuple(c.strip() for c in ns.categories.split(",") if c.strip())
    )
    return System(
        ns.machine,
        dt_s=ns.dt_s,
        seed=ns.seed,
        migrate_jitter=ns.migrate_jitter,
        trace=TraceConfig(categories=categories, capacity=ns.capacity),
    )


def _workload_hpl(system, ns) -> None:
    """A small HPL factorization on all cores (the paper's benchmark)."""
    from repro.hpl import HplConfig, run_hpl

    run_hpl(system, HplConfig(n=2048, nb=128), max_s=ns.seconds)


def _workload_migrate(system, ns) -> None:
    """Unpinned compute threads with a PAPI EventSet attached — the
    paper's cross-core-migration counting scenario."""
    from repro.papi import Papi
    from repro.sim.task import Program, SimThread
    from repro.sim.workload import ComputePhase, PhaseRates, constant_rates

    rates = constant_rates(
        PhaseRates(
            ipc=2.0,
            flops_per_instr=0.5,
            llc_refs_per_instr=0.01,
            llc_miss_rate=0.3,
            l2_refs_per_instr=0.05,
            l2_miss_rate=0.2,
        )
    )
    papi = Papi(system)
    threads = [
        system.machine.spawn(
            SimThread(f"w{i}", Program([ComputePhase(1e12, rates)]))
        )
        for i in range(3)
    ]
    es = papi.create_eventset()
    papi.attach(es, threads[0])
    papi.add_event(es, "PAPI_TOT_INS")
    papi.start(es)
    system.machine.run_for(ns.seconds)
    papi.stop(es)
    papi.destroy_eventset(es)


WORKLOADS = {"hpl": _workload_hpl, "migrate": _workload_migrate}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Capture and export simulator traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="trace a canned workload")
    run.add_argument("--machine", default="raptor-lake-i7-13700")
    run.add_argument("--workload", choices=sorted(WORKLOADS), default="migrate")
    run.add_argument("--seconds", type=float, default=1.0)
    run.add_argument("--dt-s", type=float, default=0.01)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--migrate-jitter",
        type=float,
        default=0.02,
        help="per-tick probability of an interference migration",
    )
    run.add_argument(
        "--categories",
        default=None,
        help=f"comma-separated subset of {','.join(CATEGORIES)}",
    )
    run.add_argument("--capacity", type=int, default=65536)
    run.add_argument("--chrome", metavar="PATH", help="write Perfetto JSON")
    run.add_argument("--text", metavar="PATH", help="write the text dump")
    ns = parser.parse_args(argv)

    system = _build_system(ns)
    WORKLOADS[ns.workload](system, ns)
    tracer = system.tracer
    if ns.chrome:
        save_chrome(ns.chrome, tracer.events_list(), label=f"repro:{ns.workload}")
    if ns.text:
        with open(ns.text, "w") as fh:
            fh.write(to_text(tracer.events_list()))
    json.dump(tracer.summary(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
