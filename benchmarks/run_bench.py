#!/usr/bin/env python
"""Simulator performance tracker.

Times the three substrate microbenchmarks (engine tick throughput,
perf-account hook overhead, small-HPL simulation rate) on both engines
(``ticks``, ``events``) and writes ``BENCH_simulator.json``
at the repo root so future PRs can track the perf trajectory::

    PYTHONPATH=src python benchmarks/run_bench.py

Each timing is the **median** of ``--rounds`` measured rounds after
``--warmup`` discarded rounds: the first rounds of a fresh process pay
for allocator warmup, code-object caching and branch training, and a
mean over them produced nonsense like *negative* trace overhead in
earlier baselines.  Within a benchmark the engine variants are timed in
**interleaved** rounds (ticks, events, traced, repeat) so slow
host drift — thermal/turbo state, background load — cancels out of the
cross-engine ratios instead of biasing whichever variant ran last.

Each benchmark also reports a ``traced_s`` column (event engine with
full tracing on) so the cost of observation is tracked alongside.

Two deterministic CI guards:

``--check-trace-overhead``
    The *simulated* completion time of the small HPL run (a pure
    function of the machine and seed, immune to host noise) must stay
    within 2% of the ``hpl_sim_time_s`` recorded in
    ``BENCH_simulator.json``, and tracing must not move it at all.

``--check-regression``
    Re-times ``hpl_simulation_rate`` on the event engine and fails if
    the speedup vs. the frozen seed baseline drops below the
    ``floors["hpl_speedup_vs_seed"]`` recorded in
    ``BENCH_simulator.json`` (with head-room slack for host noise, see
    ``FLOOR_SLACK``).  This is the gate that keeps engine regressions
    like the PR 2–5 fastpath erosion from landing silently.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.hpl import HplConfig, run_hpl  # noqa: E402
from repro.kernel.perf import PerfEventAttr  # noqa: E402
from repro.kernel.perf.subsystem import PerfIoctl  # noqa: E402
from repro.sim.task import Program, SimThread  # noqa: E402
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates  # noqa: E402
from repro.system import System  # noqa: E402

RATES = constant_rates(
    PhaseRates(ipc=2.0, llc_refs_per_instr=0.01, llc_miss_rate=0.5)
)
MACHINE = "raptor-lake-i7-13700"

#: The engine matrix, slowest first.  "ticks" is the plain single-tick
#: loop, "events" the event-driven core.
ENGINES = ("ticks", "events")

#: A measured speedup may sit this fraction below the recorded floor
#: before --check-regression fails: the floor is set from a quiet-host
#: median and CI runners are noisier.
FLOOR_SLACK = 0.25


def _median_of(fn, rounds: int, warmup: int) -> float:
    """Median of ``rounds`` calls to ``fn`` after ``warmup`` discarded
    calls (first-round allocator/caching costs would skew a mean)."""
    for _ in range(warmup):
        fn()
    return statistics.median(fn() for _ in range(rounds))


def _loaded_system(engine: str, with_events: bool, trace: bool = False) -> System:
    system = System(MACHINE, dt_s=0.001, engine=engine, trace=trace)
    threads = [
        system.machine.spawn(
            SimThread(f"w{cpu}", Program([ComputePhase(1e12, RATES)]), affinity={cpu})
        )
        for cpu in system.topology.primary_threads()
    ]
    if with_events:
        for t in threads:
            for pmu in ("cpu_core", "cpu_atom"):
                ptype = system.perf.registry.by_name[pmu].type
                # Events deliberately stay open: the benchmark measures
                # steady-state tick cost *with* live counters attached.
                fd = system.perf.perf_event_open(  # repro-lint: disable=PAPI-FD-LEAK
                    PerfEventAttr(type=ptype, config=0x00C0), pid=t.tid, cpu=-1
                )
                system.perf.ioctl(fd, PerfIoctl.ENABLE)
    system.machine.run_ticks(5)  # warm placement
    return system


def tick_rounds(engine: str, with_events: bool, trace: bool = False):
    """One-round closure: cost of one fully loaded ``run_ticks`` tick."""
    system = _loaded_system(engine, with_events, trace=trace)
    batch = 50

    def one_round() -> float:
        t0 = time.perf_counter()
        system.machine.run_ticks(batch)
        return (time.perf_counter() - t0) / batch

    return one_round


def hpl_rounds(engine: str, trace: bool = False):
    """One-round closure: wall time of one small full HPL run."""

    def one_round() -> float:
        system = System(MACHINE, dt_s=0.01, engine=engine, trace=trace)
        t0 = time.perf_counter()
        result = run_hpl(
            system,
            HplConfig(n=4608, nb=192),
            variant="intel",
            cpus=system.topology.primary_threads(),
        )
        elapsed = time.perf_counter() - t0
        assert result.gflops > 0
        return elapsed

    return one_round


def hpl_sim_time(trace: bool) -> float:
    """*Simulated* completion time of the small HPL run — deterministic,
    so usable as a bit-stable regression reference."""
    system = System(MACHINE, dt_s=0.01, trace=trace)
    run_hpl(
        system,
        HplConfig(n=4608, nb=192),
        variant="intel",
        cpus=system.topology.primary_threads(),
    )
    return system.machine.now_s


#: name -> factory(engine, trace) -> zero-arg one-round closure.
BENCHES = {
    "engine_tick_throughput": lambda eng, tr=False: tick_rounds(eng, False, tr),
    "perf_account_hook_overhead": lambda eng, tr=False: tick_rounds(eng, True, tr),
    "hpl_simulation_rate": lambda eng, tr=False: hpl_rounds(eng, tr),
}


def run_bench(factory, rounds: int, warmup: int) -> dict[str, float]:
    """Interleaved per-variant medians for one benchmark.

    Variants are warmed once each, then timed round-robin so host drift
    hits every variant equally within a round.
    """
    variants = {eng: factory(eng) for eng in ENGINES}
    variants["traced"] = factory("events", True)
    for fn in variants.values():
        for _ in range(warmup):
            fn()
    samples: dict[str, list[float]] = {k: [] for k in variants}
    for _ in range(rounds):
        for k, fn in variants.items():
            samples[k].append(fn())
    return {k: statistics.median(v) for k, v in samples.items()}

#: pytest-benchmark means measured on the pre-fast-path engine (commit
#: 77ce6b6), for trajectory tracking.  ``engine="ticks"`` today is *not*
#: the seed engine: the vectorized accounting kernel and the bulk
#: chunk-claim are shared by every engine, so the plain loop also got
#: faster.
SEED_BASELINE_S = {
    "engine_tick_throughput": 391e-6,
    "perf_account_hook_overhead": 508e-6,
    "hpl_simulation_rate": 123.3e-3,
}


#: Worker-pool sizes the fleet benchmark sweeps.
FLEET_SIZES = (1, 2, 4)


def fleet_bench(baseline_path: Path, rounds: int, warmup: int) -> int:
    """Fleet throughput: jobs/s of a 16-job sweep at pool sizes 1/2/4.

    Each round runs the 16-job ``fleet``-preset sweep through the real
    :class:`~repro.supervisor.Supervisor` (subprocess workers, journal,
    heartbeats — the full supervisor path) into a throwaway directory, and
    times the whole sweep.  Results are merged into the ``fleet``
    section of ``BENCH_simulator.json`` without touching the engine
    numbers.  Fails if the 4-worker pool is not faster than the
    single-worker pool — the concurrency must actually buy throughput.
    """
    import shutil
    import tempfile

    from repro.supervisor import RunSpec, Supervisor

    jobs = [
        RunSpec(
            f"hpl-{variant}-n{n}",
            "hpl",
            {"machine": MACHINE, "n": n, "nb": 128, "variant": variant,
             "slice_s": 0.02},
        )
        for variant in ("openblas", "intel")
        for n in (800, 900, 1000, 1100, 1200, 1300, 1400, 1500)
    ]
    scratch = tempfile.mkdtemp(prefix="fleet-bench-")
    counter = [0]

    def one_sweep(workers: int) -> float:
        counter[0] += 1
        out = Path(scratch) / f"sweep-{counter[0]}"
        sup = Supervisor(
            str(out),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=workers,
            log=lambda m: None,
        )
        t0 = time.perf_counter()
        manifest = sup.run(list(jobs))
        elapsed = time.perf_counter() - t0
        assert all(rec.status == "done" for rec in manifest.runs.values())
        shutil.rmtree(out, ignore_errors=True)
        return elapsed

    try:
        walls = {
            n: _median_of(lambda: one_sweep(n), rounds, warmup)
            for n in FLEET_SIZES
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    section = {
        "jobs": len(jobs),
        "rounds": rounds,
        "warmup": warmup,
        # The pool's wins are host-dependent: on a single-CPU host the
        # speedup is only startup/IO overlap; on multicore it is real
        # parallel compute.  Record the host so numbers compare fairly.
        "host_cpus": os.cpu_count(),
        "workers": {
            str(n): {
                "wall_s": walls[n],
                "jobs_per_s": len(jobs) / walls[n],
                "speedup_vs_1": walls[1] / walls[n],
            }
            for n in FLEET_SIZES
        },
    }
    for n in FLEET_SIZES:
        w = section["workers"][str(n)]
        print(
            f"fleet N={n}: {w['wall_s']:7.3f} s  "
            f"{w['jobs_per_s']:6.2f} jobs/s  "
            f"{w['speedup_vs_1']:5.2f}x vs N=1"
        )

    # Merge into the tracked baseline without clobbering engine numbers.
    payload = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    payload["fleet"] = section
    baseline_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"updated fleet section of {baseline_path}")

    if walls[4] >= walls[1]:
        print(
            "FAIL: the 4-worker fleet is not faster than a single worker — "
            "pool concurrency is buying nothing; check for serialization "
            "in the poll loop or journal fsync path"
        )
        return 1
    print("OK: 4-worker fleet beats single-worker throughput")
    return 0


def check_trace_overhead(baseline_path: Path, tolerance: float = 0.02) -> int:
    """Deterministic guard: trace-off HPL *sim* time within ``tolerance``
    of the recorded baseline, and tracing must not move sim time at all."""
    baseline = json.loads(baseline_path.read_text()).get("hpl_sim_time_s")
    if baseline is None:
        print(f"{baseline_path} has no hpl_sim_time_s; regenerate the baseline")
        return 1
    off = hpl_sim_time(trace=False)
    on = hpl_sim_time(trace=True)
    drift = abs(off - baseline) / baseline
    print(
        f"hpl sim time: baseline {baseline:.6f}s  trace-off {off:.6f}s "
        f"(drift {drift * 100:.3f}%)  trace-on {on:.6f}s"
    )
    ok = True
    if drift > tolerance:
        print(f"FAIL: trace-off sim time drifted more than {tolerance * 100:.0f}%")
        ok = False
    if on != off:
        print("FAIL: tracing changed the simulated completion time")
        ok = False
    return 0 if ok else 1


def check_regression(baseline_path: Path, rounds: int, warmup: int) -> int:
    """Bench gate: the event engine's HPL speedup vs the frozen seed must
    not fall below the floor recorded in the baseline (minus slack)."""
    floors = json.loads(baseline_path.read_text()).get("floors")
    if not floors or "hpl_speedup_vs_seed" not in floors:
        print(
            f"{baseline_path} has no floors.hpl_speedup_vs_seed; "
            "regenerate the baseline"
        )
        return 1
    floor = floors["hpl_speedup_vs_seed"]
    gate = floor * (1.0 - FLOOR_SLACK)
    wall = _median_of(hpl_rounds("events"), rounds, warmup)
    speedup = SEED_BASELINE_S["hpl_simulation_rate"] / wall
    print(
        f"hpl_simulation_rate[events]: {wall * 1e3:.3f} ms  "
        f"= {speedup:.1f}x vs seed  (floor {floor:.1f}x, "
        f"gate {gate:.1f}x after {FLOOR_SLACK * 100:.0f}% noise slack)"
    )
    if speedup < gate:
        print(
            "FAIL: event-engine HPL speedup fell below the recorded floor — "
            "an engine hot-path regression landed; profile with "
            "tools/profile.py and either fix it or justify a new floor"
        )
        return 1
    print("OK: speedup holds the recorded floor")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument(
        "--warmup",
        type=int,
        default=3,
        help="discarded warmup rounds before the measured ones",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single-round CI smoke run; timings are not representative",
    )
    parser.add_argument(
        "--check-trace-overhead",
        action="store_true",
        help="compare HPL simulated time against BENCH_simulator.json "
        "(deterministic; fails on >2%% drift or any trace-on divergence)",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="fail if the event engine's HPL speedup vs seed drops below "
        "the floor recorded in BENCH_simulator.json",
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="measure fleet sweep throughput (jobs/s) at pool sizes "
        "1/2/4 and record it in BENCH_simulator.json; fails unless "
        "N=4 beats N=1",
    )
    args = parser.parse_args(argv)
    baseline = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"
    if args.check_trace_overhead:
        return check_trace_overhead(baseline)
    if args.smoke:
        args.rounds = 1
        args.warmup = 1
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.warmup < 0:
        parser.error("--warmup must be >= 0")
    if args.fleet:
        return fleet_bench(baseline, args.rounds, args.warmup)
    if args.check_regression:
        return check_regression(baseline, args.rounds, args.warmup)
    if args.output is None:
        # Smoke runs must not clobber the tracked perf-trajectory file.
        name = "BENCH_smoke.json" if args.smoke else "BENCH_simulator.json"
        args.output = Path(__file__).resolve().parent.parent / name

    results = {}
    for name, factory in BENCHES.items():
        med = run_bench(factory, args.rounds, args.warmup)
        best = min(med[eng] for eng in ENGINES)
        results[name] = {
            "seed_s": SEED_BASELINE_S[name],
            "ticks_s": med["ticks"],
            "events_s": med["events"],
            "traced_s": med["traced"],
            "events_vs_ticks": med["ticks"] / med["events"],
            "speedup_vs_seed": SEED_BASELINE_S[name] / best,
            "trace_on_overhead": med["traced"] / med["events"] - 1.0,
        }
        print(
            f"{name:28s} ticks {med['ticks'] * 1e3:8.3f} ms  "
            f"events {med['events'] * 1e3:8.3f} ms  "
            f"traced {med['traced'] * 1e3:8.3f} ms  "
            f"{results[name]['speedup_vs_seed']:6.1f}x vs seed"
        )

    hpl_speedup = results["hpl_simulation_rate"]["speedup_vs_seed"]
    payload = {
        "machine": MACHINE,
        "unit": "seconds (median wall time of warmed rounds)",
        "engines": {
            "ticks": "Machine(engine='ticks') — plain single-tick loop",
            "events": "Machine(engine='events') — event-driven core",
        },
        "traced": "Machine(engine='events', trace=True) — full tracing on",
        "rounds": args.rounds,
        "warmup": args.warmup,
        "hpl_sim_time_s": hpl_sim_time(trace=False),
        "floors": {
            # --check-regression gate: the floor records what this
            # baseline actually measured (CI applies FLOOR_SLACK).
            "hpl_speedup_vs_seed": hpl_speedup,
        },
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
