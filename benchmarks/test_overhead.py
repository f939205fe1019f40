"""A1: the §V-5 overhead ablation.

Two halves:

* the *modeled* cost — syscalls and charged instructions per PAPI
  operation as the number of perf event groups grows (regenerated table);
* the *host-level* cost of the library implementation itself, measured
  with pytest-benchmark: PAPI read on a 1-group vs 2-group EventSet.
"""

from benchmarks.conftest import emit
from repro.experiments import overhead
from repro.papi import Papi
from repro.sim.task import Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System

RATES = constant_rates(PhaseRates(ipc=2.0))


def test_overhead_table(benchmark):
    result = benchmark.pedantic(
        lambda: overhead.run_overhead(), rounds=1, iterations=1
    )
    emit("§V-5 — Syscall overhead per PAPI operation vs EventSet layout",
         overhead.render(result))
    holds = overhead.shape_holds(result)
    assert all(holds.values()), holds
    # Syscall counts scale linearly with the group count.
    one = result.costs["1 PMU, 2 events"]
    four = result.costs["2 PMUs + uncore + RAPL"]
    assert four["read"].syscalls == 4 * one["read"].syscalls


def _reader(n_pmus: int):
    system = System("raptor-lake-i7-13700", dt_s=1e-3)
    papi = Papi(system)
    t = system.machine.spawn(
        SimThread("app", Program([ComputePhase(1e9, RATES)]), affinity={0})
    )
    es = papi.create_eventset()
    papi.attach(es, t)
    # The two-PMU reader times the P-core/E-core mix on purpose.
    papi.add_event(es, "adl_glc::INST_RETIRED:ANY")  # repro-lint: disable=PAPI-PMU-MIX
    if n_pmus == 2:
        papi.add_event(es, "adl_grt::INST_RETIRED:ANY")
    papi.start(es)
    system.machine.run_ticks(5)
    return papi, es


def test_read_latency_one_group(benchmark):
    papi, es = _reader(1)
    benchmark(papi.read, es)


def test_read_latency_two_groups(benchmark):
    papi, es = _reader(2)
    benchmark(papi.read, es)
