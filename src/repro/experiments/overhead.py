"""§V-5 ablation: overhead of the multi-group EventSet design.

The hybrid perf_event component keeps one perf event group per PMU type,
so every start/stop/read touches one fd *per group* instead of one
total.  This experiment counts the syscalls and their modeled
instruction cost per PAPI operation as the number of PMUs in the
EventSet grows, and demonstrates the ``rdpmc`` fast path (works only on
the matching core type).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import render_table
from repro.kernel.perf.rdpmc import RdpmcReader
from repro.papi import Papi
from repro.sim.task import ControlOp, Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System
from repro.validate.groups import MeasurementBundle, MetricValue, evaluate

RATES = constant_rates(PhaseRates(ipc=2.0))


@dataclass
class OpCost:
    syscalls: int
    instructions: float


@dataclass
class OverheadResult:
    machine: str
    # config label -> op name -> cost
    costs: dict[str, dict[str, OpCost]] = field(default_factory=dict)
    groups: dict[str, int] = field(default_factory=dict)
    # config label -> evaluated "papi_op_cost" derived-metric group
    derived: dict[str, MetricValue] = field(default_factory=dict)
    rdpmc_matching_core: bool = False
    rdpmc_foreign_core: bool = True  # should come back False (invalid)
    rdpmc_value: int = 0

    def syscalls_per_group(self, label: str, op: str) -> float:
        """The derived per-group cost of one PAPI op (from ``derived``)."""
        return self.derived[label].per_key[f"{op}.syscalls_per_group"]


EVENTSET_CONFIGS: dict[str, list[str]] = {
    "1 PMU, 2 events": [
        "adl_glc::INST_RETIRED:ANY",
        "adl_glc::CPU_CLK_UNHALTED:THREAD",
    ],
    "2 PMUs, 2 events": [
        "adl_glc::INST_RETIRED:ANY",
        "adl_grt::INST_RETIRED:ANY",
    ],
    "2 PMUs, 4 events": [
        "adl_glc::INST_RETIRED:ANY",
        "adl_glc::CPU_CLK_UNHALTED:THREAD",
        "adl_grt::INST_RETIRED:ANY",
        "adl_grt::CPU_CLK_UNHALTED:THREAD",
    ],
    "2 PMUs + uncore + RAPL": [
        "adl_glc::INST_RETIRED:ANY",
        "adl_grt::INST_RETIRED:ANY",
        "uncore_llc::LLC_MISSES",
        "rapl::RAPL_ENERGY_PKG",
    ],
}


def run_overhead(machine: str = "raptor-lake-i7-13700") -> OverheadResult:
    out = OverheadResult(machine=machine)
    for label, events in EVENTSET_CONFIGS.items():
        system = System(machine, dt_s=1e-4)
        papi = Papi(system, mode="hybrid")
        t = system.machine.spawn(
            SimThread("app", Program([ComputePhase(5e6, RATES)]), affinity={0})
        )
        es = papi.create_eventset()
        papi.attach(es, t)
        for name in events:
            # The multi-PMU layouts are what this ablation measures.
            papi.add_event(es, name)  # repro-lint: disable=PAPI-PMU-MIX
        out.groups[label] = papi.num_groups(es)
        stats = system.perf.cost.stats
        ops = {}
        before = stats.snapshot()
        papi.start(es)
        d = stats.delta(before)
        ops["start"] = OpCost(d.total_calls, d.instructions_charged)
        system.machine.run_until_done([t], max_s=5.0, strict=True)
        before = stats.snapshot()
        papi.read(es)
        d = stats.delta(before)
        ops["read"] = OpCost(d.total_calls, d.instructions_charged)
        before = stats.snapshot()
        papi.stop(es)
        d = stats.delta(before)
        ops["stop"] = OpCost(d.total_calls, d.instructions_charged)
        out.costs[label] = ops
        out.derived[label] = evaluate(
            "papi_op_cost",
            MeasurementBundle(
                syscalls={op: float(c.syscalls) for op, c in ops.items()},
                groups=out.groups[label],
            ),
        )
        papi.destroy_eventset(es)

    # rdpmc fast path: read a P-core event from the target thread while
    # it runs on a P-core (valid) and on an E-core (invalid).
    system = System(machine, dt_s=1e-4)
    papi = Papi(system, mode="hybrid")
    pfm = papi.pfm
    attr_p, _ = pfm.get_os_event_encoding("adl_glc::INST_RETIRED:ANY")
    attr_p.disabled = False

    p_cpu = system.topology.cpus_of_type("P-core")[0]
    e_cpu = system.topology.cpus_of_type("E-core")[0]
    holder: dict = {}

    def on_p(thread):
        r = RdpmcReader(system.perf, holder["fd"]).read(thread)
        out.rdpmc_matching_core = r.valid
        out.rdpmc_value = r.value
        thread.affinity = {e_cpu}

    def on_e(thread):
        r = RdpmcReader(system.perf, holder["fd"]).read(thread)
        out.rdpmc_foreign_core = r.valid

    t = system.machine.spawn(
        SimThread(
            "rdpmc-app",
            Program(
                [
                    ComputePhase(2e6, RATES),
                    ControlOp(on_p, "rdpmc-on-p"),
                    ComputePhase(2e6, RATES),
                    ControlOp(on_e, "rdpmc-on-e"),
                ]
            ),
            affinity={p_cpu},
        )
    )
    holder["fd"] = system.perf.perf_event_open(attr_p, pid=t.tid, cpu=-1)
    system.machine.run_until_done([t], max_s=5.0, strict=True)
    system.perf.close(holder["fd"])
    return out


def render(result: OverheadResult) -> str:
    rows = []
    for label, ops in result.costs.items():
        rows.append(
            [
                label,
                str(result.groups[label]),
                str(ops["start"].syscalls),
                str(ops["read"].syscalls),
                str(ops["stop"].syscalls),
                f"{result.syscalls_per_group(label, 'read'):.1f}",
                f"{ops['read'].instructions:.0f}",
            ]
        )
    table = render_table(
        ["EventSet", "groups", "start syscalls", "read syscalls",
         "stop syscalls", "read sysc/group", "read instr cost"],
        rows,
    )
    rd = (
        f"  rdpmc on matching core: valid={result.rdpmc_matching_core} "
        f"(value {result.rdpmc_value}); on foreign core: "
        f"valid={result.rdpmc_foreign_core}"
    )
    return table + "\n" + rd


def shape_holds(result: OverheadResult) -> dict[str, bool]:
    one = result.costs["1 PMU, 2 events"]
    two = result.costs["2 PMUs, 2 events"]
    return {
        # The paper's accuracy note: reading a hybrid EventSet takes at
        # least one read syscall per PMU group.
        "hybrid_read_needs_more_syscalls": two["read"].syscalls
        > one["read"].syscalls,
        "hybrid_start_needs_more_syscalls": two["start"].syscalls
        > one["start"].syscalls,
        "groups_match_pmus": result.groups["1 PMU, 2 events"] == 1
        and result.groups["2 PMUs, 2 events"] == 2,
        # The derived group states the invariant directly: one read
        # syscall per group, two for start (reset + enable), per config.
        "read_is_one_syscall_per_group": all(
            result.syscalls_per_group(label, "read") == 1.0
            for label in result.costs
        ),
        "start_is_two_syscalls_per_group": all(
            result.syscalls_per_group(label, "start") == 2.0
            for label in result.costs
        ),
        "rdpmc_fast_path_works": result.rdpmc_matching_core
        and not result.rdpmc_foreign_core,
    }
