"""The validation harness: measured vs expected, per PMU, per event.

For one machine preset the harness runs a workload x event matrix
through the full System/PAPI stack:

* one pinned validation thread per core type, each with a per-thread
  EventSet holding a batch of that PMU's native events (batched to the
  core's general-purpose counter budget so nothing multiplexes);
* uncore LLC and RAPL energy events piggybacking on the first thread's
  EventSet (they cost no core counters);
* one deliberately *multiplexed* EventSet run — every event of the
  biggest core's PMU at once, long enough for many rotation periods —
  scored separately, since scaled estimates can only be proportional.

Each event's measured counts at two run scales are compared against the
:mod:`repro.validate.oracle` expectations and classified Röhl-style:

``exact``
    every sample within counter quantization (2 counts) or 1e-9 relative;
``proportional``
    a stable scale factor within 5 % of 1 (spread <= 2 %);
``noisy``
    all samples within 25 % but unstable;
``broken``
    anything else, including NaN reads.

Setting ``REPRO_VALIDATE_SELFTEST=1`` seeds a deliberate kernel decode
bug (branch-miss configs count CYCLES instead) that a correct harness
*must* report as ``broken`` — a mutation test of the validator itself.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable, Optional

from repro.hw.coretype import ArchEvent, CoreType
from repro.hw.eventcodes import CODES_BY_PFM_PMU
from repro.kernel.perf.pmu import RAPL_PERF_UNIT_J
from repro.kernel.perf.subsystem import MUX_ROTATION_PERIOD_S
from repro.papi.library import Papi
from repro.pfmlib.library import PfmError, Pfmlib
from repro.sim.task import Program, SimThread
from repro.system import System
from repro.validate.oracle import expected_vector, validation_phase

#: Env flag arming the deliberate counter bug (validator mutation test).
SELFTEST_ENV = "REPRO_VALIDATE_SELFTEST"

#: Counter-quantization tolerance: read_value() truncates to an integer
#: and clamps at 2^48-1, so an exact counter may differ by up to ~2.
EXACT_ATOL = 2.0
EXACT_RTOL = 1e-9
PROPORTIONAL_TOL = 0.05
PROPORTIONAL_SPREAD = 0.02
NOISY_TOL = 0.25

#: Default run scales (instructions per validation thread).  Two scales
#: let proportionality (a *stable* scale factor) be distinguished from
#: noise.
DEFAULT_SCALES = (1.5e6, 4.5e6)

#: Rotation periods the multiplexed run must span (per-thread runtime).
_MUX_ROTATIONS = 60

#: RAPL perf config -> machine ground-truth energy domain.
_RAPL_DOMAINS = {0x02: "package", 0x01: "cores", 0x03: "dram"}


class Accuracy(str, enum.Enum):
    """Röhl-style per-event accuracy classes."""

    EXACT = "exact"
    PROPORTIONAL = "proportional"
    NOISY = "noisy"
    BROKEN = "broken"


def classify(expected: list[float], measured: list[float]) -> Accuracy:
    """Assign an accuracy class to paired expected/measured samples."""
    pairs = list(zip(expected, measured))
    if not pairs:
        raise ValueError("classify needs at least one sample")
    if any(not math.isfinite(m) for _, m in pairs):
        return Accuracy.BROKEN

    def exact(e: float, m: float) -> bool:
        if abs(m - e) <= EXACT_ATOL:
            return True
        return e != 0.0 and abs(m - e) / abs(e) <= EXACT_RTOL

    if all(exact(e, m) for e, m in pairs):
        return Accuracy.EXACT
    ratios = []
    for e, m in pairs:
        if abs(e) <= EXACT_ATOL:
            if abs(m) > EXACT_ATOL:
                # Expected ~nothing, measured something: miscounting.
                return Accuracy.BROKEN
            continue
        ratios.append(m / e)
    if not ratios:
        return Accuracy.EXACT
    if all(abs(r - 1.0) <= PROPORTIONAL_TOL for r in ratios) and (
        max(ratios) - min(ratios) <= PROPORTIONAL_SPREAD
    ):
        return Accuracy.PROPORTIONAL
    if all(abs(r - 1.0) <= NOISY_TOL for r in ratios):
        return Accuracy.NOISY
    return Accuracy.BROKEN


@dataclass
class EventScore:
    """One scorecard row: a native event on one PMU of one machine."""

    machine: str
    pmu: str                      # Linux PMU name (cpu_core, power, ...)
    event: str                    # pfm fullname (adl_glc::INST_RETIRED:ANY)
    arch_event: Optional[str]     # ArchEvent name, None for RAPL
    core_type: Optional[str]      # owning core type, None for package PMUs
    multiplexed: bool
    expected: list[float]
    measured: list[float]
    accuracy: Accuracy

    @property
    def key(self) -> tuple:
        """Engine-independent identity (the cross-engine parity key)."""
        return (self.machine, self.pmu, self.event, self.multiplexed)

    def to_dict(self) -> dict:
        return {
            "machine": self.machine,
            "pmu": self.pmu,
            "event": self.event,
            "arch_event": self.arch_event,
            "core_type": self.core_type,
            "multiplexed": self.multiplexed,
            "expected": [None if not math.isfinite(v) else v for v in self.expected],
            "measured": [None if not math.isfinite(v) else v for v in self.measured],
            "accuracy": self.accuracy.value,
        }


@dataclass
class Scorecard:
    """The machine-readable validation result for one machine."""

    machine: str
    engine: str
    seed: int
    scales: list[float]
    rows: list[EventScore] = field(default_factory=list)

    def class_map(self) -> dict[tuple, str]:
        """Event identity -> accuracy class, engine excluded from keys."""
        return {row.key: row.accuracy.value for row in self.rows}

    def accuracy_by_event(self) -> dict[str, str]:
        """pfm event fullname -> accuracy (dedicated-counter rows only)."""
        return {
            row.event: row.accuracy.value
            for row in self.rows
            if not row.multiplexed
        }

    def counts(self) -> dict[str, int]:
        out = {acc.value: 0 for acc in Accuracy}
        for row in self.rows:
            out[row.accuracy.value] += 1
        return out

    def broken(self) -> list[EventScore]:
        return [r for r in self.rows if r.accuracy is Accuracy.BROKEN]

    def to_dict(self) -> dict:
        return {
            "machine": self.machine,
            "engine": self.engine,
            "seed": self.seed,
            "scales": self.scales,
            "counts": self.counts(),
            "rows": [row.to_dict() for row in self.rows],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def selftest_detected(card: Scorecard) -> bool:
    """Whether the seeded decode bug shows up: every branch-miss row
    (the corrupted events) classified ``broken``."""
    rows = [
        r
        for r in card.rows
        if r.arch_event == ArchEvent.BRANCH_MISSES.name and not r.multiplexed
    ]
    return bool(rows) and all(r.accuracy is Accuracy.BROKEN for r in rows)


# -- event matrix ----------------------------------------------------------


@dataclass
class _PmuPlan:
    """The events to validate on one core type's PMU, pre-batched."""

    core_type: CoreType
    linux_pmu: str
    events: list[tuple[str, int]]            # (pfm fullname, config)
    batches: list[list[tuple[str, int]]]


def _core_plans(system: System, pfm: Pfmlib) -> list[_PmuPlan]:
    """Enumerate every kernel-countable native event per core PMU.

    Event identity (config -> architectural meaning) comes from the
    vendor tables (:data:`CODES_BY_PFM_PMU`), *not* from the kernel's
    decode — the kernel is the unit under test (and the selftest's
    deliberate bug corrupts exactly that decode).
    """
    plans = []
    for ct in system.topology.core_types:
        try:
            table = pfm.pmu_by_name(ct.pfm_pmu)
        except PfmError:
            continue
        decode = system.perf.registry.by_name[ct.pmu_name].decode
        seen: set[int] = set()
        events: list[tuple[str, int]] = []
        for event in table.events.values():
            for umask in event.umasks:
                config = event.code(umask)
                # Umask aliases (INST_RETIRED:ANY / :ANY_P) encode the
                # same counter; validate each config once.
                if config in seen or config not in decode:
                    continue
                seen.add(config)
                events.append((f"{table.name}::{event.name}:{umask}", config))
        cap = max(1, ct.n_gp_counters)
        batches = [events[i : i + cap] for i in range(0, len(events), cap)]
        plans.append(_PmuPlan(ct, ct.pmu_name, events, batches))
    return plans


def _package_events(pfm: Pfmlib, table_name: str) -> list[tuple[str, int]]:
    try:
        table = pfm.pmu_by_name(table_name)
    except PfmError:
        return []
    return [
        (f"{table.name}::{event.name}:{umask}", event.code(umask))
        for event in table.events.values()
        for umask in event.umasks
    ]


def _corrupt_branch_miss_decode(system: System) -> None:
    """The seeded counter bug: every core PMU's branch-miss config
    decodes to CYCLES, so the hardware counts the wrong event."""
    for ct in system.topology.core_types:
        decode = system.perf.registry.by_name[ct.pmu_name].decode
        bad = [c for c, arch in decode.items() if arch is ArchEvent.BRANCH_MISSES]
        for config in bad:
            decode[config] = ArchEvent.CYCLES


def _selftest_armed() -> bool:
    return os.environ.get(SELFTEST_ENV, "") not in ("", "0")


# -- single runs -----------------------------------------------------------

FaultPlanFn = Callable[[System], object]


def _build_system(
    machine: str,
    engine: Optional[str],
    seed: int,
    dt_s: float,
    fault_plan_fn: Optional[FaultPlanFn],
) -> tuple[System, Papi]:
    kw = {} if engine is None else {"engine": engine}
    system = System(machine, dt_s=dt_s, seed=seed, **kw)
    if _selftest_armed():
        _corrupt_branch_miss_decode(system)
    if fault_plan_fn is not None:
        # The injector registers itself on the machine's tick hooks.
        system.inject_faults(fault_plan_fn(system))
    papi = Papi(system, mode="hybrid")
    return system, papi


def _rapl_snapshot(system: System) -> dict[str, float]:
    rapl = system.machine.rapl
    return {
        "package": rapl.package.energy_j,
        "cores": rapl.cores.energy_j,
        "dram": rapl.dram.energy_j,
    }


def _run_matrix_once(
    machine: str,
    engine: Optional[str],
    seed: int,
    scale: float,
    batch_index: int,
    dt_s: float,
    fault_plan_fn: Optional[FaultPlanFn],
) -> tuple[dict[tuple[str, str], tuple], int]:
    """One measurement run: every core type, one event batch each.

    Returns ``{(linux_pmu, fullname): (expected, measured, arch_name,
    core_type_name)}`` plus the total number of batches.
    """
    system, papi = _build_system(machine, engine, seed, dt_s, fault_plan_fn)
    machine_obj = system.machine
    topo = system.topology
    plans = _core_plans(system, papi.pfm)
    n_batches = max(len(p.batches) for p in plans)

    threads: dict[str, SimThread] = {}
    for plan in plans:
        cpu = topo.cpus_of_type(plan.core_type.name)[0]
        thread = SimThread(
            f"validate-{plan.core_type.name}",
            Program([validation_phase(scale)]),
            affinity={cpu},
        )
        machine_obj.spawn(thread)
        threads[plan.core_type.name] = thread

    uncore_decode = system.perf.registry.by_name["uncore_llc"].decode
    uncore_events = _package_events(papi.pfm, "uncore_llc")
    rapl_events = (
        _package_events(papi.pfm, "rapl") if system.spec.has_rapl else []
    )

    # (esid, plan, [(linux_pmu, fullname, arch_or_None, domain_or_None)])
    setups = []
    for i, plan in enumerate(plans):
        batch = plan.batches[batch_index] if batch_index < len(plan.batches) else []
        codes = CODES_BY_PFM_PMU[plan.core_type.pfm_pmu]
        specs = [
            (plan.linux_pmu, name, codes[config], None)
            for name, config in batch
        ]
        if i == 0 and batch_index == 0:
            specs += [
                ("uncore_llc", name, uncore_decode[config], None)
                for name, config in uncore_events
            ]
            specs += [
                ("power", name, None, _RAPL_DOMAINS[config])
                for name, config in rapl_events
            ]
        if not specs:
            continue
        esid = papi.create_eventset()
        papi.attach(esid, threads[plan.core_type.name])
        for _, name, _, _ in specs:
            papi.add_event(esid, name)
        setups.append((esid, plan, specs))

    energy_before = _rapl_snapshot(system)
    for esid, _, _ in setups:
        papi.start(esid)
    machine_obj.run_until_done(list(threads.values()), max_s=600.0, strict=True)
    values = {esid: papi.stop(esid) for esid, _, _ in setups}
    energy_after = _rapl_snapshot(system)
    for esid, _, _ in setups:
        papi.destroy_eventset(esid)

    expect_vecs = {}
    for plan in plans:
        thread = threads[plan.core_type.name]
        expect_vecs[plan.core_type.name] = expected_vector(
            plan.core_type,
            scale,
            runtime_s=thread.runtime_s.get(plan.linux_pmu, 0.0),
            tsc_ghz=machine_obj.tsc_ghz,
        )

    results: dict[tuple[str, str], tuple] = {}
    for esid, plan, specs in setups:
        for (pmu, name, arch, domain), measured in zip(specs, values[esid]):
            if domain is not None:
                delta_j = energy_after[domain] - energy_before[domain]
                expected = delta_j / RAPL_PERF_UNIT_J
                ct_name = None
            elif pmu == "uncore_llc":
                # The uncore PMU counts every core in the package.
                expected = reduce(add, (v[arch] for v in expect_vecs.values()), 0)
                ct_name = None
            else:
                expected = expect_vecs[plan.core_type.name][arch]
                ct_name = plan.core_type.name
            arch_name = arch.name if arch is not None else None
            results[(pmu, name)] = (
                float(expected),
                float(measured),
                arch_name,
                ct_name,
            )
    return results, n_batches


def _mux_instructions(ct: CoreType) -> float:
    """Enough work for ~:data:`_MUX_ROTATIONS` rotation periods even at
    the core's maximum frequency (lower clocks only add rotations)."""
    ips = 0.8 * ct.ipc * ct.max_freq_mhz * 1e6
    return float(round(_MUX_ROTATIONS * MUX_ROTATION_PERIOD_S * ips))


def _run_mux_once(
    machine: str,
    engine: Optional[str],
    seed: int,
    dt_s: float,
) -> dict[tuple[str, str], tuple]:
    """One multiplexed run: all events of the biggest core's PMU at once."""
    system, papi = _build_system(machine, engine, seed, dt_s, None)
    machine_obj = system.machine
    topo = system.topology
    plans = _core_plans(system, papi.pfm)
    plan = max(
        plans, key=lambda p: p.core_type.capacity * p.core_type.max_freq_mhz
    )
    ct = plan.core_type
    scale = _mux_instructions(ct)
    cpu = topo.cpus_of_type(ct.name)[0]
    thread = SimThread(
        f"validate-mux-{ct.name}",
        Program([validation_phase(scale)]),
        affinity={cpu},
    )
    machine_obj.spawn(thread)

    esid = papi.create_eventset()
    papi.attach(esid, thread)
    papi.set_multiplex(esid)
    # Two copies of every event: twice the groups guarantees the PMU's
    # counter budget overflows, so rotation genuinely engages — and each
    # event gets two independently scheduled samples to classify.
    for name, _ in plan.events:
        papi.add_event(esid, name)
        papi.add_event(esid, name)
    papi.start(esid)
    machine_obj.run_until_done([thread], max_s=600.0, strict=True)
    values = papi.stop(esid)
    papi.destroy_eventset(esid)

    vec = expected_vector(
        ct,
        scale,
        runtime_s=thread.runtime_s.get(plan.linux_pmu, 0.0),
        tsc_ghz=machine_obj.tsc_ghz,
    )
    codes = CODES_BY_PFM_PMU[ct.pfm_pmu]
    results: dict[tuple[str, str], tuple] = {}
    for i, (name, config) in enumerate(plan.events):
        arch = codes[config]
        expected = float(vec[arch])
        samples = [float(values[2 * i]), float(values[2 * i + 1])]
        results[(plan.linux_pmu, name)] = (
            [expected, expected],
            samples,
            arch.name,
            ct.name,
        )
    return results


# -- the scorecard ---------------------------------------------------------


def run_validation(
    machine: str = "raptor-lake-i7-13700",
    engine: Optional[str] = None,
    seed: int = 0,
    scales: tuple[float, ...] = DEFAULT_SCALES,
    dt_s: float = 1e-4,
    include_mux: bool = True,
    fault_plan_fn: Optional[FaultPlanFn] = None,
) -> Scorecard:
    """Validate every native event on ``machine`` and build a scorecard.

    ``fault_plan_fn``, when given, is called with each freshly built
    :class:`System` and must return a :class:`repro.faults.plan.FaultPlan`
    to inject (the fault-stability property tests use this).  The
    multiplexed run never takes faults — its rows quantify rotation
    quality, not fault tolerance.
    """
    per_scale: list[dict[tuple[str, str], tuple]] = []
    for scale in scales:
        merged: dict[tuple[str, str], tuple] = {}
        batch_index = 0
        n_batches = 1
        while batch_index < n_batches:
            results, n_batches = _run_matrix_once(
                machine, engine, seed, scale, batch_index, dt_s, fault_plan_fn
            )
            merged.update(results)
            batch_index += 1
        per_scale.append(merged)

    card = Scorecard(
        machine=machine,
        engine=engine or "auto",
        seed=seed,
        scales=list(scales),
    )
    for key, (_, _, arch_name, ct_name) in per_scale[0].items():
        expected = [per_scale[i][key][0] for i in range(len(scales))]
        measured = [per_scale[i][key][1] for i in range(len(scales))]
        pmu, name = key
        card.rows.append(
            EventScore(
                machine=machine,
                pmu=pmu,
                event=name,
                arch_event=arch_name,
                core_type=ct_name,
                multiplexed=False,
                expected=expected,
                measured=measured,
                accuracy=classify(expected, measured),
            )
        )

    if include_mux:
        mux = _run_mux_once(machine, engine, seed, dt_s)
        for (pmu, name), (exp, meas, arch_name, ct_name) in mux.items():
            card.rows.append(
                EventScore(
                    machine=machine,
                    pmu=pmu,
                    event=name,
                    arch_event=arch_name,
                    core_type=ct_name,
                    multiplexed=True,
                    expected=exp,
                    measured=meas,
                    accuracy=classify(exp, meas),
                )
            )
    return card
