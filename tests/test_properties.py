"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.hpl import HplConfig, hpl_flops, hpl_steps
from repro.hpl.runner import default_cpu_selection, start_hpl
from repro.hw.cache import LlcModel
from repro.hw.machines import _gracemont, _raptor_cove
from repro.hw.rapl import RaplDomain
from repro.kernel.sched.affinity import format_cpu_list, parse_cpu_list
from repro.pfmlib.parser import parse_event_string

SLOW = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------- cpu lists

@given(st.sets(st.integers(min_value=0, max_value=512), max_size=64))
def test_cpu_list_roundtrip(cpus):
    assert parse_cpu_list(format_cpu_list(cpus)) == cpus


@given(st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=64))
def test_cpu_list_format_is_canonical(cpus):
    text = format_cpu_list(cpus)
    # Formatting what we parsed back produces the identical string.
    assert format_cpu_list(parse_cpu_list(text)) == text


# --------------------------------------------------------------- parser

_name = st.from_regex(r"[A-Z][A-Z0-9_]{0,12}", fullmatch=True)


@given(pmu=st.none() | st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
       event=_name, attrs=st.lists(_name, max_size=2))
def test_event_string_roundtrip(pmu, event, attrs):
    text = (f"{pmu}::" if pmu else "") + ":".join([event, *attrs])
    parsed = parse_event_string(text)
    assert parsed.event == event
    assert parsed.attrs == tuple(attrs)
    assert parse_event_string(parsed.canonical()) == parsed


# --------------------------------------------------------------- power model

@given(
    f=st.floats(min_value=0.2, max_value=6.0),
    busy=st.floats(min_value=0.0, max_value=1.0),
)
def test_core_power_positive_and_bounded_by_busy(f, busy):
    p = _raptor_cove().power
    w = p.core_power(f, busy)
    assert w >= p.leak_w
    assert w <= p.core_power(f, 1.0) + 1e-12


@given(
    budget=st.floats(min_value=0.0, max_value=50.0),
    busy=st.floats(min_value=0.05, max_value=1.0),
)
def test_freq_for_power_meets_budget(budget, busy):
    ct = _gracemont()
    f = ct.power.freq_for_power(budget, busy, ct.min_freq_ghz, ct.max_freq_ghz)
    assert ct.min_freq_ghz <= f <= ct.max_freq_ghz
    # Unless pinned at the floor, the chosen frequency fits the budget.
    if f > ct.min_freq_ghz * 1.001:
        assert ct.power.core_power(f, busy) <= budget * 1.001


# --------------------------------------------------------------- cache model

@given(
    ws=st.floats(min_value=0.01, max_value=1e5),
    reuse=st.floats(min_value=0.0, max_value=1.0),
    sharers=st.integers(min_value=1, max_value=64),
)
def test_missrate_in_unit_interval(ws, reuse, sharers):
    m = LlcModel(30.0).miss_rate(ws, reuse, sharers)
    assert 0.0 < m <= 1.0


@given(
    ws=st.floats(min_value=31.0, max_value=1e4),
    r1=st.floats(min_value=0.0, max_value=1.0),
    r2=st.floats(min_value=0.0, max_value=1.0),
)
def test_better_blocking_never_hurts(ws, r1, r2):
    llc = LlcModel(30.0)
    lo, hi = sorted((r1, r2))
    assert llc.miss_rate(ws, hi, 8) <= llc.miss_rate(ws, lo, 8) + 1e-12


# --------------------------------------------------------------- RAPL

@given(st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=1e-4, max_value=10.0)),
    min_size=1, max_size=50))
def test_energy_monotone_and_consistent(samples):
    d = RaplDomain("pkg")
    expected = 0.0
    last = 0.0
    for power, dt in samples:
        d.accumulate(power, dt)
        expected += power * dt
        assert d.energy_j >= last
        last = d.energy_j
    assert d.energy_j == pytest.approx(expected, rel=1e-9)
    assert 0 <= d.read_raw() < 2**32


# --------------------------------------------------------------- HPL model

@given(
    n=st.integers(min_value=256, max_value=20000),
    nb=st.sampled_from([64, 128, 192, 256]),
)
def test_hpl_steps_conserve_flops(n, nb):
    cfg = HplConfig(n=n, nb=nb)
    steps = hpl_steps(cfg)
    assert sum(s.total_flops for s in steps) == pytest.approx(
        hpl_flops(n), rel=1e-9
    )
    assert all(s.update_flops >= 0 and s.panel_flops >= 0 for s in steps)


@SLOW
@given(
    n=st.integers(min_value=512, max_value=4096),
    threads=st.integers(min_value=1, max_value=8),
    variant=st.sampled_from(["openblas", "intel"]),
)
def test_coordinator_conserves_update_work(n, threads, variant):
    """Run to completion, the HPL threads drain every step's dynamic
    pool through the engine's fused chunk loop, and together they do
    exactly the run's flops: no chunk is lost or claimed twice."""
    from repro.system import System

    system = System("raptor-lake-i7-13700", dt_s=0.01)
    # 8 P-cores, then 8 E-cores: alternate them, so both core types
    # claim from the same pools.
    primary = default_cpu_selection(system)
    cpus = [cpu for pair in zip(primary[:8], primary[8:]) for cpu in pair]
    cpus = cpus[:threads]
    handle = start_hpl(system, HplConfig(n=n, nb=128), variant, cpus=cpus)
    assert system.machine.run_until_done(handle.threads, max_s=600, strict=True)
    [coord] = {t.source.coord for t in handle.threads}
    assert all(pool <= 0.0 for pool in coord._pool)
    assert sum(t.source.flops_done for t in handle.threads) == pytest.approx(
        hpl_flops(n), rel=1e-9
    )


# --------------------------------------------------------------- engine

@settings(max_examples=500)
@given(
    ticks=st.integers(min_value=0, max_value=10**9),
    dt=st.sampled_from([1e-4, 0.01, 0.02, 1 / 3]),
    k=st.integers(min_value=-3, max_value=10**7),
    frac=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
    ulps=st.integers(min_value=-2, max_value=2),
)
# On-grid times whose float estimate lands just above the crossing tick.
@example(ticks=1, dt=1 / 3, k=2, frac=0.0, ulps=0)
@example(ticks=0, dt=0.01, k=901855, frac=0.0, ulps=0)
def test_grid_crossing_is_the_first_tick_at_or_past_t(ticks, dt, k, frac, ulps):
    """The tick-grid solver returns the smallest ``j`` whose ``now_s``
    reaches ``t``, by the float expression a per-tick check evaluates —
    also for ``t`` on the grid or an ulp or two either side of it."""
    from repro.sim.events import grid_crossing

    t = (ticks + k + frac) * dt
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.copysign(math.inf, ulps))
    j = grid_crossing(ticks, dt, t)
    assert j >= 0
    assert (ticks + j) * dt >= t
    assert j == 0 or (ticks + j - 1) * dt < t


def test_grid_crossing_never_reached():
    from repro.sim.events import grid_crossing

    assert grid_crossing(7, 0.01, math.inf) == math.inf
    assert grid_crossing(7, 0.01, math.nan) == math.inf
    assert grid_crossing(7, 0.01, 1e300) == math.inf
    assert grid_crossing(7, 0.01, -math.inf) == 0


@SLOW
@given(
    instructions=st.floats(min_value=1e4, max_value=5e7),
    ipc=st.floats(min_value=0.25, max_value=6.0),
    seed=st.integers(min_value=0, max_value=100),
)
def test_engine_conserves_instructions(instructions, ipc, seed):
    """No matter the scheduling, exactly the requested work retires."""
    from repro.hw.coretype import ArchEvent
    from repro.sim.task import Program, SimThread
    from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
    from repro.system import System

    system = System(
        "raptor-lake-i7-13700",
        dt_s=2e-4,
        seed=seed,
        migrate_jitter=0.05,
        rebalance_jitter=0.05,
    )
    rates = constant_rates(PhaseRates(ipc=ipc))
    t = system.machine.spawn(SimThread("w", Program([ComputePhase(instructions, rates)])))
    assert system.machine.run_until_done([t], max_s=60)
    assert t.counters_total()[ArchEvent.INSTRUCTIONS] == pytest.approx(
        instructions, rel=1e-9
    )


@SLOW
@given(seed=st.integers(min_value=0, max_value=50))
def test_perf_counts_partition_across_pmus(seed):
    """time_enabled >= time_running and per-PMU counts sum to the total."""
    from repro.kernel.perf import PerfEventAttr
    from repro.kernel.perf.subsystem import PerfIoctl
    from repro.sim.task import Program, SimThread
    from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
    from repro.system import System

    system = System(
        "raptor-lake-i7-13700", dt_s=2e-4, seed=seed,
        migrate_jitter=0.1, rebalance_jitter=0.1,
    )
    rates = constant_rates(PhaseRates(ipc=2.0))
    t = system.machine.spawn(SimThread("w", Program([ComputePhase(1e7, rates)])))
    fds = []
    for pmu in ("cpu_core", "cpu_atom"):
        ptype = system.perf.registry.by_name[pmu].type
        fd = system.perf.perf_event_open(
            PerfEventAttr(type=ptype, config=0x00C0), pid=t.tid, cpu=-1
        )
        system.perf.ioctl(fd, PerfIoctl.ENABLE)
        fds.append(fd)
    system.machine.run_until_done([t], max_s=60)
    readings = [system.perf.read(fd) for fd in fds]
    total = sum(r.value for r in readings)
    assert total == pytest.approx(1e7, rel=1e-6)
    for r in readings:
        assert r.time_enabled_ns >= r.time_running_ns >= 0
