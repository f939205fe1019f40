"""Golden values for the hardware recurrences.

Both engines share the power, RAPL, thermal and DVFS models, so the
engine-parity suite cannot see a float operation in them change value,
order or type.  These scenarios pin the exact results instead, as
``float.hex()`` strings: a reordered addition, a ``min`` that returns
the other operand, or an int where a float was shows up as a diff.
"""

from __future__ import annotations

from repro.sim.task import Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System

RATES = constant_rates(PhaseRates(ipc=2.0, flops_per_instr=0.5))


def _busy_machine(preset: str, cpus_of):
    """A machine with one endless pinned compute thread per chosen CPU."""
    system = System(preset, dt_s=0.02)
    for cpu in cpus_of(system.topology):
        system.machine.spawn(
            SimThread(
                f"busy{cpu}", Program([ComputePhase(1e13, RATES)]), affinity={cpu}
            )
        )
    return system.machine


def _observe(machine) -> dict:
    freqs = machine.governor.freq_mhz
    assert all(type(f) is float for f in freqs)
    return {
        "package_j": machine.rapl.package.energy_j.hex(),
        "cores_j": machine.rapl.cores.energy_j.hex(),
        "temp_c": machine.thermal.temp_c.hex(),
        "rapl_scale": machine.rapl.scale.hex(),
        "thermal_scale": [s.hex() for s in machine.thermal._scale],
        "freq_mhz": [f.hex() for f in freqs],
    }


def _raptor_cpus(topo) -> list[int]:
    """Four busy SMT pairs, two P-cores with one busy sibling, one idle
    P-core, and every E-core: both branches of the SMT power path."""
    p = topo.cpus_of_type("P-core")
    return p[:9] + p[10:11] + topo.cpus_of_type("E-core")


def test_raptor_lake_pl2_burst_settles_into_pl1():
    machine = _busy_machine("raptor-lake-i7-13700", _raptor_cpus)
    machine.run_ticks(100)
    # Still bursting: the PL1 average has not filled, no capping yet.
    assert machine.rapl.scale == 1.0
    assert _observe(machine) == {
        "package_j": "0x1.463cf0dc409c5p+8",
        "cores_j": "0x1.2b3cf0dc409c0p+8",
        "temp_c": "0x1.e475b7c42a0cep+4",
        "rapl_scale": "0x1.0000000000000p+0",
        "thermal_scale": ["0x1.0000000000000p+0", "0x1.0000000000000p+0"],
        "freq_mhz": ["0x1.3ec0000000000p+12", "0x1.0040000000000p+12"],
    }
    machine.run_ticks(900)
    # Settled on PL1 (65 W) with the package ceiling scaled down.
    assert abs(machine.last_power.package_w - 65.0) < 0.01
    assert _observe(machine) == {
        "package_j": "0x1.4de47fb8de5b5p+11",
        "cores_j": "0x1.2c247fb8de5b9p+11",
        "temp_c": "0x1.c5e3f60101b0cp+5",
        "rapl_scale": "0x1.29d4818aaafd6p-1",
        "thermal_scale": ["0x1.0000000000000p+0", "0x1.0000000000000p+0"],
        "freq_mhz": ["0x1.72d5584b68670p+11", "0x1.2a1ef6ab0da82p+11"],
    }


def test_orangepi_big_cluster_throttles_through_bisection():
    machine = _busy_machine("orangepi-800", lambda topo: list(range(topo.n_cpus)))
    machine.run_ticks(300)
    big = machine.topology.clusters[1].ctype
    # The big cluster's ceiling is strictly inside its range: the
    # allocator's grant went through freq_for_power's bisection.
    assert big.min_freq_mhz < machine.governor.freq_mhz[1] < big.max_freq_mhz
    assert _observe(machine) == {
        "package_j": "0x1.53ce62d9d5f52p+5",
        "cores_j": "0x1.2d67fc736f8d9p+5",
        "temp_c": "0x1.4eb51c83ea9bap+6",
        "rapl_scale": "0x1.0000000000000p+0",
        "thermal_scale": ["0x1.0000000000000p+0", "0x1.ef896740da741p-3"],
        "freq_mhz": ["0x1.5e00000000000p+10", "0x1.b387c3c000000p+8"],
    }
