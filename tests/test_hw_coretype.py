"""Unit tests for core-type descriptors and the power curve."""

import pytest

from repro.hw.coretype import ArchEvent, CoreType, PowerCoefficients
from repro.hw.machines import _gracemont, _raptor_cove, _cortex_a53, _cortex_a72


def test_frequency_range_validated():
    with pytest.raises(ValueError, match="frequency range"):
        CoreType(
            name="bad",
            microarch="x",
            vendor="intel",
            pmu_name="cpu",
            pfm_pmu="skx",
            smt=1,
            capacity=1024,
            min_freq_mhz=3000,
            base_freq_mhz=2000,
            max_freq_mhz=4000,
            ipc=3.0,
            flops_per_cycle=8.0,
            branch_misp_rate=0.01,
            llc_miss_penalty_cycles=200.0,
            l1d_kib=32,
            l2_kib=512,
            power=PowerCoefficients(1.0, 0.6, 0.1, 0.1),
        )


def test_capacity_validated():
    with pytest.raises(ValueError, match="capacity"):
        CoreType(
            name="bad",
            microarch="x",
            vendor="intel",
            pmu_name="cpu",
            pfm_pmu="skx",
            smt=1,
            capacity=2048,
            min_freq_mhz=1000,
            base_freq_mhz=2000,
            max_freq_mhz=4000,
            ipc=3.0,
            flops_per_cycle=8.0,
            branch_misp_rate=0.01,
            llc_miss_penalty_cycles=200.0,
            l1d_kib=32,
            l2_kib=512,
            power=PowerCoefficients(1.0, 0.6, 0.1, 0.1),
        )


def test_pcore_supports_topdown_ecore_does_not():
    """The paper's example: top-down events exist only on P-cores."""
    p, e = _raptor_cove(), _gracemont()
    assert p.supports_event(ArchEvent.TOPDOWN_SLOTS)
    assert not e.supports_event(ArchEvent.TOPDOWN_SLOTS)
    # Common events exist on both.
    for ev in (ArchEvent.INSTRUCTIONS, ArchEvent.CYCLES, ArchEvent.LLC_MISSES):
        assert p.supports_event(ev)
        assert e.supports_event(ev)


def test_counter_width():
    """General-purpose counters per PMU: 8 on Raptor Cove, 6 on Gracemont."""
    assert _raptor_cove().n_gp_counters == 8
    assert _gracemont().n_gp_counters == 6


def test_intel_hybrid_shares_family_model_stepping():
    """P and E cores cannot be told apart by family/model/stepping."""
    p, e = _raptor_cove(), _gracemont()
    assert (p.x86_family, p.x86_model, p.x86_stepping) == (
        e.x86_family,
        e.x86_model,
        e.x86_stepping,
    )


def test_arm_parts_differ():
    big, little = _cortex_a72(), _cortex_a53()
    assert big.midr_part != little.midr_part


def test_power_monotonic_in_frequency():
    p = _raptor_cove().power
    freqs = [0.8, 1.5, 2.5, 3.5, 4.5, 5.1]
    powers = [p.core_power(f, 1.0) for f in freqs]
    assert powers == sorted(powers)
    assert powers[0] > 0


def test_idle_power_is_leakage_only():
    p = _raptor_cove().power
    assert p.core_power(3.0, 0.0) == pytest.approx(p.leak_w)


def test_freq_for_power_inverts_curve():
    ct = _raptor_cove()
    for f_target in (1.0, 2.5, 4.0):
        w = ct.power.core_power(f_target, 1.0)
        f = ct.power.freq_for_power(w, 1.0, ct.min_freq_ghz, ct.max_freq_ghz)
        assert f == pytest.approx(f_target, rel=1e-3)


def test_freq_for_power_clamps():
    ct = _raptor_cove()
    assert ct.power.freq_for_power(1e6, 1.0, ct.min_freq_ghz, ct.max_freq_ghz) == ct.max_freq_ghz
    assert ct.power.freq_for_power(0.0, 1.0, ct.min_freq_ghz, ct.max_freq_ghz) == ct.min_freq_ghz
    # Idle cores are unconstrained.
    assert ct.power.freq_for_power(0.0, 0.0, ct.min_freq_ghz, ct.max_freq_ghz) == ct.max_freq_ghz


def test_peak_gflops():
    p = _raptor_cove()
    assert p.peak_gflops(5.0) == pytest.approx(80.0)
