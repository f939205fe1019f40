"""Unit tests for DVFS, power, thermal, RAPL and cache models."""

import pytest

from repro.hw.cache import LlcModel, memory_stall_cycles
from repro.hw.dvfs import DvfsGovernor
from repro.hw.machines import orangepi_800, raptor_lake_i7_13700, _raptor_cove
from repro.hw.power import PowerModel
from repro.hw.rapl import ENERGY_UNIT_J, RaplDomain, RaplPackage
from repro.hw.thermal import ThermalModel


# ---------------------------------------------------------------- DVFS

class TestDvfs:
    def test_starts_at_min(self):
        gov = DvfsGovernor(raptor_lake_i7_13700().topology)
        for i, cl in enumerate(gov.topology.clusters):
            assert gov.freq_mhz[i] == cl.ctype.min_freq_mhz

    def test_full_util_reaches_max(self):
        spec = raptor_lake_i7_13700()
        gov = DvfsGovernor(spec.topology)
        gov.update([1.0, 1.0])
        assert gov.freq_mhz[0] == spec.topology.clusters[0].ctype.max_freq_mhz
        assert gov.freq_mhz[1] == spec.topology.clusters[1].ctype.max_freq_mhz

    def test_partial_util_scales(self):
        spec = raptor_lake_i7_13700()
        gov = DvfsGovernor(spec.topology)
        gov.update([0.4, 0.0])
        ct = spec.topology.clusters[0].ctype
        assert ct.min_freq_mhz <= gov.freq_mhz[0] < ct.max_freq_mhz
        assert gov.freq_mhz[1] == spec.topology.clusters[1].ctype.min_freq_mhz

    def test_ceilings_clamp(self):
        spec = raptor_lake_i7_13700()
        gov = DvfsGovernor(spec.topology)
        gov.set_ceiling(0, "rapl", 3000)
        gov.update([1.0, 1.0])
        assert gov.freq_mhz[0] == 3000

    def test_min_of_multiple_ceilings(self):
        spec = raptor_lake_i7_13700()
        gov = DvfsGovernor(spec.topology)
        gov.set_ceiling(0, "rapl", 3000)
        gov.set_ceiling(0, "thermal", 2500)
        assert gov.ceiling_mhz(0) == 2500

    def test_ceiling_clamped_to_core_range(self):
        spec = raptor_lake_i7_13700()
        gov = DvfsGovernor(spec.topology)
        ct = spec.topology.clusters[0].ctype
        gov.set_ceiling(0, "rapl", 100)  # below min
        assert gov.ceiling_mhz(0) == ct.min_freq_mhz

    def test_freq_of_cpu(self):
        spec = raptor_lake_i7_13700()
        gov = DvfsGovernor(spec.topology)
        gov.update([1.0, 0.0])
        e_cpu = spec.topology.cpus_of_type("E-core")[0]
        assert gov.freq_of_cpu_mhz(0) == 5100
        assert gov.freq_of_cpu_ghz(e_cpu) == pytest.approx(0.8)

    def test_wrong_util_length_rejected(self):
        gov = DvfsGovernor(raptor_lake_i7_13700().topology)
        with pytest.raises(ValueError):
            gov.update([1.0])


# ---------------------------------------------------------------- power

class TestPower:
    def test_idle_power_is_base(self):
        spec = raptor_lake_i7_13700()
        model = PowerModel(spec)
        idle = [0.0] * spec.topology.n_cpus
        freqs = [cl.ctype.min_freq_mhz for cl in spec.topology.clusters]
        s = model.sample_activity(idle, idle, freqs)
        # Idle: leakage + uncore only; far below the PL1 limit.
        assert s.package_w < 15.0
        assert s.dram_w == 0.0

    def test_max_power_in_pl2_ballpark(self):
        """Full blast should approach (not wildly exceed) the 219 W PL2."""
        model = PowerModel(raptor_lake_i7_13700())
        assert 150.0 < model.max_package_w() < 260.0

    def test_spin_draws_less_than_busy(self):
        spec = raptor_lake_i7_13700()
        model = PowerModel(spec)
        freqs = [cl.ctype.max_freq_mhz for cl in spec.topology.clusters]
        full = [1.0] * spec.topology.n_cpus
        idle = [0.0] * spec.topology.n_cpus
        spinning = model.sample_activity(idle, full, freqs).package_w
        assert spinning < model.sample_activity(full, idle, freqs).package_w

    def test_float_sums_add_left_to_right(self):
        """Power and perf-stat totals add in order on every CPython: a
        compensated sum (3.12's ``sum()``) would keep the 1.0 that
        sequential float adds round away."""
        from repro.hw.power import PowerSample
        from repro.monitor.perf_stat import PerfStatCount, PerfStatResult

        parts = [1e16, 1.0, -1e16]
        sample = PowerSample(
            package_w=0.0, per_cluster_w=parts, uncore_w=0.0, dram_w=0.0
        )
        assert sample.cores_w == 0.0
        stat = PerfStatResult(
            [PerfStatCount("e", "cpu", x, x, 1.0, 1.0) for x in parts]
        )
        assert stat.total("e") == 0.0


# ---------------------------------------------------------------- thermal

class TestThermal:
    def test_heats_toward_steady_state(self):
        spec = orangepi_800()
        tm = ThermalModel(spec)
        for _ in range(10000):
            tm.step(3.0, 0.01)
        expected = spec.ambient_c + 3.0 * spec.thermal_r_c_per_w
        assert tm.temp_c == pytest.approx(expected, rel=0.02)

    def test_cools_to_ambient(self):
        spec = orangepi_800()
        tm = ThermalModel(spec)
        tm.temp_c = 80.0
        for _ in range(20000):
            tm.step(0.0, 0.01)
        assert tm.temp_c == pytest.approx(spec.ambient_c, abs=0.5)

    def test_never_below_ambient(self):
        spec = orangepi_800()
        tm = ThermalModel(spec)
        tm.step(0.0, 100.0)
        assert tm.temp_c >= spec.ambient_c

    def test_is_settled(self):
        spec = raptor_lake_i7_13700()
        tm = ThermalModel(spec)
        tm.temp_c = 40.0
        assert not tm.is_settled(35.0)
        tm.temp_c = 34.0
        assert tm.is_settled(35.0)

    def test_sustainable_power(self):
        spec = orangepi_800()
        tm = ThermalModel(spec)
        expected = (spec.thermal_trip_c - spec.ambient_c) / spec.thermal_r_c_per_w
        assert tm.sustainable_power_w == pytest.approx(expected)

    def test_zone_millidegrees(self):
        tm = ThermalModel(raptor_lake_i7_13700())
        tm.step(50.0, 1.0)
        assert tm.zone.temp_millic == round(tm.temp_c * 1000)


# ---------------------------------------------------------------- RAPL

class TestRapl:
    def test_energy_accumulates(self):
        d = RaplDomain("package-0")
        d.accumulate(10.0, 1.0)
        d.accumulate(5.0, 2.0)
        assert d.energy_j == pytest.approx(20.0)
        assert d.read_uj() == pytest.approx(20e6, rel=1e-6)

    def test_raw_counter_units_and_wrap(self):
        d = RaplDomain("package-0")
        d.accumulate(1.0, 1.0)
        assert d.read_raw() == pytest.approx(1.0 / ENERGY_UNIT_J, rel=1e-6)
        # Push past the 32-bit wrap (2^32 * 2^-16 J = 65536 J).
        d.accumulate(70000.0, 1.0)
        assert 0 <= d.read_raw() < 2**32
        assert d.energy_j == pytest.approx(70001.0)

    def test_no_capping_without_rapl(self):
        spec = orangepi_800()
        rapl = RaplPackage(spec)
        assert not rapl.enabled
        gov = DvfsGovernor(spec.topology)
        rapl.step(gov, 100.0, 90.0, 5.0, 0.01)  # absurd power: no effect
        assert gov.ceiling_mhz(0) == spec.topology.clusters[0].ctype.max_freq_mhz
        # Energy still accounted.
        assert rapl.package.energy_j > 0

    def test_capping_engages_over_pl1(self):
        spec = raptor_lake_i7_13700()
        rapl = RaplPackage(spec)
        gov = DvfsGovernor(spec.topology)
        for _ in range(30000):
            rapl.step(gov, 200.0, 180.0, 10.0, 0.01)
        assert rapl.scale < 0.9
        assert gov.ceiling_mhz(0) < spec.topology.clusters[0].ctype.max_freq_mhz
        assert rapl.throttle_events > 0

    def test_burst_allowed_while_window_fills(self):
        """The Figure 2 spike: no clamping in the first instants."""
        spec = raptor_lake_i7_13700()
        rapl = RaplPackage(spec)
        gov = DvfsGovernor(spec.topology)
        for _ in range(20):  # 0.2 s at 200 W
            rapl.step(gov, 200.0, 180.0, 10.0, 0.01)
        assert rapl.scale == pytest.approx(1.0, abs=0.05)

    def test_scale_recovers_when_idle(self):
        spec = raptor_lake_i7_13700()
        rapl = RaplPackage(spec)
        gov = DvfsGovernor(spec.topology)
        for _ in range(30000):
            rapl.step(gov, 200.0, 180.0, 10.0, 0.01)
        squeezed = rapl.scale
        for _ in range(30000):
            rapl.step(gov, 5.0, 2.0, 1.0, 0.01)
        assert rapl.scale > squeezed
        assert rapl.scale == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------- cache

class TestCache:
    def test_fits_in_cache_low_missrate(self):
        llc = LlcModel(size_mib=30.0)
        assert llc.miss_rate(4.0, reuse_factor=0.5, n_sharers=1) < 0.01

    def test_oversized_working_set_misses(self):
        llc = LlcModel(size_mib=30.0)
        streaming = llc.miss_rate(300.0, reuse_factor=0.0, n_sharers=1)
        blocked = llc.miss_rate(300.0, reuse_factor=0.9, n_sharers=1)
        assert streaming > 0.8
        assert blocked < streaming

    def test_sharing_shrinks_effective_capacity(self):
        llc = LlcModel(size_mib=30.0)
        alone = llc.miss_rate(20.0, 0.2, n_sharers=1)
        crowded = llc.miss_rate(20.0, 0.2, n_sharers=16)
        assert crowded > alone

    def test_missrate_bounds(self):
        llc = LlcModel(size_mib=1.0)
        for ws in (0.1, 10.0, 1e4):
            for reuse in (0.0, 0.5, 1.0):
                m = llc.miss_rate(ws, reuse, 8)
                assert 0.0 < m <= 1.0

    def test_memory_stall_cycles(self):
        ct = _raptor_cove()
        none = memory_stall_cycles(ct, llc_refs=0.0, llc_miss_rate=0.9)
        some = memory_stall_cycles(ct, llc_refs=1e6, llc_miss_rate=0.5)
        assert none == 0.0
        assert some > 0.0
        # Full MLP overlap hides everything.
        assert memory_stall_cycles(ct, 1e6, 0.5, mlp_overlap=1.0) == 0.0
