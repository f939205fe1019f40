"""Invariants every machine preset must satisfy.

Guards against calibration edits breaking the physical consistency the
experiments rely on.
"""

import pytest

from repro.hw.machines import MACHINE_PRESETS
from repro.hw.power import PowerModel
from repro.hw.thermal import ThermalModel
from repro.system import System


@pytest.fixture(params=sorted(MACHINE_PRESETS), ids=sorted(MACHINE_PRESETS))
def spec(request):
    return MACHINE_PRESETS[request.param]()


class TestPresetInvariants:
    def test_topology_nonempty_and_consistent(self, spec):
        assert spec.topology.n_cpus >= 1
        for core in spec.topology.cores:
            assert spec.topology.core(core.cpu_id) is core
        # Clusters partition the CPUs.
        seen = []
        for cl in spec.topology.clusters:
            seen.extend(cl.cpu_ids)
        assert sorted(seen) == [c.cpu_id for c in spec.topology.cores]

    def test_power_curve_sane(self, spec):
        for ct in spec.topology.core_types:
            idle = ct.power.core_power(ct.min_freq_ghz, 0.0)
            busy_min = ct.power.core_power(ct.min_freq_ghz, 1.0)
            busy_max = ct.power.core_power(ct.max_freq_ghz, 1.0)
            assert 0 < idle < busy_min < busy_max
            assert busy_max < 50.0  # no preposterous cores

    def test_max_power_vs_rapl_limits(self, spec):
        model = PowerModel(spec)
        max_w = model.max_package_w()
        if spec.has_rapl:
            # The hardware can exceed PL1 (else capping is meaningless)
            # but stays within ~1.2x of PL2 (silicon is sized to its cap).
            assert max_w > spec.rapl_pl1_w
            assert max_w < spec.rapl_pl2_w * 1.2

    def test_thermal_budget_above_idle(self, spec):
        tm = ThermalModel(spec)
        idle = [0.0] * spec.topology.n_cpus
        idle_w = PowerModel(spec).sample_activity(
            idle,
            idle,
            [cl.ctype.min_freq_mhz for cl in spec.topology.clusters],
        ).package_w
        assert tm.sustainable_power_w > idle_w

    def test_capacity_normalization(self, spec):
        caps = [spec.topology.capacity_of(c.cpu_id) for c in spec.topology.cores]
        assert max(caps) == 1024
        assert min(caps) > 0

    def test_llc_declared(self, spec):
        assert float(spec.extra.get("llc_mib", 0)) > 0

    def test_pmu_names_unique_per_core_type(self, spec):
        names = [ct.pmu_name for ct in spec.topology.core_types]
        assert len(names) == len(set(names))

    def test_pfm_tables_exist(self, spec):
        from repro.pfmlib.tables import ALL_TABLES

        for ct in spec.topology.core_types:
            assert ct.pfm_pmu in ALL_TABLES, ct.pfm_pmu

    def test_eventcodes_exist(self, spec):
        from repro.hw.eventcodes import CODES_BY_PFM_PMU

        for ct in spec.topology.core_types:
            assert ct.pfm_pmu in CODES_BY_PFM_PMU, ct.pfm_pmu

    def test_system_boots_and_idles(self, spec):
        system = System(spec, dt_s=0.01)
        system.machine.run_ticks(50)
        # An idle machine stays cool and draws little power.
        assert system.machine.thermal.temp_c < spec.thermal_trip_c
        assert system.machine.last_power.package_w < 25.0

    def test_detection_matches_truth(self, spec):
        from repro.papi import detect_core_types

        system = System(spec, dt_s=0.01)
        report = detect_core_types(system)
        assert len(report.consensus) == len(spec.topology.core_types)
