"""Integration tests: every experiment reproduces its paper shape.

The paper-artifact classes assert on one quick reproduction
(``quick_results``: the runs ``repro-reproduce --quick`` makes, simulated
once per session) and check both the qualitative claims recorded in
DESIGN.md and bands around the paper's numbers.  The §IV-F controls and
the model ablations, which the report does not run, simulate their own.
"""

import pytest

from repro.experiments import (
    fig1_frequencies,
    fig2_power,
    fig3_arm_throttle,
    fig4_arm_scaling,
    hybrid_eventset,
    overhead,
    table1_hw,
    table2_hpl,
    table3_counters,
)
from repro.experiments.common import raptor_core_sets, raptor_system
from repro.hpl import HplConfig, run_hpl
from repro.hpl.variants import OPENBLAS_PROFILE, VARIANTS, HplVariant
from repro.hw.machines import raptor_lake_i7_13700
from repro.monitor import Sampler
from repro.papi import Papi
from repro.sim.task import Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System


class TestTable1:
    def test_render_contains_table1_facts(self, quick_results):
        text = table1_hw.render(quick_results.table1)
        assert "13th Gen Intel(R) Core(TM) i7-13700" in text
        assert "8 (16 threads)" in text
        assert "32GB DDR5" in text

    def test_orangepi_table4(self, quick_results):
        result = quick_results.table4
        text = table1_hw.render(result)
        assert "RK3399" in text
        assert "4GB LPDDR4" in text
        assert result.info.memory_gib == 4


class TestTable2:
    def test_shape(self, quick_results):
        result = quick_results.table2
        holds = table2_hpl.shape_holds(result)
        assert all(holds.values()), holds
        # Every cell within 15% of the paper's absolute number.
        for core_set in table2_hpl.CORE_SET_ORDER:
            paper_ob, paper_intel = table2_hpl.PAPER_GFLOPS[core_set]
            assert result.gflops(core_set, "openblas") == pytest.approx(
                paper_ob, rel=0.15
            ), core_set
            assert result.gflops(core_set, "intel") == pytest.approx(
                paper_intel, rel=0.15
            ), core_set

    def test_all_core_change_dominates(self, quick_results):
        # The paper's 57.4% all-core gap, within a generous band.
        assert 35.0 < quick_results.table2.change_pct("P and E") < 80.0

    def test_render(self, quick_results):
        text = table2_hpl.render(quick_results.table2)
        assert "Enabled cores" in text and "P and E" in text


class TestTable3:
    def test_shape(self, quick_results):
        result = quick_results.table3
        holds = table3_counters.shape_holds(result)
        assert all(holds.values()), holds
        # Quantitative vicinity of the paper's cells.
        assert result.miss_rate["openblas"]["P"] == pytest.approx(0.86, abs=0.05)
        assert result.miss_rate["intel"]["P"] == pytest.approx(0.64, abs=0.05)
        assert result.miss_rate["openblas"]["E"] < 0.01
        assert result.miss_rate["intel"]["E"] < 0.01
        assert result.instr_share["openblas"]["P"] == pytest.approx(0.80, abs=0.10)
        assert result.instr_share["intel"]["P"] == pytest.approx(0.68, abs=0.10)
        assert "LLC missrate" in table3_counters.render(result)


class TestFig1:
    def test_shape(self, quick_results):
        result = quick_results.fig1
        holds = fig1_frequencies.shape_holds(result)
        assert all(holds.values()), holds
        # Medians in the paper's neighbourhood (GHz).
        assert result.medians_ghz["openblas"]["P-core"] == pytest.approx(2.94, abs=0.5)
        assert result.medians_ghz["intel"]["P-core"] == pytest.approx(2.61, abs=0.45)
        assert result.medians_ghz["intel"]["E-core"] == pytest.approx(2.32, abs=0.45)
        # Both traces sampled at 1 Hz for the bulk of the run.
        for trace in result.traces.values():
            assert len(trace.times_s) > 20
        assert "median P GHz" in fig1_frequencies.render(result)


class TestFig2:
    def test_shape(self, quick_results):
        result = quick_results.fig2
        holds = fig2_power.shape_holds(result)
        assert all(holds.values()), holds
        assert result.pl1_w == 65.0 and result.pl2_w == 219.0
        # OpenBLAS peaks well below PL2 (paper: 165.7 W), Intel much higher.
        assert result.peak_w["openblas"] == pytest.approx(165.7, rel=0.25)
        assert result.peak_w["intel"] > 180.0
        # Both settle at the PL1 long-term limit.
        for variant in ("openblas", "intel"):
            assert result.steady_w[variant] == pytest.approx(65.0, rel=0.12)
        # Adequate cooling: nowhere near the 100 C Tjmax.
        assert max(result.max_temp_c.values()) < 90.0
        assert "peak W" in fig2_power.render(result)


class TestFig3:
    def test_shape(self, quick_results):
        result = quick_results.fig3
        holds = fig3_arm_throttle.shape_holds(result)
        assert all(holds.values()), holds
        # In the all-core run most computation lands on the LITTLE cluster.
        assert result.little_sustained_mhz["all x6"] > 1000
        assert result.big_sustained_mhz["all x6"] < 700
        assert "big sustained MHz" in fig3_arm_throttle.render(result)


class TestFig4:
    def test_shape(self, quick_results):
        result = quick_results.fig4
        holds = fig4_arm_scaling.shape_holds(result)
        assert all(holds.values()), holds
        assert result.gflops["all 6"] >= result.gflops["4 little"]
        assert "Gflop/s" in fig4_arm_scaling.render(result)


class TestHybridEventset:
    def test_raptor_paper_scenarios(self, quick_results):
        by_key = {(r.mode, r.pinned): r for r in quick_results.hybrid}
        free = by_key[("hybrid", None)]
        # The paper's exemplar: p ~836848, e ~167487, sum ~1M.
        assert free.average(0) > free.average(1) > 0
        assert 1e6 <= free.avg_total <= 1.05e6
        assert by_key[("hybrid", "P-core")].average(1) == 0
        assert by_key[("hybrid", "E-core")].average(0) == 0
        # Legacy: partial counts only.
        assert by_key[("legacy", "E-core")].avg_total == 0
        assert 0 < by_key[("legacy", None)].avg_total < 1e6

    def test_orangepi_paper_scenarios(self):
        results = hybrid_eventset.run_paper_scenarios("orangepi-800")
        by_key = {(r.mode, r.pinned): r for r in results}
        assert 1e6 <= by_key[("hybrid", None)].avg_total <= 1.05e6
        assert by_key[("hybrid", "big")].average(1) == 0
        assert by_key[("hybrid", "LITTLE")].average(0) == 0

    def test_unpinned_splits_and_sums(self):
        r = hybrid_eventset.run_hybrid_test(mode="hybrid", reps=60)
        p, e = r.average(0), r.average(1)
        assert p > 0 and e > 0
        # Sum is ~1M plus small PAPI overhead per repetition.
        assert 1e6 <= r.avg_total <= 1.05e6
        # The thread lives mostly on the P-cores.
        assert p > e

    def test_pinned_p_counts_everything(self):
        r = hybrid_eventset.run_hybrid_test(mode="hybrid", pin="P-core", reps=20)
        assert r.average(0) == pytest.approx(r.avg_total)
        assert r.average(1) == 0

    def test_pinned_e_counts_on_e_only(self):
        r = hybrid_eventset.run_hybrid_test(mode="hybrid", pin="E-core", reps=20)
        assert r.average(0) == 0
        assert r.average(1) == pytest.approx(r.avg_total)

    def test_legacy_pinned_foreign_gives_zero(self):
        """'you might get 0, 1 million, or something in between'."""
        r = hybrid_eventset.run_hybrid_test(mode="legacy", pin="E-core", reps=20)
        assert r.avg_total == 0

    def test_legacy_unpinned_in_between(self):
        r = hybrid_eventset.run_hybrid_test(mode="legacy", reps=60)
        assert 0 < r.avg_total < 1e6

    def test_homogeneous_machine_expected_result(self):
        """'On a traditional machine you get the expected result.'"""
        for reps in (20, 100):
            r = hybrid_eventset.run_hybrid_test(
                mode="legacy", machine="xeon-homogeneous", reps=reps
            )
            assert 1e6 <= r.avg_total <= 1.05e6, reps

    def test_arm_biglittle_also_works(self):
        r = hybrid_eventset.run_hybrid_test(
            mode="hybrid", machine="orangepi-800", reps=20, pin="big"
        )
        assert r.average(0) == pytest.approx(r.avg_total)

    def test_render(self):
        rs = [hybrid_eventset.run_hybrid_test(mode="hybrid", pin="P-core", reps=5)]
        assert "Average instructions" in hybrid_eventset.render(rs)


class TestOverhead:
    @pytest.fixture(scope="class")
    def result(self, quick_results):
        return quick_results.overhead

    def test_shape(self, result):
        holds = overhead.shape_holds(result)
        assert all(holds.values()), holds

    def test_syscalls_scale_with_groups(self, result):
        for label, ops in result.costs.items():
            groups = result.groups[label]
            assert ops["read"].syscalls == groups
            assert ops["start"].syscalls == 2 * groups  # reset + enable
        one = result.costs["1 PMU, 2 events"]
        four = result.costs["2 PMUs + uncore + RAPL"]
        assert four["read"].syscalls == 4 * one["read"].syscalls

    def test_render(self, result):
        text = overhead.render(result)
        assert "rdpmc" in text and "groups" in text


def _spike_end_s(trace) -> float | None:
    """When package power first falls back below 100 W after exceeding it."""
    seen_high = False
    for t, p in zip(trace.times_s, trace.package_w):
        if p > 100.0:
            seen_high = True
        elif seen_high and p < 100.0:
            return t
    return None


class TestAblations:
    """Sensitivity of the model's calibrated knobs (DESIGN.md's A5)."""

    def test_dynamic_fraction(self, monkeypatch):
        """All-core Gflop/s vs the dynamically scheduled share of each
        update: at 0 the openblas profile is barrier-limited by the E-core
        stragglers, at 1.0 it schedules like the Intel build."""
        gflops = []
        for frac in (0.0, 0.16, 0.5, 1.0):
            monkeypatch.setitem(VARIANTS, "_ablation", HplVariant(
                name="_ablation",
                display="ablation",
                profile=OPENBLAS_PROFILE,
                dynamic_fraction=frac,
            ))
            system = raptor_system(dt_s=0.02)
            cpus = raptor_core_sets(system)["P and E"]
            r = run_hpl(system, HplConfig(n=23040, nb=192), variant="_ablation", cpus=cpus)
            gflops.append(r.gflops)
        assert gflops == sorted(gflops), "more dynamic scheduling must not hurt"
        assert gflops[-1] / gflops[0] > 1.3  # stragglers genuinely dominate at 0

    def test_rapl_pl1_window(self):
        """Figure 2's spike lasts roughly one PL1 averaging window."""
        spike_ends = []
        # Windows short enough that the spike ends within the run.
        for window_s in (3.5, 7.0, 14.0):
            spec = raptor_lake_i7_13700()
            spec.rapl_pl1_window_s = window_s
            system = System(spec, dt_s=0.02)
            sampler = Sampler(system, period_s=0.5)
            sampler.start()
            cpus = raptor_core_sets(system)["P and E"]
            run_hpl(system, HplConfig(n=23040, nb=192), variant="intel", cpus=cpus)
            spike_ends.append(_spike_end_s(sampler.stop()))
        assert None not in spike_ends, spike_ends
        assert spike_ends[0] < spike_ends[1] < spike_ends[2], spike_ends

    def test_multiplex_pressure(self):
        """Scaled-estimate quality as the event count exceeds the counters."""
        rates = constant_rates(PhaseRates(ipc=2.0))
        worst = {}
        for n_events in (4, 12, 16, 24):
            system = System("raptor-lake-i7-13700", dt_s=1e-4)
            papi = Papi(system)
            p_cpu = system.topology.cpus_of_type("P-core")[0]
            t = system.machine.spawn(
                SimThread("w", Program([ComputePhase(5e8, rates)]), affinity={p_cpu})
            )
            es = papi.create_eventset()
            papi.attach(es, t)
            papi.set_multiplex(es)
            for _ in range(n_events):
                papi.add_event(es, "adl_glc::INST_RETIRED:ANY")
            papi.start(es)
            system.machine.run_until_done([t], max_s=10)
            values = papi.stop(es)
            papi.destroy_eventset(es)
            worst[n_events] = max(abs(v - 5e8) / 5e8 for v in values)
        assert worst[4] < 0.001  # fits in the counters: exact
        assert worst[24] < 0.35  # heavy multiplexing: still usable

    def test_scheduler_noise(self, monkeypatch):
        """The §IV-F E-core share responds to the background-interference
        rate, which ``run_hybrid_test`` fixes at 0.05 for unpinned runs."""
        class NoisySystem(hybrid_eventset.System):
            """Unpinned runs get the loop's ``jitter`` instead of 0.05."""

            def __init__(self, *args, **kwargs):
                if kwargs.get("migrate_jitter"):
                    kwargs["migrate_jitter"] = jitter
                    kwargs["rebalance_jitter"] = jitter
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hybrid_eventset, "System", NoisySystem)
        e_share = {}
        for jitter in (0.0, 0.02, 0.05, 0.15):
            r = hybrid_eventset.run_hybrid_test(mode="hybrid", reps=60)
            e_share[jitter] = r.average(1) / r.avg_total if r.avg_total else 0.0
        assert e_share[0.0] == 0.0  # no noise: never leaves the P-core
        assert e_share[0.15] > e_share[0.02]  # more noise, more E residency
