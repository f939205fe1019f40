"""Unit tests for the HPL workload model and runner."""

import pytest

from repro.hpl import (
    HplConfig,
    VARIANTS,
    beta_problem_size,
    hpl_flops,
    hpl_steps,
    parse_dat,
    run_hpl,
    to_dat,
    tune_hpl,
)
from repro.hpl.dat import PAPER_RAPTOR_LAKE
from repro.system import System


class TestDat:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            HplConfig(n=0, nb=64)
        with pytest.raises(ValueError):
            HplConfig(n=100, nb=128)
        with pytest.raises(ValueError):
            HplConfig(n=1000, nb=100, p=0)

    def test_roundtrip(self):
        cfg = HplConfig(n=57024, nb=192, p=1, q=1)
        assert parse_dat(to_dat(cfg)) == cfg

    def test_paper_config(self):
        assert PAPER_RAPTOR_LAKE.n == 57024
        assert PAPER_RAPTOR_LAKE.nb == 192
        assert PAPER_RAPTOR_LAKE.p == PAPER_RAPTOR_LAKE.q == 1

    def test_memory_usage(self):
        # N=57024 doubles: ~24 GiB of the 32 GiB machine.
        gib = PAPER_RAPTOR_LAKE.memory_bytes() / (1 << 30)
        assert 20 < gib < 32

    def test_n_steps(self):
        assert HplConfig(n=1000, nb=100).n_steps == 10
        assert HplConfig(n=1001, nb=100).n_steps == 11


class TestModel:
    def test_flop_count_formula(self):
        n = 1000
        assert hpl_flops(n) == pytest.approx(2 / 3 * n**3 + 1.5 * n**2)

    def test_steps_conserve_flops(self):
        cfg = HplConfig(n=4096, nb=128)
        steps = hpl_steps(cfg)
        assert len(steps) == cfg.n_steps
        total = sum(s.total_flops for s in steps)
        assert total == pytest.approx(hpl_flops(cfg.n), rel=1e-12)

    def test_update_work_shrinks(self):
        steps = hpl_steps(HplConfig(n=4096, nb=128))
        updates = [s.update_flops for s in steps]
        assert updates[0] > updates[len(updates) // 2] > updates[-2]

    def test_panel_small_relative_to_update(self):
        steps = hpl_steps(HplConfig(n=8192, nb=128))
        assert sum(s.panel_flops for s in steps) < 0.05 * sum(
            s.update_flops for s in steps
        )


class TestTuning:
    def test_beta_problem_size(self):
        # 32 GiB at beta=0.8: sqrt(0.8*32GiB/8) ~ 58572, floored to NB=192.
        n = beta_problem_size(32, 0.80, 192)
        assert n % 192 == 0
        assert 55000 < n < 59000

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            beta_problem_size(32, 1.5, 192)
        with pytest.raises(ValueError):
            beta_problem_size(0.0001, 0.8, 256)

    def test_paper_n_reachable(self):
        """The paper's N=57024 is the beta=0.76 point for NB=192."""
        candidates = {
            beta_problem_size(32, b / 100, 192) for b in range(70, 86)
        }
        assert 57024 in candidates

    def test_sweep_shape(self):
        calls = []

        def fake_run(cfg):
            calls.append(cfg)
            return float(cfg.nb)  # NB=256 "wins"

        result = tune_hpl(32, fake_run, scale=0.05)
        assert len(result.cells) == 16
        assert result.best.nb == 256
        assert "Gflop/s" in result.table()

    def test_sweep_on_simulated_hpl(self):
        """The §II-A.2 sweep at quarter scale, on the openblas build."""

        def run_cell(config):
            system = System("raptor-lake-i7-13700", dt_s=0.02)
            cpus = system.topology.primary_threads()
            return run_hpl(system, config, variant="openblas", cpus=cpus).gflops

        result = tune_hpl(32, run_cell, scale=0.25)
        assert len(result.cells) == 16
        # Large blocks win over NB=64 (blocking efficiency).
        assert result.best.nb >= 128
        # The paper's point (N = 57024, NB = 192) sits in the range the
        # beta approach proposes for NB = 192.
        ns_192 = sorted(
            beta_problem_size(32, c.beta, 192) for c in result.cells if c.nb == 192
        )
        assert ns_192[0] * 0.95 <= 57024 <= ns_192[-1] * 1.05


class TestVariants:
    def test_known_variants(self):
        assert set(VARIANTS) == {"openblas", "intel"}
        assert VARIANTS["intel"].dynamic_fraction == 1.0
        assert VARIANTS["openblas"].dynamic_fraction < 0.5

    def test_intel_more_efficient_on_both_core_types(self, raptor):
        for ct in raptor.topology.core_types:
            intel = VARIANTS["intel"].profile.effective_flops_per_cycle(ct)
            openblas = VARIANTS["openblas"].profile.effective_flops_per_cycle(ct)
            assert intel > openblas
            assert intel <= ct.flops_per_cycle

    def test_missrates_match_table3_inputs(self, raptor):
        p, e = raptor.topology.core_types
        for name, miss_p, miss_e in (("openblas", 0.86, 0.0005), ("intel", 0.64, 0.0003)):
            prof = VARIANTS[name].profile
            assert prof.rates(p).llc_miss_rate == pytest.approx(miss_p)
            assert prof.rates(e).llc_miss_rate == pytest.approx(miss_e)

    def test_unknown_microarch_without_default_raises(self):
        from repro.hpl.variants import DgemmProfile
        from repro.hw.machines import _raptor_cove

        prof = DgemmProfile(
            base_eff={"other": 1.0},
            llc_refs_per_instr={"default": 0.001},
            llc_miss_rate={"default": 0.1},
            scalar_overhead={"default": 0.1},
        )
        with pytest.raises(KeyError):
            prof.rates(_raptor_cove())


class TestRunner:
    def test_small_run_completes(self):
        system = System("raptor-lake-i7-13700", dt_s=0.005)
        r = run_hpl(system, HplConfig(n=2304, nb=192), variant="intel")
        assert r.gflops > 0
        assert r.wall_s > 0
        assert r.energy_j > 0
        assert sum(r.fp_ops.values()) == pytest.approx(hpl_flops(2304), rel=0.02)

    def test_unknown_variant(self):
        system = System("raptor-lake-i7-13700", dt_s=0.005)
        with pytest.raises(ValueError, match="unknown HPL variant"):
            run_hpl(system, HplConfig(n=1024, nb=128), variant="mkl")

    def test_empty_cpu_list(self):
        system = System("raptor-lake-i7-13700", dt_s=0.005)
        with pytest.raises(ValueError):
            run_hpl(system, HplConfig(n=1024, nb=128), cpus=[])

    def test_counters_by_core_type(self):
        system = System("raptor-lake-i7-13700", dt_s=0.005)
        primary = system.topology.primary_threads()
        r = run_hpl(system, HplConfig(n=2304, nb=192), variant="intel", cpus=primary)
        assert set(r.instructions) == {"cpu_core", "cpu_atom"}
        assert 0 < r.instruction_share("cpu_core") < 1
        assert r.llc_miss_rate("cpu_core") > r.llc_miss_rate("cpu_atom")

    def test_single_core_run(self):
        system = System("orangepi-800", dt_s=0.005)
        r = run_hpl(system, HplConfig(n=1024, nb=128), cpus=[0])
        assert r.gflops > 0
        assert set(r.instructions) == {"armv8_cortex_a53"}

    def test_openblas_spins_more_than_intel(self):
        def spin(variant):
            system = System("raptor-lake-i7-13700", dt_s=0.005)
            # Large enough that scheduling imbalance (not chunk-granularity
            # noise) dominates barrier waiting.
            r = run_hpl(
                system,
                HplConfig(n=13824, nb=192),
                variant=variant,
                cpus=system.topology.primary_threads(),
            )
            return r.spin_time_s / r.wall_s

        assert spin("openblas") > spin("intel")

    def test_settle_before_run(self):
        system = System("raptor-lake-i7-13700", dt_s=0.005)
        system.machine.thermal.temp_c = 70.0
        run_hpl(system, HplConfig(n=1152, nb=192), settle_temp_c=35.0)
        # The run started only after cooling below 35 C; with a short run
        # the temperature cannot have recovered past the start point much.
        assert system.machine.thermal.temp_c < 70.0
