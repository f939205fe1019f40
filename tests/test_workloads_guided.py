"""Job profiles and the counter-guided scheduling study."""

import pytest

from repro.hw.coretype import ArchEvent
from repro.hw.machines import _gracemont, _raptor_cove
from repro.sim.task import Program, SimThread
from repro.system import System
from repro.workloads import JOB_PROFILES, make_job_phases
from repro.workloads.guided import (
    default_job_batch,
    profile_job_missrates,
    render,
    run_guided_study,
    run_placement,
)


class TestJobProfiles:
    def test_compute_jobs_favour_pcores(self):
        p, e = _raptor_cove(), _gracemont()
        dgemm = JOB_PROFILES["dgemm-kernel"]
        chase = JOB_PROFILES["pointer-chase"]
        # Compute-bound work gains much more from a P-core than
        # memory-bound work does.
        assert dgemm.speed_ratio_big_over_little(p, e) > 2.0
        assert chase.speed_ratio_big_over_little(p, e) < 1.6

    def test_rates_positive_everywhere(self):
        for ct in (_raptor_cove(), _gracemont()):
            for profile in JOB_PROFILES.values():
                r = profile.rates(ct)
                assert r.ipc > 0
                assert 0 <= r.llc_miss_rate <= 1

    def test_memory_jobs_stall(self):
        p = _raptor_cove()
        assert (
            JOB_PROFILES["pointer-chase"].rates(p).ipc
            < JOB_PROFILES["integer-hot-loop"].rates(p).ipc / 3
        )

    def test_make_phases(self):
        phases = make_job_phases(JOB_PROFILES["streaming-scan"], 1e6)
        assert len(phases) == 1
        assert phases[0].remaining == 1e6

    @pytest.mark.parametrize("engine", ["ticks", "events"])
    def test_time_shared_jobs_count_their_own_events(self, engine):
        """Two jobs sharing one P-core each count their own profile's
        events.  ``JobProfile.rates`` builds a fresh ``PhaseRates`` per
        call, so the engine's rate-vector memo must not answer one job's
        rates with a vector cached for another's recycled object."""
        system = System("raptor-lake-i7-13700", dt_s=1e-3, engine=engine)
        machine = system.machine
        cpu = machine.topology.cpus_of_pmu("cpu_core")[0]
        jobs = [
            (JOB_PROFILES[name], machine.spawn(SimThread(
                name,
                Program(make_job_phases(JOB_PROFILES[name], 2e7)),
                affinity={cpu},
            )))
            for name in ("pointer-chase", "integer-hot-loop")
        ]
        machine.run_until_done([t for _, t in jobs], strict=True)
        ctype = machine.topology.core(cpu).ctype
        for profile, thread in jobs:
            got = thread.counters_total()
            want = profile.expected_counts(ctype, 2e7)
            for event in (
                ArchEvent.INSTRUCTIONS,
                ArchEvent.LLC_REFERENCES,
                ArchEvent.LLC_MISSES,
                ArchEvent.BRANCHES,
                ArchEvent.BRANCH_MISSES,
            ):
                assert got[event] == pytest.approx(want[event], rel=1e-9), (
                    profile.name, event.name
                )


class TestProfiling:
    def test_measured_missrates_match_profiles(self):
        jobs = default_job_batch("raptor-lake-i7-13700", per_profile=1)
        profile_job_missrates("raptor-lake-i7-13700", jobs)
        for job in jobs:
            assert job.measured_miss_rate == pytest.approx(
                job.profile.llc_miss_rate, rel=0.05
            )

    def test_batch_oversubscribes(self):
        jobs = default_job_batch("raptor-lake-i7-13700", per_profile=8)
        assert len(jobs) == 8 * len(JOB_PROFILES) == 32


class TestStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_guided_study(per_profile=6, target_seconds=0.1)

    @pytest.fixture(scope="class")
    def default_study(self):
        """The default batch: 8 jobs of 0.2 s per profile."""
        return run_guided_study()

    def test_guided_beats_blind_policies(self, study, default_study):
        for s in (study, default_study):
            guided = s.outcomes["guided"].makespan_s
            assert guided < s.outcomes["naive"].makespan_s
            assert guided < s.outcomes["inverted"].makespan_s
            assert s.speedup("inverted") > 1.15
            assert s.speedup("naive") > 1.05

    def test_guided_uses_least_energy(self, study, default_study):
        for s in (study, default_study):
            energies = {p: o.energy_j for p, o in s.outcomes.items()}
            assert energies["guided"] == min(energies.values())

    def test_guided_sends_memory_jobs_to_ecores(self, study):
        assignments = study.outcomes["guided"].assignments
        for job in study.jobs:
            target = assignments[job.name]
            if job.profile.name in ("pointer-chase", "streaming-scan"):
                assert target == "E-core", job.name
            if job.profile.name == "dgemm-kernel":
                assert target == "P-core", job.name

    def test_render(self, study):
        text = render(study)
        assert "makespan" in text and "guided" in text

    def test_unknown_policy(self):
        jobs = default_job_batch("raptor-lake-i7-13700", per_profile=1)
        with pytest.raises(ValueError):
            run_placement("raptor-lake-i7-13700", jobs, "random")
