"""The papi_cost tool and the Alder Lake preset."""

import pytest

from repro.papi import Papi
from repro.sim.task import Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System
from repro.tools import papi_cost

RATES = constant_rates(PhaseRates(ipc=2.0))


class TestPapiCostTool:
    def test_hybrid_costs_scale_with_pmus(self, capsys):
        assert papi_cost.main(["--iterations", "20"]) == 0
        out = capsys.readouterr().out
        assert "1 PMU" in out and "2 PMUs" in out
        # Parse the read rows and compare syscalls/op.
        rows = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 4 and parts[-3] == "read":
                # e.g. "2 PMUs   read   2.0   6800"
                label = " ".join(parts[:-3])
                rows[label] = float(parts[-2])
        assert rows["2 PMUs"] == 2 * rows["1 PMU"]

    def test_homogeneous_machine(self, capsys):
        assert papi_cost.main(
            ["--machine", "xeon-homogeneous", "--iterations", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 PMUs" not in out


class TestAlderLakePreset:
    def test_topology(self):
        system = System("alder-lake-i5-12600k")
        assert system.topology.n_cpus == 16  # 6*2 + 4
        assert len(system.topology.cpus_of_type("P-core")) == 12
        assert len(system.topology.cpus_of_type("E-core")) == 4

    def test_hybrid_eventset_works(self):
        system = System("alder-lake-i5-12600k", dt_s=1e-4)
        papi = Papi(system)
        e_cpu = system.topology.cpus_of_type("E-core")[0]
        t = system.machine.spawn(
            SimThread("app", Program([ComputePhase(1e6, RATES)]), affinity={e_cpu})
        )
        es = papi.create_eventset()
        papi.attach(es, t)
        papi.add_event(es, "PAPI_TOT_INS")
        papi.start(es)
        system.machine.run_until_done([t], max_s=5)
        assert papi.stop(es)[0] == pytest.approx(1e6)

    def test_detection(self):
        from repro.papi import detect_core_types

        report = detect_core_types(System("alder-lake-i5-12600k"))
        assert report.heterogeneous
        assert {len(v) for v in report.consensus.values()} == {12, 4}
