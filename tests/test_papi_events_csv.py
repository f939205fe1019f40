"""PAPI_events.csv preset definitions (§V-2's format extension)."""

import pytest

from repro.papi import Papi, PapiError
from repro.papi.events_csv import (
    DEFAULT_EVENTS_CSV,
    load_preset_table,
    parse_events_csv,
)
from repro.pfmlib import Pfmlib
from repro.sim.task import Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates

RATES = constant_rates(PhaseRates(ipc=2.0))


class TestParser:
    def test_parses_rows_and_comments(self):
        table = parse_events_csv(
            "# comment\n"
            "PRESET,PAPI_TOT_INS,adl coretype:glc,INST_RETIRED:ANY\n"
            "\n"
            "PRESET,PAPI_TOT_INS,skx,INST_RETIRED:ANY\n"
        )
        rows = table.rows["PAPI_TOT_INS"]
        assert len(rows) == 2
        assert rows[0].base_key == "adl"
        assert rows[0].coretype == "glc"
        assert rows[1].coretype is None

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="PRESET rows"):
            parse_events_csv("EVENT,PAPI_X,adl,FOO\n")
        with pytest.raises(ValueError, match="4 fields"):
            parse_events_csv("PRESET,PAPI_X,adl\n")
        with pytest.raises(ValueError, match="PAPI_"):
            parse_events_csv("PRESET,TOT_INS,adl,FOO\n")

    def test_default_csv_parses(self):
        table = parse_events_csv(DEFAULT_EVENTS_CSV)
        assert "PAPI_TOT_INS" in table.presets()


class TestResolution:
    def test_hybrid_rows_expand_to_derived_add(self, raptor):
        pfm = Pfmlib(raptor)
        table = parse_events_csv(DEFAULT_EVENTS_CSV)
        resolved = load_preset_table(table, pfm, hybrid_aware=True)
        r = resolved["PAPI_TOT_INS"]
        assert r.derived == "DERIVED_ADD"
        assert r.natives == [
            "adl_glc::INST_RETIRED:ANY",
            "adl_grt::INST_RETIRED:ANY",
        ]

    def test_homogeneous_single_row(self, xeon):
        pfm = Pfmlib(xeon)
        resolved = load_preset_table(
            parse_events_csv(DEFAULT_EVENTS_CSV), pfm, hybrid_aware=True
        )
        r = resolved["PAPI_TOT_INS"]
        assert r.derived == "NOT_DERIVED"
        assert r.natives == ["skx::INST_RETIRED:ANY"]

    def test_old_parser_cannot_map_hybrid(self, raptor):
        """Plain family/model rows are ambiguous on a hybrid machine."""
        pfm = Pfmlib(raptor)
        table = parse_events_csv("PRESET,PAPI_TOT_INS,adl,INST_RETIRED:ANY\n")
        with pytest.raises(PapiError):
            load_preset_table(table, pfm, hybrid_aware=False)

    def test_old_parser_skips_coretype_rows(self, xeon):
        """Coretype rows are invisible to the old parser, but plain rows
        on homogeneous machines still resolve."""
        pfm = Pfmlib(xeon)
        table = parse_events_csv(
            "PRESET,PAPI_TOT_INS,adl coretype:glc,INST_RETIRED:ANY\n"
            "PRESET,PAPI_TOT_INS,skx,INST_RETIRED:ANY\n"
        )
        resolved = load_preset_table(table, pfm, hybrid_aware=False)
        assert resolved["PAPI_TOT_INS"].natives == ["skx::INST_RETIRED:ANY"]

    def test_arm_rows(self, orangepi):
        pfm = Pfmlib(orangepi)
        resolved = load_preset_table(
            parse_events_csv(DEFAULT_EVENTS_CSV), pfm, hybrid_aware=True
        )
        r = resolved["PAPI_TOT_INS"]
        assert r.derived == "DERIVED_ADD"
        assert set(r.natives) == {
            "arm_a53::INST_RETIRED:ANY",
            "arm_a72::INST_RETIRED:ANY",
        }


class TestPapiIntegration:
    def test_csv_preset_counts_across_core_types(self, raptor):
        papi = Papi(raptor, preset_csv=DEFAULT_EVENTS_CSV)
        e_cpu = raptor.topology.cpus_of_type("E-core")[0]
        t = raptor.machine.spawn(
            SimThread("app", Program([ComputePhase(1e6, RATES)]), affinity={e_cpu})
        )
        es = papi.create_eventset()
        papi.attach(es, t)
        papi.add_event(es, "PAPI_TOT_INS")
        entry = papi.eventset(es).entries[0]
        assert entry.derived == "DERIVED_ADD"
        papi.start(es)
        raptor.machine.run_until_done([t], max_s=5)
        assert papi.stop(es)[0] == pytest.approx(1e6)

    def test_csv_preset_takes_precedence(self, raptor):
        """A CSV that maps PAPI_TOT_INS to cycles overrides the builtin."""
        csv_text = (
            "PRESET,PAPI_TOT_INS,adl coretype:glc,CPU_CLK_UNHALTED:THREAD\n"
        )
        papi = Papi(raptor, preset_csv=csv_text)
        p_cpu = raptor.topology.cpus_of_type("P-core")[0]
        t = raptor.machine.spawn(
            SimThread("app", Program([ComputePhase(1e6, RATES)]), affinity={p_cpu})
        )
        es = papi.create_eventset()
        papi.attach(es, t)
        papi.add_event(es, "PAPI_TOT_INS")
        papi.start(es)
        raptor.machine.run_until_done([t], max_s=5)
        # Counting cycles (IPC 2 -> half the instructions).
        assert papi.stop(es)[0] == pytest.approx(5e5)

    def test_query_event_agrees_with_add_event(self, raptor):
        """A preset only the CSV defines is queryable exactly when it is
        addable, and a CSV preset naming no available native is
        neither."""
        papi = Papi(
            raptor,
            preset_csv=(
                "PRESET,PAPI_TD_SLOTS,adl coretype:glc,TOPDOWN:SLOTS\n"
                "PRESET,PAPI_TD_NONE,adl coretype:glc,NO_SUCH_EVENT\n"
            ),
        )
        t = raptor.machine.spawn(
            SimThread("app", Program([ComputePhase(1e6, RATES)]))
        )
        es = papi.create_eventset()
        papi.attach(es, t)
        assert papi.query_event("PAPI_TD_SLOTS")
        papi.add_event(es, "PAPI_TD_SLOTS")
        assert not papi.query_event("PAPI_TD_NONE")
        with pytest.raises(PapiError):
            papi.add_event(es, "PAPI_TD_NONE")
