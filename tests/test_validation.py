"""The ground-truth validation harness and derived-metric groups.

Property suite for :mod:`repro.validate`:

* the classification bands themselves (``classify`` unit tests);
* scorecard structure and strictness on every machine preset — no
  native event may classify ``noisy`` or ``broken`` on a healthy
  machine;
* the parity law extended to the measurement stack: every measured
  sample, multiplexed rows included, is bit-identical across the
  ``ticks``/``events`` engines, and so are the accuracy classes;
* fault stability: eight seeded mild fault plans (hotplug of unused
  CPUs, absorbable syscall storms) leave every class unchanged;
* the seeded-counter-bug selftest (``REPRO_VALIDATE_SELFTEST``) is
  *detected* — a mutation test of the validator;
* MetricsRegistry histogram/gauge edge cases and snapshot round-trip;
* derived-group quality degradation paths;
* pinned table outputs of the experiments that consume derived groups.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.checkpoint.pickler import dumps, loads
from repro.experiments import hybrid_eventset, overhead, rapl_overhead
from repro.faults import CpuOffline, CpuOnline, FaultPlan, PerfSyscallStorm
from repro.hw.machines import MACHINE_PRESETS
from repro.trace.tracer import MetricsRegistry, _bucket
from repro.validate import (
    Accuracy,
    MeasurementBundle,
    Scorecard,
    classify,
    evaluate,
    evaluate_all,
    run_validation,
    selftest_detected,
)

RAPTOR = "raptor-lake-i7-13700"
ALDER = "alder-lake-i5-12600k"
ENGINES = ("ticks", "events")


# -- classification bands --------------------------------------------------


class TestClassify:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            classify([], [])

    def test_exact_within_quantization(self):
        # Counter truncation: up to 2 counts off is still exact.
        assert classify([100.0, 300.0], [101.0, 298.0]) is Accuracy.EXACT

    def test_exact_within_relative_tolerance(self):
        e = 1e12
        assert classify([e], [e * (1 + 1e-10)]) is Accuracy.EXACT

    def test_nan_is_broken(self):
        assert classify([100.0], [float("nan")]) is Accuracy.BROKEN
        assert classify([100.0], [float("inf")]) is Accuracy.BROKEN

    def test_expected_nothing_measured_something_is_broken(self):
        assert classify([0.0], [50.0]) is Accuracy.BROKEN

    def test_both_nothing_is_exact(self):
        assert classify([0.0, 0.0], [0.0, 1.0]) is Accuracy.EXACT

    def test_stable_scale_factor_is_proportional(self):
        assert classify([1000.0, 3000.0], [1040.0, 3135.0]) is Accuracy.PROPORTIONAL

    def test_zero_expected_samples_are_skipped(self):
        # A zero-expected sample with ~zero measured doesn't block the
        # ratio analysis of the remaining samples.
        assert classify([0.0, 1000.0], [0.0, 1040.0]) is Accuracy.PROPORTIONAL

    def test_unstable_scale_factor_is_noisy(self):
        assert classify([1000.0, 1000.0], [1200.0, 900.0]) is Accuracy.NOISY

    def test_large_error_is_broken(self):
        assert classify([1000.0], [1500.0]) is Accuracy.BROKEN
        assert classify([1000.0], [10.0]) is Accuracy.BROKEN


# -- the scorecard on one machine ------------------------------------------


@pytest.fixture(scope="module")
def raptor_card() -> Scorecard:
    return run_validation(RAPTOR)


@pytest.fixture(scope="module")
def engine_cards() -> dict[str, Scorecard]:
    return {engine: run_validation(RAPTOR, engine=engine) for engine in ENGINES}


class TestScorecard:
    def test_covers_all_pmus(self, raptor_card):
        pmus = {row.pmu for row in raptor_card.rows}
        assert {"cpu_core", "cpu_atom", "uncore_llc", "power"} <= pmus

    def test_no_broken_or_noisy_on_healthy_machine(self, raptor_card):
        counts = raptor_card.counts()
        assert counts["broken"] == 0
        assert counts["noisy"] == 0
        assert counts["exact"] + counts["proportional"] == len(raptor_card.rows)

    def test_dedicated_counters_are_exact(self, raptor_card):
        # Without multiplexing every core event is a direct integral of
        # the same rate function the oracle evaluates: exact.
        for row in raptor_card.rows:
            if not row.multiplexed:
                assert row.accuracy is Accuracy.EXACT, (row.event, row.measured)

    def test_rapl_rows_exact(self, raptor_card):
        rapl = [r for r in raptor_card.rows if r.pmu == "power"]
        assert len(rapl) == 3  # package, cores, dram
        for row in rapl:
            assert row.arch_event is None and row.core_type is None
            assert row.accuracy is Accuracy.EXACT

    def test_uncore_counts_all_cores(self, raptor_card):
        uncore = [r for r in raptor_card.rows if r.pmu == "uncore_llc"]
        assert len(uncore) == 2  # lookups + misses
        for row in uncore:
            assert row.accuracy is Accuracy.EXACT
            # Both core types contribute: the count exceeds what any
            # single validation thread could have produced alone.
            assert row.measured[0] > 0

    def test_mux_rows_scored_separately(self, raptor_card):
        mux = [r for r in raptor_card.rows if r.multiplexed]
        assert mux, "the deliberately multiplexed run produced no rows"
        for row in mux:
            assert row.accuracy in (Accuracy.EXACT, Accuracy.PROPORTIONAL)
        # Scaled extrapolation cannot be exact for every event: at least
        # one mux row must have genuinely degraded to proportional.
        assert any(r.accuracy is Accuracy.PROPORTIONAL for r in mux)

    def test_accuracy_by_event_excludes_mux(self, raptor_card):
        by_event = raptor_card.accuracy_by_event()
        assert by_event
        assert set(by_event.values()) == {"exact"}

    def test_counts_sum_to_rows(self, raptor_card):
        assert sum(raptor_card.counts().values()) == len(raptor_card.rows)

    def test_json_round_trip(self, raptor_card):
        payload = json.loads(raptor_card.to_json())
        assert payload["machine"] == RAPTOR
        assert payload["counts"] == raptor_card.counts()
        assert len(payload["rows"]) == len(raptor_card.rows)
        for row in payload["rows"]:
            assert row["accuracy"] in {a.value for a in Accuracy}

    def test_selftest_not_detected_on_clean_run(self, raptor_card):
        assert not selftest_detected(raptor_card)


class TestAllPresets:
    @pytest.mark.parametrize("machine", sorted(MACHINE_PRESETS))
    def test_strict_clean(self, machine):
        card = run_validation(machine)
        counts = card.counts()
        assert counts["broken"] == 0, [r.event for r in card.broken()]
        assert counts["noisy"] == 0
        assert len(card.rows) > 10


# -- engine parity ---------------------------------------------------------


class TestEngineParity:
    def test_classes_bit_identical_across_engines(self, engine_cards):
        maps = {e: c.class_map() for e, c in engine_cards.items()}
        assert maps["ticks"] == maps["events"]

    def test_exact_on_one_engine_means_exact_on_all(self, engine_cards):
        for engine, card in engine_cards.items():
            for row in card.rows:
                if row.accuracy is not Accuracy.EXACT:
                    continue
                for other, other_card in engine_cards.items():
                    assert other_card.class_map()[row.key] == "exact", (
                        f"{row.event} exact on {engine} but not {other}"
                    )

    def test_measured_values_identical_across_engines(self, engine_cards):
        # Stronger than class parity: every sample is bit-identical (the
        # engines' state-digest parity law, observed through the full
        # PAPI stack).  Multiplexed rows included: on Alder Lake a span
        # recorded on the last tick of a rotation slot must not leap
        # into the next slot under the old active set.
        alder = {engine: run_validation(ALDER, engine=engine) for engine in ENGINES}
        for cards in (engine_cards, alder):
            ref, other = (
                [(row.key, tuple(row.measured)) for row in cards[e].rows]
                for e in ENGINES
            )
            assert any(row.multiplexed for row in cards["ticks"].rows)
            assert ref == other


# -- fault stability -------------------------------------------------------


def _mild_plan(seed: int):
    """A fault plan builder: hotplug CPUs that host no validation
    thread, plus a syscall storm small enough for the retry loop."""

    def build(system):
        topo = system.topology
        used = {topo.cpus_of_type(ct.name)[0] for ct in topo.core_types}
        free = sorted(set(range(topo.n_cpus)) - used)
        cpu = free[seed % len(free)]
        errno_name = "EBUSY" if seed % 2 == 0 else "EINTR"
        return (
            FaultPlan()
            .at(1e-4 + seed * 2e-5, CpuOffline(cpu))
            .at(2e-4, PerfSyscallStorm(errno_name=errno_name, count=1 + seed % 4, ops=("read",)))
            .at(3e-4, CpuOnline(cpu))
        )

    return build


class TestFaultStability:
    @pytest.fixture(scope="class")
    def reference(self) -> dict:
        return run_validation(RAPTOR, include_mux=False).class_map()

    @pytest.mark.parametrize("seed", range(8))
    def test_classes_stable_under_mild_faults(self, seed, reference):
        card = run_validation(
            RAPTOR, include_mux=False, fault_plan_fn=_mild_plan(seed)
        )
        assert card.class_map() == reference


# -- the seeded-bug selftest -----------------------------------------------


class TestSelftest:
    def test_seeded_decode_bug_is_caught(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE_SELFTEST", "1")
        card = run_validation(RAPTOR)
        assert selftest_detected(card)
        broken = card.broken()
        assert broken
        # Only the corrupted events break; collateral damage would mean
        # the harness can't localize a miscounting counter.
        assert {r.arch_event for r in broken} == {"BRANCH_MISSES"}

    def test_selftest_env_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE_SELFTEST", "0")
        card = run_validation(RAPTOR, include_mux=False)
        assert not card.broken()


# -- MetricsRegistry edge cases --------------------------------------------


class TestMetricsRegistryEdges:
    def test_non_positive_observations_share_underflow_bucket(self):
        m = MetricsRegistry()
        m.observe("lat", value=0.0)
        m.observe("lat", value=-5.0)
        m.observe("lat", value=float("nan"))
        m.observe("lat", value=float("-inf"))
        assert m.histograms[("lat", None)] == {-1075: 4}

    def test_bucket_is_binary_exponent(self):
        assert _bucket(1.0) == 1       # frexp(1.0) = (0.5, 1)
        assert _bucket(0.75) == 0
        assert _bucket(1024.0) == 11
        assert _bucket(5e-324) == -1073  # smallest subnormal
        assert _bucket(0.0) == -1075
        assert _bucket(float("inf")) == -1075

    def test_gauge_overwrites_counter_accumulates(self):
        m = MetricsRegistry()
        m.gauge("temp", "P-core", 55.0)
        m.gauge("temp", "P-core", 71.0)
        m.counter("ticks", "P-core", 2.0)
        m.counter("ticks", "P-core", 3.0)
        assert m.gauges[("temp", "P-core")] == 71.0
        assert m.counters[("ticks", "P-core")] == 5.0

    def test_as_dict_key_collision_hazard(self):
        # Flattening (name, key) to "name|key" collides when a metric
        # name itself contains the separator: both entries survive in
        # the registry but only one in the flattened dict.  Documented
        # hazard — names must not contain '|'.
        m = MetricsRegistry()
        m.counter("a|b", None, 1.0)
        m.counter("a", "b", 2.0)
        assert len(m.counters) == 2
        assert len(m.as_dict()["counters"]) == 1

    def test_as_dict_sorted_and_json_safe(self):
        m = MetricsRegistry()
        m.counter("z", "k2", 1.0)
        m.counter("z", "k1", 1.0)
        m.counter("a", None, 1.0)
        m.observe("h", value=3.0)
        d = m.as_dict()
        assert list(d["counters"]) == ["a", "z|k1", "z|k2"]
        json.dumps(d)  # no tuples or non-string keys survive

    def test_snapshot_round_trip(self):
        m = MetricsRegistry()
        m.counter("c", "P-core", 7.0)
        m.gauge("g", None, -1.5)
        m.observe("h", "E-core", 0.0)
        m.observe("h", "E-core", 123.0)
        clone = loads(dumps(m))
        assert clone.counters == m.counters
        assert clone.gauges == m.gauges
        assert clone.histograms == m.histograms
        assert clone.as_dict() == m.as_dict()
        # The clone is independent state, not an alias.
        clone.counter("c", "P-core", 1.0)
        assert m.counters[("c", "P-core")] == 7.0


# -- derived-metric groups -------------------------------------------------


def _validated_bundle(**overrides) -> MeasurementBundle:
    base = dict(
        counters={"instructions": 4e6, "cycles": 2e6, "fp_ops": 8e6},
        runtime_s=1e-3,
        energy_j=0.05,
        accuracy={"instructions": "exact", "cycles": "exact", "fp_ops": "exact"},
    )
    base.update(overrides)
    return MeasurementBundle(**base)


class TestDerivedGroups:
    def test_validated_inputs_are_ok(self):
        v = evaluate("ipc", _validated_bundle())
        assert v.ok and v.value == 2.0 and v.reasons == []

    def test_missing_input_never_silent_zero(self):
        v = evaluate("ipc", MeasurementBundle(counters={"instructions": 1e6}))
        assert v.quality == "missing"
        assert v.value is None
        assert any("cycles" in r for r in v.reasons)

    def test_non_finite_counter_counts_as_missing(self):
        v = evaluate(
            "ipc",
            _validated_bundle(
                counters={"instructions": float("nan"), "cycles": 2e6}
            ),
        )
        assert v.quality == "missing"

    def test_unvalidated_counter_degrades(self):
        v = evaluate("ipc", _validated_bundle(accuracy={}))
        assert v.quality == "degraded"
        assert v.value == 2.0  # still computed, but with caveats
        assert any("unvalidated" in r for r in v.reasons)

    def test_noisy_accuracy_degrades(self):
        v = evaluate(
            "ipc",
            _validated_bundle(
                accuracy={"instructions": "exact", "cycles": "noisy"}
            ),
        )
        assert v.quality == "degraded"
        assert any("'noisy'" in r for r in v.reasons)

    def test_multiplexed_counter_degrades(self):
        v = evaluate(
            "ipc", _validated_bundle(mux_scale={"cycles": 0.5})
        )
        assert v.quality == "degraded"
        assert any("multiplexed" in r for r in v.reasons)

    def test_scorecard_accuracy_plugs_in(self, raptor_card):
        # The harness output feeds the groups layer directly: rename the
        # per-fullname classes onto architectural counter names.
        by_event = raptor_card.accuracy_by_event()
        inst = by_event["adl_glc::INST_RETIRED:ANY"]
        cyc = by_event["adl_glc::CPU_CLK_UNHALTED:THREAD"]
        v = evaluate(
            "ipc",
            _validated_bundle(accuracy={"instructions": inst, "cycles": cyc}),
        )
        assert v.ok

    def test_zero_denominator_is_missing_not_crash(self):
        v = evaluate("ipc", _validated_bundle(counters={"instructions": 0.0, "cycles": 0.0}))
        assert v.value is None
        assert v.quality == "missing"
        assert "cycles == 0" in v.reasons

    def test_gflops_and_energy_per_flop_units(self):
        b = _validated_bundle()
        g = evaluate("gflops", b)
        assert g.value == pytest.approx(8e6 / 1e-3 / 1e9)
        e = evaluate("energy_per_flop", b)
        assert e.value == pytest.approx(0.05 / 8e6 * 1e9)  # nJ/flop

    def test_freq_residency_per_cluster(self):
        b = MeasurementBundle(
            freq_mhz={"P-core": [5000.0, 5000.0, 2000.0], "E-core": [3000.0]}
        )
        v = evaluate("freq_residency", b)
        assert v.ok and v.value is None
        assert v.per_key["P-core.mean_mhz"] == pytest.approx(4000.0)
        assert v.per_key["P-core.peak_residency"] == pytest.approx(2 / 3)
        assert v.per_key["E-core.peak_residency"] == 1.0

    def test_mux_quality_reports_worst(self):
        v = evaluate(
            "mux_quality",
            MeasurementBundle(mux_scale={"a": 1.0, "b": 0.25}),
        )
        assert v.value == 0.25
        assert v.quality == "degraded"

    def test_instr_share_zero_total(self):
        v = evaluate(
            "instr_share",
            MeasurementBundle(instructions_by_pmu={"adl_glc": 0.0, "adl_grt": 0.0}),
        )
        assert v.value == 0.0
        assert v.per_key == {"adl_glc": 0.0, "adl_grt": 0.0}

    def test_evaluate_all_covers_every_group(self):
        out = evaluate_all(MeasurementBundle())
        assert set(out) == {
            "ipc",
            "gflops",
            "energy_per_flop",
            "freq_residency",
            "mux_quality",
            "instr_share",
            "papi_op_cost",
        }
        # An empty bundle satisfies no group's requirements.
        assert all(v.quality == "missing" for v in out.values())


# -- derived-group consumers: pinned experiment outputs --------------------


OVERHEAD_TABLE = """\
EventSet                groups  start syscalls  read syscalls  stop syscalls  read sysc/group  read instr cost
----------------------  ------  --------------  -------------  -------------  ---------------  ---------------
1 PMU, 2 events         1       2               1              2              1.0              3400
2 PMUs, 2 events        2       4               2              4              1.0              6800
2 PMUs, 4 events        2       4               2              4              1.0              6800
2 PMUs + uncore + RAPL  4       8               4              8              1.0              12800
  rdpmc on matching core: valid=True (value 2000000); on foreign core: valid=False"""

RAPL_TABLE = """\
  baseline (unmonitored): runtime 2.045 ms, energy 0.0500 J
reads  reads/s  runtime ms  runtime vs base  energy J  energy vs base  PAPI energy J  overhead instr
-----  -------  ----------  ---------------  --------  --------------  -------------  --------------
0      0        2.053       +0.388%          0.0502    +0.283%         0.0485         64800
10     4853     2.060       +0.748%          0.0503    +0.544%         0.0485         124800
100    47024    2.127       +3.984%          0.0522    +4.354%         0.0510         664800
1000   358637   2.788       +36.342%         0.0684    +36.633%        0.0661         6064800"""


class TestOverheadDerived:
    @pytest.fixture(scope="class")
    def result(self, quick_results):
        return quick_results.overhead

    def test_table_output_pinned(self, result):
        assert overhead.render(result) == OVERHEAD_TABLE

    def test_all_shapes_hold(self, result):
        assert all(overhead.shape_holds(result).values())

    def test_derived_group_per_config(self, result):
        for label in result.costs:
            v = result.derived[label]
            assert v.group == "papi_op_cost"
            assert result.syscalls_per_group(label, "read") == 1.0
            assert result.syscalls_per_group(label, "start") == 2.0


class TestRaplOverheadDerived:
    @pytest.fixture(scope="class")
    def result(self, quick_results):
        return quick_results.rapl_overhead

    def test_table_output_pinned(self, result):
        assert rapl_overhead.render(result) == RAPL_TABLE

    def test_all_shapes_hold(self, result):
        assert all(rapl_overhead.shape_holds(result).values())

    def test_perturbation_grows_with_read_rate(self, result):
        inflations = [r.runtime_inflation_pct for r in result.rows]
        assert inflations == sorted(inflations)
        assert inflations[-1] > 10 * inflations[0]


class TestHybridEventsetDerived:
    def test_pinned_runs_attribute_all_instructions_to_one_pmu(self):
        p = hybrid_eventset.run_hybrid_test(
            mode="hybrid", pin="P-core", reps=20, seed=7
        )
        e = hybrid_eventset.run_hybrid_test(
            mode="hybrid", pin="E-core", reps=20, seed=7
        )
        assert p.summary_line() == (
            "[hybrid, pin=P-core] Average instructions "
            "adl_glc: 1012440 adl_grt: 0 (sum 1012440)"
        )
        assert e.summary_line() == (
            "[hybrid, pin=E-core] Average instructions "
            "adl_glc: 0 adl_grt: 1012440 (sum 1012440)"
        )

    def test_instr_share_is_a_derived_group(self):
        r = hybrid_eventset.run_hybrid_test(
            mode="hybrid", pin="P-core", reps=10, seed=7
        )
        share = r.instr_share()
        assert share.group == "instr_share"
        assert share.per_key["adl_glc"] == 1.0
        assert share.per_key["adl_grt"] == 0.0
        assert r.avg_total == share.value
