"""The five end-to-end workloads.

Each workload is a closed loop of one batch job of fixed size.  Its
constructor is the set-up (System/program construction, untimed apart
from ``setup_s``); :meth:`run` is the timed region; :meth:`finish` runs
after timing and feeds the checks and the output fingerprint;
:meth:`close` releases what set-up acquired.  README.md says why each
workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import struct
import tempfile
import time
from typing import Callable, Optional

from repro.experiments import overhead, rapl_overhead, table1_hw
from repro.experiments.common import raptor_system
from repro.hw.machines import MACHINE_PRESETS
from repro.papi import Papi, PapiError
from repro.papi.consts import PAPI_OK
from repro.sim.task import ControlOp, Program, SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.supervisor.queue import RunSpec
from repro.supervisor.supervisor import Supervisor
from repro.system import System
from repro.tools import reproduce
from repro.validate.harness import _core_plans, run_validation

#: Instructions between two PAPI calls of the papi-* programs.
CHUNK_INSTR = 2e6
#: Scalar integer loop, as in the §IV-F hybrid EventSet test.
CHUNK_RATES = constant_rates(PhaseRates(ipc=2.0, branches_per_instr=0.1))
PAPI_MACHINE = "raptor-lake-i7-13700"
PAPI_THREADS = 8


class Checks:
    """Attempted/failed output checks of one rep."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


class Workload:
    """Interface of a workload; see the module docstring."""

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.checks = Checks()
        #: Deterministic work counts reported beside the timings.
        self.counts: dict[str, float] = {}
        #: Host-time measurements beside wall_s, name -> seconds.
        self.host_s: dict[str, float] = {}
        #: Host latency of each PAPI call the program issued, in ns.
        self.papi_ns: list[int] = []
        #: Simulated instructions, when not counted by the System probe.
        self.sim_instructions: Optional[float] = None

    def run(self) -> None:
        raise NotImplementedError

    def finish(self, fp: "hashlib._Hash") -> None:
        """Checks and workload-specific fingerprint input."""

    def close(self) -> None:
        pass


# -- reproduce-quick -------------------------------------------------------

#: run_all's progress messages -> experiment names of the exp.* splits.
EXPERIMENTS = (
    ("Table I /", "table1"),
    ("Table II (", "table2"),
    ("Table III (", "table3"),
    ("Figure 1 ", "fig1"),
    ("Figure 2 ", "fig2"),
    ("Figure 3 ", "fig3"),
    ("Figure 4 ", "fig4"),
    ("papi_hybrid", "hybrid_eventset"),
    ("§V-5", "overhead"),
    ("V2 RAPL", "rapl_overhead"),
    ("Energy efficiency", "energy_efficiency"),
)

_CLAIM = re.compile(r"(\w+)=(PASS|FAIL)")


def _experiment_name(message: str) -> str:
    for prefix, name in EXPERIMENTS:
        if message.startswith(prefix):
            return name
    return re.sub(r"\W+", "_", message).strip("_").lower()


class ReproduceQuick(Workload):
    """``repro-reproduce --quick``; the seed is ignored."""

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.report = ""
        self._current: Optional[str] = None
        self._since = 0.0

    def _log(self, message: str) -> None:
        """run_all's progress callback: each message starts an experiment."""
        self._close_split()
        self._current = _experiment_name(message)
        self._since = time.perf_counter()

    def _close_split(self) -> None:
        if self._current is not None:
            self.host_s[self._current] = time.perf_counter() - self._since
            self._current = None

    def run(self) -> None:
        if self.smoke:
            self.report = self._run_smoke()
        else:
            self.report, _ = reproduce.run_all(quick=True, log=self._log)
        self._close_split()

    def _run_smoke(self) -> str:
        """Three cheap experiments of run_all, in its report format."""
        self._log("Table I / Table IV (hardware config)...")
        body = [table1_hw.render(table1_hw.run_hw_config(raptor_system()))]
        for title, module, experiment in (
            ("§V-5 overhead ablation...", overhead, overhead.run_overhead),
            ("V2 RAPL monitoring-overhead sweep...", rapl_overhead,
             rapl_overhead.run_rapl_overhead),
        ):
            self._log(title)
            out = experiment()
            verdicts = module.shape_holds(out)
            body.append(module.render(out))
            body.append("Shape claims: " + ", ".join(
                f"{k}={'PASS' if v else 'FAIL'}" for k, v in verdicts.items()
            ))
        return "\n".join(body)

    def finish(self, fp):
        claims = [
            m
            for line in self.report.splitlines()
            if line.startswith("Shape claims:")
            for m in _CLAIM.finditer(line)
        ]
        for m in claims:
            self.checks.check(m.group(2) == "PASS", f"shape claim {m.group(1)} failed")
        self.checks.check(bool(claims), "the report holds no shape claims")
        fp.update(self.report.encode())


# -- validate-scorecard ----------------------------------------------------


class ValidateScorecard(Workload):
    """The validation scorecard on every preset for eight seeds."""

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.seeds = [seed] if smoke else list(range(seed, seed + 8))
        self.cards: list[dict] = []

    def run(self) -> None:
        for seed in self.seeds:
            for machine in sorted(MACHINE_PRESETS):
                self.cards.append(run_validation(machine, seed=seed).to_dict())

    def finish(self, fp):
        rows = broken = 0
        for card in self.cards:
            for row in card["rows"]:
                rows += 1
                ok = row["accuracy"] != "broken"
                broken += not ok
                self.checks.check(ok, f"{card['machine']} {row['event']} is broken")
            fp.update(json.dumps(card, sort_keys=True).encode())
        self.counts["validate.rows"] = rows
        self.counts["validate.broken"] = broken


# -- papi-read / papi-lifecycle ---------------------------------------------


class _PapiProgram(Workload):
    """Shared set-up of the two instrumented-application workloads:
    eight unpinned threads on a jittery Raptor Lake, each owning one
    multiplexed hybrid EventSet with every kernel-countable native event
    of both core PMUs twice (as the validation harness's mux run does)
    plus the RAPL package energy."""

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.system = System(
            PAPI_MACHINE,
            dt_s=1e-4,
            seed=seed,
            migrate_jitter=0.05,
            rebalance_jitter=0.05,
        )
        self.papi = Papi(self.system, mode="hybrid")
        natives = [
            name for plan in _core_plans(self.system, self.papi.pfm)
            for name, _ in plan.events
        ]
        self.events = [n for n in natives for _ in (0, 1)] + ["rapl::RAPL_ENERGY_PKG"]
        self.values = hashlib.sha256()
        self.threads: list[SimThread] = []

    def call(self, fn: Callable, *args, **kwargs):
        """One PAPI call of the program: timed, checked, and its returned
        values fed to the fingerprint in program order."""
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except PapiError as exc:
            self.papi_ns.append(time.perf_counter_ns() - t0)
            self.checks.check(False, f"{fn.__name__} raised {exc}")
            raise
        self.papi_ns.append(time.perf_counter_ns() - t0)
        self.checks.check(True, "")
        if isinstance(out, list):
            self.values.update(struct.pack(f"<{len(out)}d", *out))
        return out

    def check_status(self, esid: int) -> None:
        status = self.papi.last_status(esid)
        self.checks.check(status == PAPI_OK, f"EventSet {esid} left status {status}")

    def spawn(self, name: str, items: list) -> None:
        self.threads.append(self.system.machine.spawn(SimThread(name, Program(items))))

    def run(self) -> None:
        self.system.machine.run_until_done(self.threads, max_s=600.0, strict=True)

    def finish(self, fp):
        fp.update(self.values.digest())


class PapiRead(_PapiProgram):
    """Each thread reads its EventSet after every chunk."""

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        chunks = 100 if smoke else 300
        self.esids: list[int] = []
        for i in range(PAPI_THREADS):
            items: list = [ControlOp(self._op(i, self.papi.start), "papi-start")]
            for _ in range(chunks):
                items.append(ComputePhase(CHUNK_INSTR, CHUNK_RATES, label="chunk"))
                items.append(ControlOp(self._op(i, self.papi.read), "papi-read"))
            items.append(ControlOp(self._op(i, self.papi.stop), "papi-stop"))
            self.spawn(f"reader-{i}", items)
        for thread in self.threads:
            esid = self.papi.create_eventset()
            self.esids.append(esid)
            self.papi.attach(esid, thread)
            self.papi.set_multiplex(esid)
            self.papi.add_events(esid, self.events)

    def _op(self, i: int, fn: Callable) -> Callable[[SimThread], None]:
        def op(thread: SimThread) -> None:
            esid = self.esids[i]
            self.call(fn, esid, caller=thread)
            if fn.__name__ != "start":
                self.check_status(esid)

        return op

    def close(self) -> None:
        for esid in self.esids:
            if self.papi.eventset(esid).running:
                self.papi.stop(esid)
            self.papi.destroy_eventset(esid)
        self.esids = []


class PapiLifecycle(_PapiProgram):
    """Each cycle creates, attaches, fills, starts, stops, cleans up and
    destroys the thread's EventSet around one chunk."""

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        cycles = 20 if smoke else 50
        for i in range(PAPI_THREADS):
            items: list = []
            for _ in range(cycles):
                items.append(ControlOp(self._cycle, "papi-cycle-open"))
                items.append(ComputePhase(CHUNK_INSTR, CHUNK_RATES, label="chunk"))
                items.append(ControlOp(self._cycle, "papi-cycle-close"))
            self.spawn(f"cycler-{i}", items)
        #: The EventSet each thread has open between its two cycle ops.
        self.open: dict[int, int] = {}

    def _cycle(self, thread: SimThread) -> None:
        esid = self.open.get(thread.tid)
        if esid is None:
            esid = self.call(self.papi.create_eventset)
            self.open[thread.tid] = esid
            self.call(self.papi.attach, esid, thread)
            self.call(self.papi.set_multiplex, esid)
            for name in self.events:
                self.call(self.papi.add_event, esid, name, caller=thread)
            self.call(self.papi.start, esid, caller=thread)
            return
        self.call(self.papi.stop, esid, caller=thread)
        self.check_status(esid)
        self.call(self.papi.cleanup_eventset, esid, caller=thread)
        self.call(self.papi.destroy_eventset, esid, caller=thread)
        del self.open[thread.tid]

    def close(self) -> None:
        for esid in self.open.values():
            if self.papi.eventset(esid).running:
                self.papi.stop(esid)
            self.papi.destroy_eventset(esid)
        self.open = {}


# -- sweep-fleet -----------------------------------------------------------

FLEET_N = (800, 900, 1000, 1100, 1200, 1300, 1400, 1500)
FLEET_WORKERS = 2


class SweepFleet(Workload):
    """The 16-job ``fleet`` sweep preset through the Supervisor, cold; the
    seed shuffles submission order.  A warm pass into a new out dir
    against the filled cache runs after timing."""

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
        n_values = FLEET_N[:2] if smoke else FLEET_N
        self.specs = [
            RunSpec(
                f"hpl-{variant}-n{n}",
                "hpl",
                {
                    "machine": "raptor-lake-i7-13700",
                    "n": n,
                    "nb": 128,
                    "variant": variant,
                    "slice_s": 0.02,
                },
            )
            for variant in ("openblas", "intel")
            for n in n_values
        ]
        random.Random(seed).shuffle(self.specs)
        self.cold = self._supervisor("cold")

    def _supervisor(self, name: str) -> Supervisor:
        return Supervisor(
            os.path.join(self.root, name),
            workers=FLEET_WORKERS,
            cache_dir=os.path.join(self.root, "cache"),
            checkpoint_every_s=0.04,
            log=lambda message: None,
        )

    def run(self) -> None:
        self.cold_manifest = self.cold.run(self.specs)

    def _results(self, manifest) -> dict[str, dict]:
        out = {}
        for run_id, record in sorted(manifest.runs.items()):
            self.checks.check(record.status == "done", f"{run_id} ended {record.status}")
            if record.result_path is None:
                continue
            with open(record.result_path) as fh:
                out[run_id] = json.load(fh)
        return out

    def finish(self, fp):
        cold = self._results(self.cold_manifest)
        self.checks.check(len(cold) == len(self.specs), "a cold run has no result")
        warm_sup = self._supervisor("warm")
        warm = self._results(warm_sup.run(self.specs))
        cold_counters = self.cold.metrics.as_dict()["counters"]
        warm_counters = warm_sup.metrics.as_dict()["counters"]
        warm_launches = warm_counters.get("fleet.launch", 0)
        self.checks.check(warm_launches == 0, f"warm pass launched {warm_launches} workers")
        self.checks.check(warm == cold, "warm results differ from cold results")
        self.counts["supervisor.launches"] = cold_counters.get("fleet.launch", 0)
        self.counts["supervisor.retries"] = cold_counters.get("fleet.retry", 0)
        self.counts["supervisor.cache_hits"] = warm_counters.get("fleet.cache_hit", 0)
        # state_digest covers the snapshot surface, which may change
        # without changing what is simulated; it does not count.
        for run_id, result in cold.items():
            result.pop("state_digest", None)
            fp.update(json.dumps([run_id, result], sort_keys=True).encode())
        self.sim_instructions = sum(
            v for r in cold.values() for v in r["instructions"].values()
        )
        # Worker attempt wall time from outside: spec.json is written at
        # launch, result.json by the worker as it finishes.
        busy = 0.0
        for record in self.cold_manifest.runs.values():
            if record.result_path is not None:
                run_dir = os.path.dirname(record.result_path)
                busy += os.path.getmtime(record.result_path) - os.path.getmtime(
                    os.path.join(run_dir, "spec.json")
                )
        self.host_s["worker_busy_per_slot"] = busy / FLEET_WORKERS

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    "reproduce-quick": ReproduceQuick,
    "validate-scorecard": ValidateScorecard,
    "papi-read": PapiRead,
    "papi-lifecycle": PapiLifecycle,
    "sweep-fleet": SweepFleet,
}
