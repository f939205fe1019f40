"""End-to-end benchmark of the simulator: five workloads, host-time metrics.

Every rep of every workload runs in a fresh child process (rep.py), one
at a time.  The command prints every metric by name with its unit,
checks outputs (workload checks plus an output fingerprint), writes a
results JSON, and ends with a one-line JSON summary.  README.md has the
metric table, the bounds and the fingerprint policy.

    PYTHONPATH=src python benchmarks/e2e/run.py --reps 5 --traced
    python benchmarks/e2e/run.py --workload papi-read --seed 3 --seconds 20
    python benchmarks/e2e/run.py --compare old.json new.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"

WORKLOADS = (
    "reproduce-quick",
    "validate-scorecard",
    "papi-read",
    "papi-lifecycle",
    "sweep-fleet",
)

#: End-to-end metrics: name -> (unit, better, relative bound, absolute
#: bound).  A median may worsen by max(relative x base, absolute).
E2E = {
    "wall_s": ("s", "lower", 0.10, 0.0),
    "setup_s": ("s", "lower", 0.10, 0.05),
    "peak_rss_mib": ("MiB", "lower", 0.10, 0.0),
    "sim_instr_per_s": ("instr/s", "higher", 0.10, 0.0),
    "papi_op_us_p50": ("us", "lower", 0.10, 5.0),
    "papi_op_us_p99": ("us", "lower", 0.10, 5.0),
    "fail_ratio": ("ratio", "lower", 0.0, 0.0),
}

EXPERIMENTS = (
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4",
    "hybrid_eventset", "overhead", "rapl_overhead", "energy_efficiency",
)

#: Per-layer metrics: name -> (unit, better).  Times are shares of the
#: rep's wall time (self time unless named otherwise), so a layer a
#: workload never enters reads 0.
PER_LAYER = {
    "sim.ticks": ("count", "lower"),
    "sim.ticks_full": ("count", "lower"),
    "sim.replay_ratio": ("ratio", "higher"),
    "sim.ticks_per_host_s": ("1/s", "higher"),
    "sim.tick_self_share": ("ratio", "lower"),
    "sim.replay_self_share": ("ratio", "lower"),
    "sim.account_calls": ("count", "lower"),
    "sim.account_share": ("ratio", "lower"),
    "sched.schedule_calls": ("count", "lower"),
    "sched.schedule_share": ("ratio", "lower"),
    "sched.cache_hit_ratio": ("ratio", "higher"),
    "hw.power_calls": ("count", "lower"),
    "hw.power_share": ("ratio", "lower"),
    "hw.recurrence_calls": ("count", "lower"),
    "hw.rapl_share": ("ratio", "lower"),
    "hw.thermal_share": ("ratio", "lower"),
    "hw.dvfs_share": ("ratio", "lower"),
    "perf.syscalls": ("count", "lower"),
    "perf.syscall_share": ("ratio", "lower"),
    "perf.syscall_errors": ("count", "lower"),
    "perf.hook_calls": ("count", "lower"),
    "perf.hook_share": ("ratio", "lower"),
    "papi.calls": ("count", "lower"),
    "papi.self_share": ("ratio", "lower"),
    "papi.errors": ("count", "lower"),
    "pfmlib.calls": ("count", "lower"),
    "pfmlib.share": ("ratio", "lower"),
    "hpl.runs": ("count", "lower"),
    "hpl.self_share": ("ratio", "lower"),
    **{f"exp.{name}_share": ("ratio", "lower") for name in EXPERIMENTS},
    "validate.rows": ("count", "higher"),
    "validate.broken": ("count", "lower"),
    "validate.self_share": ("ratio", "lower"),
    "supervisor.launches": ("count", "lower"),
    "supervisor.cache_hits": ("count", "higher"),
    "supervisor.retries": ("count", "lower"),
    "supervisor.slot_util": ("ratio", "higher"),
    "supervisor.journal_appends": ("count", "lower"),
    "supervisor.journal_share": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

#: Extra set-up-only children per workload run, for more setup_s samples.
SETUP_PROBES = 3
#: A rep that has not finished by then is killed and counted as failed.
REP_TIMEOUT_S = 100.0


# -- running reps ----------------------------------------------------------


def spawn_rep(workload: str, seed: int, smoke: bool, traced: bool = False,
              setup_only: bool = False) -> Optional[dict]:
    """Run one rep in a fresh interpreter; None if it crashed."""
    OUT.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(OUT / "work")]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--traced", "--trace-json", str(OUT / f"trace-{workload}.json")]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[e2e] {workload}: rep timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"[e2e] {workload}: rep failed (exit {proc.returncode})\n"
              f"{proc.stderr[-3000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def _rep_metrics(rep: dict) -> dict[str, float]:
    out = {
        "wall_s": rep["wall_s"],
        "peak_rss_mib": rep["peak_rss_mib"],
        "sim_instr_per_s": rep["sim_instructions"] / rep["wall_s"],
        "fail_ratio": rep["failed"] / max(1, rep["attempted"]),
    }
    if rep["papi_op_us"]:
        out["papi_op_us_p50"], out["papi_op_us_p99"], _ = rep["papi_op_us"]
    return out


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric that the reps give."""
    med = statistics.median
    counts = untraced[0]["counts"]
    wall = med(r["wall_s"] for r in untraced)
    ticks, full = counts["sim.ticks"], counts["sim.ticks_full"]
    m = {
        "sim.ticks": ticks,
        "sim.ticks_full": full,
        "sim.replay_ratio": 1 - full / ticks if ticks else 0.0,
        "sim.ticks_per_host_s": ticks / wall,
        "validate.rows": counts.get("validate.rows", 0),
        "validate.broken": counts.get("validate.broken", 0),
        "supervisor.launches": counts.get("supervisor.launches", 0),
        "supervisor.cache_hits": counts.get("supervisor.cache_hits", 0),
        "supervisor.retries": counts.get("supervisor.retries", 0),
        "supervisor.slot_util": med(
            r["host_s"].get("worker_busy_per_slot", 0.0) / r["wall_s"] for r in untraced
        ),
    }
    for name in EXPERIMENTS:
        m[f"exp.{name}_share"] = med(
            r["host_s"].get(name, 0.0) / r["wall_s"] for r in untraced
        )
    if not traced:
        return {name: m[name] for name in PER_LAYER if name in m}

    def calls(*keys: str) -> float:
        return med(sum(r["layers"].get(k, [0] * 4)[0] for k in keys) for r in traced)

    def share(*keys: str) -> float:
        return med(
            sum(r["layers"].get(k, [0] * 4)[2] for k in keys) / 1e9 / r["wall_s"]
            for r in traced
        )

    def errors(key: str) -> float:
        return med(r["layers"].get(key, [0] * 4)[3] for r in traced)

    full_calls = calls("sim.tick")
    traced_wall = med(r["wall_s"] for r in traced)
    m.update({
        "sim.tick_self_share": share("sim.tick"),
        "sim.replay_self_share": share("sim.run"),
        "sim.account_calls": calls("sim.account"),
        "sim.account_share": share("sim.account"),
        "sched.schedule_calls": calls("sched.schedule"),
        "sched.schedule_share": share("sched.schedule"),
        "sched.cache_hit_ratio": (
            1 - calls("sched.schedule") / full_calls if full_calls else 0.0
        ),
        "hw.power_calls": calls("hw.power"),
        "hw.power_share": share("hw.power"),
        "hw.recurrence_calls": calls("hw.rapl", "hw.thermal", "hw.dvfs"),
        "hw.rapl_share": share("hw.rapl"),
        "hw.thermal_share": share("hw.thermal"),
        "hw.dvfs_share": share("hw.dvfs"),
        "perf.syscalls": calls("perf.syscall"),
        "perf.syscall_share": share("perf.syscall"),
        "perf.syscall_errors": errors("perf.syscall"),
        "perf.hook_calls": calls("perf.hook"),
        "perf.hook_share": share("perf.hook"),
        "papi.calls": calls("papi"),
        "papi.self_share": share("papi"),
        "papi.errors": errors("papi"),
        "pfmlib.calls": calls("pfmlib"),
        "pfmlib.share": share("pfmlib"),
        "hpl.runs": calls("hpl.start"),
        "hpl.self_share": share("hpl.run", "hpl.start"),
        "validate.self_share": share("validate"),
        "supervisor.journal_appends": calls("supervisor.journal"),
        "supervisor.journal_share": share("supervisor.journal"),
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / wall - 1,
    })
    return {name: m[name] for name in PER_LAYER}


def _until(min_reps: int, seconds: float, start: float, **rep_args) -> list[Optional[dict]]:
    reps: list[Optional[dict]] = []
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        reps.append(spawn_rep(**rep_args))
    return reps


def measure(workload: str, seed: int, smoke: bool, reps: int, seconds: float,
            traced: bool, recorded: Optional[str]) -> dict:
    """All reps of one workload, aggregated; see README.md."""
    rep_args = {"workload": workload, "seed": seed, "smoke": smoke}
    probes = [spawn_rep(setup_only=True, **rep_args) for _ in range(SETUP_PROBES)]
    start = time.monotonic()
    untraced_all = _until(reps, seconds / 2 if traced else seconds, start, **rep_args)
    traced_all = _until(1, seconds, start, traced=True, **rep_args) if traced else []
    all_reps = probes + untraced_all + traced_all
    untraced = [r for r in untraced_all if r is not None]
    traced_ok = [r for r in traced_all if r is not None]

    attempted = sum(r["attempted"] for r in untraced + traced_ok) + all_reps.count(None)
    failed = sum(r["failed"] for r in untraced + traced_ok) + all_reps.count(None)
    failures = [f for r in untraced + traced_ok for f in r["failures"]][:10]

    def check(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)

    result: dict = {"seed": seed, "smoke": smoke, "reps": len(untraced),
                    "traced_reps": len(traced_ok)}
    if untraced:
        fingerprint = untraced[0]["fingerprint"]
        for r in untraced[1:] + traced_ok:
            check(r["fingerprint"] == fingerprint, "fingerprint differs between reps")
        if recorded is not None:
            check(fingerprint == recorded, f"fingerprint {fingerprint[:12]} != recorded "
                                           f"{recorded[:12]}")
        full = untraced[0]["counts"]["sim.ticks_full"]
        for r in traced_ok:
            check(r["counts"]["sim.ticks_full"] == full,
                  "tracing changed the number of full ticks")
        per_rep = [_rep_metrics(r) for r in untraced]
        samples = {name: [m[name] for m in per_rep if name in m] for name in E2E}
        samples["setup_s"] = [r["setup_s"] for r in probes + untraced_all if r]
        e2e = {name: _summary(values) for name, values in samples.items() if values}
        layers = per_layer(untraced, traced_ok)
        result.update(fingerprint=fingerprint, counts=untraced[0]["counts"], e2e=e2e,
                      per_layer=layers)
        if traced_ok:
            result["fingerprint_traced"] = traced_ok[0]["fingerprint"]
            # layer -> [calls, total ns, self ns, errors] of the first traced rep
            result["layer_accumulators"] = traced_ok[0]["layers"]
            result["tracing_overhead"] = layers["trace.overhead"]
            result["trace_json"] = str((OUT / f"trace-{workload}.json").relative_to(ROOT))
    result.update(fingerprint_recorded=recorded, attempted=max(1, attempted),
                  failed=failed if untraced else max(1, failed), failures=failures)
    return result


# -- reporting -------------------------------------------------------------


def provenance(args) -> dict:
    import numpy
    from repro.hw.machines import MACHINE_PRESETS
    from repro.sim.engine import Machine

    commit = dirty = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    except OSError:
        pass
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "default_engine": Machine(MACHINE_PRESETS["xeon-homogeneous"]()).engine,
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def print_workload(name: str, res: dict) -> None:
    print(f"== {name}  seed={res['seed']}  reps={res['reps']}"
          f"{'  +' + str(res['traced_reps']) + ' traced' if res['traced_reps'] else ''}"
          f"{'  (smoke)' if res['smoke'] else ''}")
    for metric, s in res.get("e2e", {}).items():
        print(f"  {metric:24s} {s['median']:<14.6g} {E2E[metric][0]:8s}"
              f" q1..q3 {s['q1']:.6g}..{s['q3']:.6g}")
    recorded = res["fingerprint_recorded"]
    verdict = ("no recorded value" if recorded is None
               else "matches recorded" if recorded == res.get("fingerprint")
               else "DIFFERS from recorded")
    print(f"  checks: {res['attempted']} attempted, {res['failed']} failed")
    for what in res["failures"]:
        print(f"    FAILED: {what}")
    print(f"  fingerprint: {res.get('fingerprint')} ({verdict})")
    if res["traced_reps"]:
        print(f"  per-layer (tracing overhead {res['tracing_overhead']:+.1%}, "
              f"trace: {res['trace_json']}):")
        for metric, value in res["per_layer"].items():
            print(f"    {metric:30s} {value:<14.6g} {PER_LAYER[metric][0]}")


def summary_line(results: dict, trace: bool) -> dict:
    """The one-line summary: every end-to-end (or, traced, per-layer)
    metric named in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = PER_LAYER if trace else E2E
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for workload, res in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        values = res.get("per_layer" if trace else "e2e", {})
        for name in names:
            if name in values:
                value = values[name] if trace else values[name]["median"]
                metrics[prefix + name] = {"value": value, "unit": table[name][0]}
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


# -- compare ---------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Per (metric, workload): better / same / worse / unresolved."""
    a_all = json.loads(Path(path_a).read_text())["workloads"]
    b_all = json.loads(Path(path_b).read_text())["workloads"]
    bad = False
    for workload in [w for w in a_all if w in b_all]:
        a, b = a_all[workload], b_all[workload]
        for metric, (unit, better, rel, floor) in E2E.items():
            sa, sb = a.get("e2e", {}).get(metric), b.get("e2e", {}).get(metric)
            if sa is None or sb is None:
                continue
            bound = max(rel * sa["median"], floor)
            delta = sb["median"] - sa["median"]
            if better == "higher":
                delta = -delta
            if sa["values"] == sb["values"]:
                verdict = "same"
            elif max(sa["q3"] - sa["q1"], sb["q3"] - sb["q1"]) > bound:
                verdict = "unresolved"
            elif delta > bound:
                verdict = "worse"
            elif delta < -bound:
                verdict = "better"
            else:
                verdict = "same"
            bad |= verdict == "worse"
            print(f"{workload:20s} {metric:24s} {verdict:10s} "
                  f"{sa['median']:.6g} -> {sb['median']:.6g} {unit} (bound {bound:.3g})")
        for key in sorted(set(a.get("counts", {})) | set(b.get("counts", {}))):
            ca, cb = a.get("counts", {}).get(key), b.get("counts", {}).get(key)
            print(f"{workload:20s} {key:24s} {'same' if ca == cb else 'differs':10s} "
                  f"{ca} -> {cb} count")
        same_fp = a.get("fingerprint") == b.get("fingerprint")
        bad |= not same_fp
        print(f"{workload:20s} {'fingerprint':24s} {'same' if same_fp else 'differs':10s}")
    return 1 if bad else 0


# -- main ------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                   action="extend", choices=WORKLOADS, help="default: all five")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=None,
                   help="untraced reps per workload (default 5, or 1 with --seconds)")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep starting reps until this much time was measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: add traced reps and summarise per-layer metrics")
    p.add_argument("--traced", dest="trace", action="store_const", const=1)
    p.add_argument("--smoke", action="store_true", help="reduced sizes")
    p.add_argument("--out", type=Path, default=OUT / "results.json")
    p.add_argument("--record", action="store_true",
                   help="store this run's fingerprints as the recorded ones")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"[e2e] no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.reps is None:
        args.reps = 1 if args.seconds else 5

    mode = "smoke" if args.smoke else "full"
    recorded_all = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    recorded = recorded_all.setdefault(mode, {})
    results = {}
    for workload in args.workloads or WORKLOADS:
        expected = None if args.record else recorded.get(workload, {}).get(str(args.seed))
        res = measure(workload, args.seed, args.smoke, args.reps, args.seconds,
                      bool(args.trace), expected)
        print_workload(workload, res)
        results[workload] = res
        if args.record and "fingerprint" in res:
            recorded.setdefault(workload, {})[str(args.seed)] = res["fingerprint"]
    if args.record:
        FINGERPRINTS.write_text(json.dumps(recorded_all, indent=2, sort_keys=True) + "\n")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"provenance": provenance(args), "workloads": results}, indent=2) + "\n")
    print(f"[e2e] results: {args.out}")
    summary = summary_line(results, bool(args.trace))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
