"""One rep of one workload, in a fresh process; run.py starts it.

Prints one JSON object as its last stdout line: set-up and wall time,
peak RSS, simulated instructions, PAPI call latencies, checks, the
output fingerprint, deterministic counts and (traced) layer
accumulators.  ``--setup-only`` stops after set-up, for extra
``setup_s`` samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE)]

import probes  # noqa: E402
import workloads  # noqa: E402


def _percentile(sorted_ns: list[int], q: float) -> float:
    return sorted_ns[min(len(sorted_ns) - 1, int(q * len(sorted_ns)))] / 1e3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent when it started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-json", help="where a traced rep writes its Chrome trace")
    args = p.parse_args(argv)

    probe = probes.Probe(traced=args.traced)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    out: dict = {"setup_s": setup_s}
    try:
        if not args.setup_only:
            t0 = time.perf_counter()
            wl.run()
            wall_s = time.perf_counter() - t0
            # The timed region ends here: what finish() does is not a layer cost.
            layers = {key: list(acc) for key, acc in probe.layers.items()}
            probe.add_span(args.workload, "workload", int(t0 * 1e9), int(wall_s * 1e9))
            fp = hashlib.sha256()
            wl.finish(fp)
            digests, ticks, instructions = probe.finish_systems()
            for digest in digests:
                fp.update(digest)
            if wl.sim_instructions is not None:
                instructions = wl.sim_instructions
            rss_kib = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            )
            lat = sorted(wl.papi_ns)
            out.update(
                wall_s=wall_s,
                peak_rss_mib=rss_kib / 1024,
                sim_instructions=instructions,
                papi_op_us=(
                    [_percentile(lat, 0.5), _percentile(lat, 0.99), len(lat)]
                    if lat else None
                ),
                attempted=wl.checks.attempted,
                failed=wl.checks.failed,
                failures=wl.checks.failures,
                fingerprint=fp.hexdigest(),
                counts={"sim.ticks": ticks, "sim.ticks_full": probe.ticks_full,
                        **wl.counts},
                host_s=wl.host_s,
                layers=layers,
            )
    finally:
        wl.close()
    if args.traced and args.trace_json:
        probe.write_trace(args.trace_json)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
