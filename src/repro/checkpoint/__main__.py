"""Inspect and exercise snapshots from the command line.

::

    python -m repro.checkpoint describe ckpt.snap   # header, no unpickling
    python -m repro.checkpoint digest ckpt.snap     # load + state digest
    python -m repro.checkpoint run ckpt.snap        # load a System snapshot,
                                                    # run to completion, print
                                                    # the final digest

``describe`` only reads the header line — safe on snapshots from other
Python versions.  ``digest`` and ``run`` fully restore the payload;
``run`` is what the restore-equivalence tests drive.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.checkpoint.digest import state_digest
from repro.checkpoint.snapshot import load_object, read_header


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.checkpoint")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("describe", "digest", "run"):
        p = sub.add_parser(name)
        p.add_argument("path")
    sub.choices["run"].add_argument(
        "--max-s", type=float, default=36_000.0, help="sim-time budget"
    )
    args = parser.parse_args(argv)

    if args.command == "describe":
        print(json.dumps(read_header(args.path), indent=2, sort_keys=True))
        return 0

    obj = load_object(args.path)
    if args.command == "digest":
        print(state_digest(obj))
        return 0

    # run: accept either a bare System or a composite payload holding one.
    system = obj if not isinstance(obj, dict) else obj.get("system")
    if system is None or not hasattr(system, "machine"):
        print(f"{args.path}: no System in snapshot payload", file=sys.stderr)
        return 2
    system.machine.run_until_done(system.machine.threads, max_s=args.max_s, strict=True)
    print(state_digest(obj))
    return 0


if __name__ == "__main__":
    sys.exit(main())
