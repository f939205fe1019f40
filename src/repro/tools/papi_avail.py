"""``repro-papi-avail``: list presets and native events on a machine.

Combines PAPI's ``papi_avail`` (presets, with derivation info) and
``papi_native_avail`` (per-PMU native events).
"""

from __future__ import annotations

import argparse

from repro.hw.machines import MACHINE_PRESETS
from repro.papi import Papi
from repro.papi.consts import PRESETS, pmu_family
from repro.system import System


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro-papi-avail", description=__doc__)
    p.add_argument("--machine", default="raptor-lake-i7-13700",
                   choices=sorted(MACHINE_PRESETS))
    p.add_argument("--mode", default="hybrid", choices=["hybrid", "legacy"])
    p.add_argument("--native", action="store_true", help="list native events too")
    p.add_argument("--pmu", default=None, help="restrict native list to one PMU")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    system = System(args.machine)
    papi = Papi(system, mode=args.mode)

    defaults = papi.pfm.default_pmus()
    print(f"PAPI ({args.mode} mode) on {args.machine}")
    print(f"Core PMUs: {', '.join(t.name for t in defaults)}")
    print("\nPreset events:")
    print(f"  {'Name':14s} {'Avail':6s} {'Derived':12s} Native mapping")
    for name, spec in sorted(PRESETS.items()):
        if args.mode == "legacy" and len(defaults) > 1:
            print(f"  {name:14s} no     (multiple default PMUs)")
            continue
        if not papi.query_event(name):
            print(f"  {name:14s} no")
            continue
        natives = []
        for t in defaults:
            native = spec.get(pmu_family(t.name))
            if native and native.split(":")[0] in t:
                natives.append(f"{t.name}::{native}")
        derived = "DERIVED_ADD" if len(natives) > 1 else "NOT_DERIVED"
        print(f"  {name:14s} yes    {derived:12s} {' + '.join(natives)}")

    if args.native:
        print("\nNative events:")
        for full in papi.list_events(args.pmu):
            print(f"  {full}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
