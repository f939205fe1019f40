"""Shared experiment plumbing."""

from __future__ import annotations

from typing import Sequence

from repro.hpl.dat import HplConfig
from repro.system import System

#: The paper's full problem size is N = 57024.  Experiments default to a
#: reduced size that preserves every qualitative behaviour (the machine
#: reaches its thermal/power steady state well within the run) while
#: keeping simulation time reasonable; pass ``config=FULL_RAPTOR_CONFIG``
#: (or ``FULL_ORANGEPI_CONFIG``) to a run function for the paper's exact
#: parameters.
REDUCED_RAPTOR_CONFIG = HplConfig(n=34560, nb=192)
FULL_RAPTOR_CONFIG = HplConfig(n=57024, nb=192)

REDUCED_ORANGEPI_CONFIG = HplConfig(n=13056, nb=128)
FULL_ORANGEPI_CONFIG = HplConfig(n=20096, nb=128)


def raptor_system(dt_s: float = 0.02, seed: int = 0, **kw) -> System:
    return System("raptor-lake-i7-13700", dt_s=dt_s, seed=seed, **kw)


def orangepi_system(dt_s: float = 0.02, seed: int = 0, **kw) -> System:
    return System("orangepi-800", dt_s=dt_s, seed=seed, **kw)


def raptor_core_sets(system: System) -> dict[str, list[int]]:
    """The paper's three CPU selections, 1 thread per core."""
    topo = system.topology
    primary = topo.primary_threads()
    p = [c for c in primary if topo.core(c).ctype.name == "P-core"]
    e = [c for c in primary if topo.core(c).ctype.name == "E-core"]
    return {"E only": e, "P only": p, "P and E": p + e}


def orangepi_core_sets(system: System) -> dict[str, list[int]]:
    topo = system.topology
    big = topo.cpus_of_type("big")
    little = topo.cpus_of_type("LITTLE")
    return {"big x2": big, "little x4": little, "all x6": little + big}


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width ASCII table."""
    cols = [list(col) for col in zip(headers, *rows)]
    widths = [max(len(str(c)) for c in col) for col in cols]
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep, *(fmt(r) for r in rows)])


def pct_change(before: float, after: float) -> float:
    return (after / before - 1.0) * 100.0 if before else 0.0
