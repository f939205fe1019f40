"""Deterministic checkpoint/restore of a running simulated system.

The contract: for any deterministic workload, *restore-then-run is
bit-identical to run-straight-through* — counters, sampler traces, HPL
results — on both the ``ticks`` and ``events`` engines, with or without
an active fault plan.  ``System.save(path)`` / ``System.restore(path)``
are the user-facing entry points; this package provides the machinery:

* :mod:`repro.checkpoint.pickler` — closure-capable serialization;
* :mod:`repro.checkpoint.surface` — per-layer snapshot-surface
  declarations (state vs. rebuildable cache);
* :mod:`repro.checkpoint.snapshot` — the versioned, digest-stamped,
  atomically-written file envelope;
* :mod:`repro.checkpoint.digest` — canonical deep hashing
  (``state_digest``) used by parity/identity tests and resume checks.
"""

from repro.checkpoint.digest import DIGEST_ALGO, state_digest
from repro.checkpoint.pickler import SnapshotPickler, SnapshotPicklingError
from repro.checkpoint.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotVersionError,
    load_object,
    read_header,
    save_object,
)
from repro.checkpoint.surface import SNAPSHOT_SURFACES, snapshot_surface

__all__ = [
    "DIGEST_ALGO",
    "SNAPSHOT_SURFACES",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "SnapshotIntegrityError",
    "SnapshotPickler",
    "SnapshotPicklingError",
    "SnapshotVersionError",
    "load_object",
    "read_header",
    "save_object",
    "snapshot_surface",
    "state_digest",
]
