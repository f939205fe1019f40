"""Versioned, digest-stamped snapshot files.

Layout of a ``.ckpt`` file::

    REPRO-SNAPSHOT\\n               magic
    {header json}\\n                 version, python tag, payload digest,
                                    caller metadata
    <zlib-compressed payload>       SnapshotPickler bytes

The header is plain JSON on the second line so ``tools``/humans can
inspect a snapshot (``python -m repro.checkpoint describe x.ckpt``)
without unpickling anything.  The payload SHA-256 in the header is
verified on load — a truncated or bit-rotted snapshot fails loudly with
:class:`SnapshotIntegrityError` instead of resurrecting a corrupt
machine.  Writes are atomic (temp file + ``os.replace``) so a crash
mid-checkpoint can never destroy the previous checkpoint.

Compatibility boundary: snapshots embed marshalled code objects for
workload closures, so they are tied to the CPython feature version that
wrote them; the header records it and a mismatch raises
:class:`SnapshotVersionError` (permanent, not retryable).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import zlib
from typing import Any, Optional

from repro.checkpoint import pickler
from repro.checkpoint.digest import DIGEST_ALGO

MAGIC = b"REPRO-SNAPSHOT\n"
SNAPSHOT_VERSION = 4


class SnapshotError(RuntimeError):
    """Base class for snapshot load/save failures."""


class SnapshotVersionError(SnapshotError):
    """Snapshot written by an incompatible format or Python version."""


class SnapshotIntegrityError(SnapshotError):
    """Snapshot payload does not match its header digest."""


def _python_tag() -> str:
    return f"cpython-{sys.version_info.major}.{sys.version_info.minor}"


def save_object(obj: Any, path: str, meta: Optional[dict] = None) -> dict:
    """Serialize ``obj`` to ``path``.

    Returns the written header dict.  The write is atomic.
    """
    payload = zlib.compress(pickler.dumps(obj), level=6)
    header = {
        "version": SNAPSHOT_VERSION,
        "python": _python_tag(),
        "digest_algo": DIGEST_ALGO,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "meta": meta or {},
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return header


def read_header(path: str) -> dict:
    """Parse and validate a snapshot's header without loading the payload."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise SnapshotError(f"{path}: not a repro snapshot (bad magic)")
        header_line = fh.readline()
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header") from exc
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"{path}: snapshot version {header.get('version')} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    if header.get("python") != _python_tag():
        raise SnapshotVersionError(
            f"{path}: written by {header.get('python')}, "
            f"this interpreter is {_python_tag()} "
            "(snapshots embed bytecode and do not cross feature versions)"
        )
    return header


def load_object(path: str) -> Any:
    """Load a snapshot, verifying integrity and version.  Loading
    touches nothing outside the returned object graph, so any number of
    snapshots may be restored side by side in one process."""
    header = read_header(path)
    with open(path, "rb") as fh:
        fh.read(len(MAGIC))
        fh.readline()
        payload = fh.read()
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise SnapshotIntegrityError(
            f"{path}: payload digest mismatch (truncated or corrupt snapshot)"
        )
    return pickler.loads(zlib.decompress(payload))
