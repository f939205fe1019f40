"""Deterministic result cache: identical specs are free.

Every run kind is deterministic in simulation time — the same ``(kind,
params)`` against the same code produces a bit-identical ``result.json``
(that determinism is what the resume-equivalence CI gate proves).  So a
result can be reused whenever both inputs match:

* the **spec digest** — SHA-256 over the canonical JSON of ``{"kind",
  "params"}`` (``sort_keys``, no whitespace), so dict ordering and
  formatting cannot split the key space;
* the **code version** — SHA-256 over the sources of the ``repro``
  package (sorted relative path + content), so any code change — even a
  model constant — invalidates the whole cache rather than serving
  results the current code would not reproduce.

A hit copies the cached result into the run directory without launching
a worker; the journal records it as ``done`` with ``cached: true`` and
the pool's launch counter stays untouched — which is how the acceptance
test proves "zero subprocess launches" on resubmission.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from repro.supervisor.manifest import atomic_write_json

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of the ``repro`` package sources (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                h.update(rel.encode())
                h.update(b"\0")
                with open(os.path.join(dirpath, name), "rb") as fh:
                    h.update(fh.read())
                h.update(b"\0")
        _CODE_VERSION = h.hexdigest()
    return _CODE_VERSION


def spec_digest(kind: str, params: dict) -> str:
    """Canonical digest of one run spec (independent of run_id/attempt)."""
    blob = json.dumps(
        {"kind": kind, "params": params}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Content-addressed store of finished results under ``root``.

    Entries are keyed ``sha256(spec_digest + code_version)`` and written
    atomically, so concurrent supervisors sharing a cache directory can
    only ever race to write identical bytes.
    """

    def __init__(self, root: str, version: Optional[str] = None):
        self.root = root
        self.version = version or code_version()

    def key(self, kind: str, params: dict) -> str:
        h = hashlib.sha256()
        h.update(spec_digest(kind, params).encode())
        h.update(b":")
        h.update(self.version.encode())
        return h.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, kind: str, params: dict) -> Optional[dict]:
        """The cached result payload, or None on miss/corruption."""
        path = self._path(self.key(kind, params))
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError, ValueError):
            return None
        if entry.get("code_version") != self.version:
            return None
        return entry.get("result")

    def put(self, kind: str, params: dict, result: dict) -> str:
        """Store one result; returns the entry path."""
        path = self._path(self.key(kind, params))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_json(
            path,
            {
                "kind": kind,
                "params": params,
                "spec_digest": spec_digest(kind, params),
                "code_version": self.version,
                "result": result,
            },
        )
        return path
