"""Append-only journal: the sweep's crash-safe source of truth.

Every run transition is one JSON line appended to ``journal.jsonl`` and
fsync'd before the supervisor acts on it, so a SIGKILL at any instant
loses at most a torn final line.  Replaying the journal reconstructs
the exact pending/in-flight/done sets; ``manifest.json`` is only a
human-readable view materialized at start and at exit.

Appends are batched: :meth:`Journal.append_many` writes a whole
admission batch with a *single* flush+fsync, so admitting 10^4 specs
costs one fsync, not 10^4.  The supervisor enqueues a batch only after
that fsync, so every admitted run is replayable.

Recovery rules (exercised by ``tests/test_supervisor_journal.py``):

* a torn (half-written) **last** line is expected crash debris and is
  dropped with a note;
* a torn line **followed by more events** means real corruption →
  :class:`JournalError`;
* a header version this code does not speak → :class:`JournalError`
  (version 1 journals, which could carry ``cancel`` events and
  state-bearing ``add`` events, are refused, not converted);
* an event naming a run that was never added → :class:`JournalError`
  (never a silent skip);
* a field of a known event that replay does not read is ignored, so a
  version 2 journal written before a field was retired still replays.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional

from repro.supervisor.manifest import (
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    RunRecord,
)

JOURNAL_VERSION = 2

#: Event types the replay understands.  Anything else is corruption.
EVENT_TYPES = (
    "header",
    "add",
    "requeue",
    "launch",
    "exit",
    "retry",
    "done",
    "failed",
    "preempted",
    "drain",
    "complete",
    "metrics",
)


class JournalError(RuntimeError):
    """The journal cannot be trusted: wrong version, corruption mid-file,
    or events referencing runs that were never added."""


@dataclass
class JournalState:
    """What a replay reconstructs."""

    meta: dict = field(default_factory=dict)
    records: dict[str, RunRecord] = field(default_factory=dict)
    #: True when the final line was torn (dropped as crash debris).
    torn_tail: bool = False
    #: Number of events applied (excluding the header).
    events: int = 0
    #: Byte length of the intact prefix; pass to
    #: :meth:`Journal.open_append` so new events are written after the
    #: last good line, never after crash debris.
    valid_bytes: int = 0


class Journal:
    """Writer half: append events durably, one fsync per transition
    (or per *batch* via :meth:`append_many`)."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[IO[str]] = None

    # -- lifecycle -----------------------------------------------------------

    def open_fresh(self, meta: Optional[dict] = None) -> None:
        """Truncate and write the version header."""
        os.makedirs(os.path.dirname(os.path.abspath(self.path)) or ".", exist_ok=True)
        self._fh = open(self.path, "w")
        self.append({"type": "header", "version": JOURNAL_VERSION, "meta": meta or {}})

    def open_append(self, truncate_to: Optional[int] = None) -> None:
        """Continue an existing journal (validate it via :func:`replay`
        first; the writer itself does not re-read).  ``truncate_to``
        (from :attr:`JournalState.valid_bytes`) chops a torn final line
        so the next append lands after the last *good* event."""
        if truncate_to is not None:
            with open(self.path, "rb+") as fh:
                fh.truncate(truncate_to)
        self._fh = open(self.path, "a")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- writing -------------------------------------------------------------

    def append(self, event: dict) -> None:
        """Durably append one event: write, flush, fsync.

        The fsync *before returning* is the crash-safety contract: once
        the supervisor acts on a transition, the journal already holds
        it, so replay can never see less than the supervisor did.
        """
        self.append_many((event,))

    def append_many(self, events: Iterable[dict]) -> int:
        """Durably append a batch of events with ONE flush+fsync.

        This is the amortized-admission path: the per-event cost is a
        buffered ``write``; the fsync happens once for the whole batch.
        Returns the number of events written.
        """
        if self._fh is None:
            raise JournalError(f"journal {self.path} is not open")
        written = 0
        for event in events:
            self._fh.write(json.dumps(event, sort_keys=True) + "\n")
            written += 1
        if not written:
            return 0
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return written

    # -- replay --------------------------------------------------------------

    @staticmethod
    def replay(path: str) -> JournalState:
        """Fold the journal back into per-run state.  See the module
        docstring for the torn-line/corruption rules."""
        with open(path, "rb") as fh:
            raw = fh.read()
        raw_lines = raw.split(b"\n")
        if raw_lines and raw_lines[-1] == b"":
            raw_lines.pop()  # trailing newline, not a line
        if not raw_lines:
            raise JournalError(f"journal {path} is empty (no header)")

        events: list[dict] = []
        torn_tail = False
        valid_bytes = 0
        for i, line in enumerate(raw_lines):
            if not line.strip():
                valid_bytes += len(line) + 1
                continue
            try:
                events.append(json.loads(line))
            except (json.JSONDecodeError, UnicodeDecodeError):
                if i == len(raw_lines) - 1:
                    # Crash debris: the writer died mid-append.  The
                    # fsync contract means nothing after it was acted
                    # on, so dropping it is a clean resume.
                    torn_tail = True
                    break
                raise JournalError(
                    f"journal {path} is corrupt: undecodable line {i + 1} "
                    "is not the last line"
                ) from None
            valid_bytes += len(line) + 1
        valid_bytes = min(valid_bytes, len(raw))

        if not events:
            raise JournalError(f"journal {path} has no intact header line")
        header = events[0]
        if header.get("type") != "header":
            raise JournalError(f"journal {path} does not start with a header")
        version = header.get("version")
        if version != JOURNAL_VERSION:
            raise JournalError(
                f"journal {path} has version {version}, "
                f"this supervisor speaks version {JOURNAL_VERSION}"
            )

        state = JournalState(
            meta=header.get("meta", {}),
            torn_tail=torn_tail,
            valid_bytes=valid_bytes,
        )
        for event in events[1:]:
            Journal._apply(path, state, event)
            state.events += 1
        return state

    @staticmethod
    def _apply(path: str, state: JournalState, event: dict) -> None:
        etype = event.get("type")
        if etype not in EVENT_TYPES:
            raise JournalError(
                f"journal {path} has unknown event type {etype!r}"
            )
        if etype in ("drain", "complete", "metrics", "header"):
            return

        run_id = event.get("run_id")
        if etype == "add":
            if run_id in state.records:
                raise JournalError(
                    f"journal {path} adds run {run_id!r} twice"
                )
            state.records[run_id] = RunRecord(
                run_id=run_id, kind=event["kind"], params=event.get("params", {})
            )
            return

        record = state.records.get(run_id)
        if record is None:
            raise JournalError(
                f"journal {path} references unknown run {run_id!r} "
                f"in a {etype!r} event (never added)"
            )

        if etype == "requeue":
            record.status = PENDING
            record.attempts = int(event.get("attempts", 0))
            record.last_pid = None
        elif etype == "launch":
            record.status = RUNNING
            record.attempts = int(event["attempt"])
            record.last_pid = event.get("pid")
            record.checkpoint_path = event.get("resume_from")
        elif etype == "exit":
            record.last_error = event.get("error")
            record.stuck = (event.get("error") or {}).get("stuck", [])
            record.last_pid = None
            if event.get("checkpoint_path"):
                record.checkpoint_path = event["checkpoint_path"]
        elif etype == "retry":
            record.status = PENDING
        elif etype == "preempted":
            record.status = PENDING
            record.last_pid = None
            if "attempt" in event:
                # Preemption refunds the attempt (the pool decrements);
                # replay must agree or a resumed run would over-count.
                record.attempts = int(event["attempt"]) - 1
            if event.get("checkpoint_path"):
                record.checkpoint_path = event["checkpoint_path"]
        elif etype == "done":
            record.status = DONE
            record.result_path = event.get("result_path")
            record.cached = bool(event.get("cached", False))
            record.last_error = None
            record.last_pid = None
        elif etype == "failed":
            record.status = FAILED
            record.last_pid = None
            if event.get("error"):
                record.last_error = event["error"]
