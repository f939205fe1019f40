"""Durable admission: idempotent and batch-journaled.

Every run enters a sweep through :class:`AdmissionQueue.admit`, which
gives the supervisor its admission guarantees:

* **idempotent by spec digest** — the canonical digest of ``(kind,
  params)`` (see :func:`repro.supervisor.cache.spec_digest`) indexes
  every known run.  Resubmitting a spec that is already known — done,
  in flight or queued, under any run id — returns the *existing* run id
  with zero new work.
* **no silent conflicts** — a spec whose run id already names a
  *different* spec (say, a ``--resume`` with changed parameters) is
  rejected with a reason, never answered with the old run's result.
* **amortized durability** — one admission batch appends all of its
  journal events through a single :meth:`~repro.supervisor.journal.
  Journal.append_many` (one fsync per *batch*, not per run), which is
  what keeps 10^4-spec admission cheap.  The fsync lands before the
  batch is enqueued, so every admitted run is recoverable by replay.

A cache hit at admission is journaled ``add`` + ``done`` in the same
batch and never reaches the worker pool — zero launches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.supervisor.cache import ResultCache, spec_digest
from repro.supervisor.journal import Journal
from repro.supervisor.manifest import (
    DONE,
    PENDING,
    RunRecord,
    atomic_write_json,
)
from repro.trace.tracer import MetricsRegistry

#: Admission dispositions (the ``disposition`` field of every verdict).
ADMITTED = "admitted"        #: new run, queued for execution
CACHED = "cached"            #: new run, served from the result cache
DUPLICATE = "duplicate"      #: spec already known (done / running / queued)
REJECTED = "rejected"        #: run id names a different spec — NOT admitted


@dataclass
class RunSpec:
    """One run the caller wants executed.

    ``run_id`` may be empty: admission derives a stable id from the
    spec digest (``<kind>-<digest12>``), so anonymous submissions of
    the same spec always converge on the same run.
    """

    run_id: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class Admission:
    """The per-spec admission verdict."""

    run_id: str
    disposition: str
    status: str
    reason: Optional[str] = None


def id_conflict(existing: RunRecord, spec: RunSpec) -> Optional[str]:
    """Why ``spec`` may not be admitted under ``existing``'s run id, or
    None when both name the same spec."""
    if spec_digest(existing.kind, existing.params) == spec_digest(
        spec.kind, spec.params
    ):
        return None
    return f"run id {existing.run_id!r} already names a different spec"


class AdmissionQueue:
    """The sweep's admission control; see the module docstring.

    Owns the digest index over ``records`` (the shared materialized
    run-state dict) and the journal-write half of admission.  It does
    *not* own scheduling: admitted records are handed back for the pool
    to enqueue.
    """

    def __init__(
        self,
        out_dir: str,
        journal: Journal,
        records: dict[str, RunRecord],
        metrics: MetricsRegistry,
        cache: Optional[ResultCache] = None,
    ):
        self.out_dir = out_dir
        self.journal = journal
        self.records = records
        self.metrics = metrics
        self.cache = cache
        self._by_digest: dict[str, str] = {}
        for record in records.values():
            self._by_digest[spec_digest(record.kind, record.params)] = (
                record.run_id
            )

    def admit(self, specs: list[RunSpec]) -> tuple[list[Admission], list[RunRecord]]:
        """Admit a batch; returns (verdicts, records to enqueue).

        All journal events for the batch are appended with one fsync
        *before* returning, so everything admitted here is durable.  The
        returned enqueue list holds the newly-admitted records the
        caller must hand to the pool (after this method returns —
        journal-before-act).
        """
        verdicts: list[Admission] = []
        to_enqueue: list[RunRecord] = []
        events: list[dict] = []

        for spec in specs:
            digest = spec_digest(spec.kind, spec.params)
            run_id = spec.run_id or f"{spec.kind}-{digest[:12]}"

            existing = self.records.get(run_id)
            if existing is not None:
                reason = id_conflict(existing, spec)
                if reason is not None:
                    verdicts.append(
                        Admission(run_id, REJECTED, existing.status, reason=reason)
                    )
                    self.metrics.counter("fleet.admission_rejected", key="conflict")
                    continue
            elif digest in self._by_digest:
                # Same spec under another id: idempotency wins, the
                # submitter gets the id that already owns the work.
                run_id = self._by_digest[digest]
                existing = self.records[run_id]

            if existing is not None:
                # done / running / pending: nothing to do.  Zero
                # launches, zero journal bytes.
                verdicts.append(Admission(run_id, DUPLICATE, existing.status))
                self.metrics.counter("fleet.admission_dedup")
                continue

            record = RunRecord(run_id=run_id, kind=spec.kind, params=spec.params)
            self.records[run_id] = record
            self._by_digest[digest] = run_id
            events.append(
                {
                    "type": "add",
                    "run_id": run_id,
                    "kind": spec.kind,
                    "params": spec.params,
                }
            )

            done = self.serve_from_cache(record)
            if done is not None:
                events.append(done)
                verdicts.append(Admission(run_id, CACHED, DONE))
            else:
                to_enqueue.append(record)
                verdicts.append(Admission(run_id, ADMITTED, PENDING))
            self.metrics.counter("fleet.admission_total")

        # ONE fsync for the whole batch — the amortized-durability point.
        self.journal.append_many(events)
        self.metrics.counter("fleet.admission_batch")
        self.metrics.observe("fleet.admission_batch_size", value=float(len(specs)))
        return verdicts, to_enqueue

    def serve_from_cache(self, record: RunRecord) -> Optional[dict]:
        """Finish ``record`` from the result cache, if it holds the spec.

        Writes the cached result into the run directory, marks the
        record done and returns the ``done`` event for the caller to
        journal; None on a miss (or without a cache)."""
        hit = self.cache.get(record.kind, record.params) if self.cache else None
        if hit is None:
            return None
        run_dir = os.path.join(self.out_dir, record.run_id)
        os.makedirs(run_dir, exist_ok=True)
        result_path = os.path.join(run_dir, "result.json")
        atomic_write_json(result_path, hit)
        record.status = DONE
        record.result_path = result_path
        record.cached = True
        record.last_error = None
        self.metrics.counter("fleet.cache_hit")
        return {
            "type": "done",
            "run_id": record.run_id,
            "attempt": record.attempts,
            "result_path": result_path,
            "cached": True,
        }
