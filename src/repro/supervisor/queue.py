"""The sweep plan: one decision for the fate of every run.

:func:`plan_runs` is the only place that decides what a sweep does to a
run.  It reads the replayed journal records, the submitted specs, the
result cache and the attempt budget, touches nothing, and returns one
:class:`PlannedRun` per run — the journaled runs first, in journal
order, then the new submissions in submission order.  A fate is one of:

* ``admit`` — a new run, journaled ``add`` and queued;
* ``skip`` — already done, or finished from the result cache with zero
  launches (a new run is then journaled ``add`` + ``done`` in one batch);
* ``resume`` — an unfinished run, relaunched from its checkpoint after
  the worker a dead supervisor left running (``orphan_pid``) is reaped;
* ``requeue`` — a failed run, journaled ``requeue`` with a fresh attempt
  budget;
* ``fail`` — an unfinished run whose attempt budget is already spent;
* ``reject`` — the run id already names a different spec.

:meth:`~repro.supervisor.supervisor.Supervisor.run` executes the plan
and ``tools/sweep.py --dry-run`` prints it, so the preview is what the
sweep does.  Submitting a run id the sweep already knows with the same
spec is a no-op.  A journaled run that was not resubmitted keeps its
fate; a done run whose resubmission is rejected is listed once, as the
rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.supervisor.cache import ResultCache, spec_digest
from repro.supervisor.manifest import DONE, FAILED, RUNNING, RunRecord

ADMIT = "admit"
SKIP = "skip"
RESUME = "resume"
REQUEUE = "requeue"
FAIL = "fail"
REJECT = "reject"
#: Every fate, in the order ``--dry-run`` summarizes them.
FATES = (ADMIT, SKIP, RESUME, REQUEUE, FAIL, REJECT)


@dataclass
class RunSpec:
    """One run the caller wants executed, under a name it chooses."""

    run_id: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.run_id:
            raise ValueError(f"a {self.kind!r} RunSpec needs a run id")


@dataclass
class PlannedRun:
    """The fate of one run, and why."""

    run_id: str
    fate: str
    reason: str
    kind: str
    params: dict
    #: The replayed record of a journaled run; None for a new submission.
    record: Optional[RunRecord] = None
    #: The cached result that finishes the run without a launch.
    cached: Optional[dict] = None
    #: Worker pid a dead supervisor left running: reaped before anything
    #: else, because it still writes into the run directory.
    orphan_pid: Optional[int] = None


def plan_runs(
    records: dict[str, RunRecord],
    specs: list[RunSpec],
    cache: Optional[ResultCache],
    max_attempts: int,
) -> list[PlannedRun]:
    """Decide the fate of every journaled and submitted run; see the
    module docstring.  Reads the cache, changes nothing."""
    submitted = {spec.run_id for spec in specs}
    recovered = {
        run_id: _recovered(record, cache, max_attempts, run_id in submitted)
        for run_id, record in records.items()
    }
    new: dict[str, PlannedRun] = {}
    rejected: list[PlannedRun] = []
    for spec in specs:
        known = records.get(spec.run_id) or new.get(spec.run_id)
        if known is None:
            hit = _lookup(cache, spec.kind, spec.params)
            new[spec.run_id] = PlannedRun(
                spec.run_id,
                ADMIT if hit is None else SKIP,
                "new run" if hit is None else "new run, served from the result cache",
                spec.kind,
                spec.params,
                cached=hit,
            )
        elif spec_digest(known.kind, known.params) != spec_digest(
            spec.kind, spec.params
        ):
            rejected.append(
                PlannedRun(
                    spec.run_id,
                    REJECT,
                    f"run id {spec.run_id!r} already names a different spec",
                    spec.kind,
                    spec.params,
                )
            )
            record = records.get(spec.run_id)
            if record is not None and record.status == DONE:
                # Nothing happens to a done run: the rejection is the news.
                recovered.pop(spec.run_id, None)
    return [*recovered.values(), *new.values(), *rejected]


def _lookup(cache: Optional[ResultCache], kind: str, params: dict) -> Optional[dict]:
    return cache.get(kind, params) if cache is not None else None


def _recovered(
    record: RunRecord,
    cache: Optional[ResultCache],
    max_attempts: int,
    resubmitted: bool,
) -> PlannedRun:
    """The fate of one journaled run."""
    orphan = record.last_pid if record.status == RUNNING else None
    hit = None if record.status == DONE else _lookup(cache, record.kind, record.params)
    if record.status == DONE:
        fate = SKIP
        reason = "already done" + (" (cached)" if record.cached else "")
    elif record.status == FAILED:
        fate = REQUEUE
        reason = f"failed after {record.attempts} attempt(s); fresh attempt budget"
        if hit is not None:
            reason += "; served from the result cache"
    elif hit is not None:
        fate, reason = SKIP, "served from the result cache"
    elif record.attempts >= max_attempts:
        fate = FAIL
        reason = f"attempt budget already spent ({record.attempts}/{max_attempts})"
    else:
        fate = RESUME
        reason = (
            f"{record.status}, attempt {record.attempts}, "
            f"checkpoint {record.checkpoint_path or 'none'}"
        )
    if orphan:
        reason += f"; reap orphaned worker {orphan}"
    if not resubmitted:
        reason += "; not resubmitted"
    return PlannedRun(
        record.run_id,
        fate,
        reason,
        record.kind,
        record.params,
        record=record,
        cached=hit,
        orphan_pid=orphan,
    )
