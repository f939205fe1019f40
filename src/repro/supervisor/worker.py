"""Sweep worker: executes exactly one run, crash-isolated.

The supervisor never runs simulations in its own process — each attempt
executes in a worker process that :func:`spawn` forks from the
supervisor, which has already imported ``repro`` (and numpy), so an
attempt pays no interpreter start-up or imports.  The child leads its
own session, has stdin/stdout on ``/dev/null`` and stderr on the run's
``stderr.log``, runs :func:`run_spec` and ends in ``os._exit`` on every
path — it never returns into the supervisor's frames.  It carries no
process state over from the supervisor: everything a run allocates
(perf event ids included) belongs to its simulated kernel.  A
segfault, SIGKILL, or runaway loop takes down only this worker.
``python -m repro.supervisor.worker --spec spec.json`` runs the same
spec in a fresh interpreter: for rerunning an attempt by hand, and as
the reference the fork path is tested against.

Results are file-based (crash-safe): the worker reads a spec, writes
``result.json`` on success or ``error.json`` on failure, both
atomically, and reports classification via exit code:

* 0 — success, ``result.json`` written;
* :data:`EXIT_PERMANENT` (3) — deterministic failure (bad params,
  unknown kind, an exception the simulation will reproduce on every
  attempt); retrying is pointless;
* :data:`EXIT_TRANSIENT` (4) — worth retrying: a :class:`SimTimeout`
  (the retry resumes from the last checkpoint and may progress) or an
  unreadable/corrupt checkpoint (the retry falls back to a fresh start);
* :data:`EXIT_PREEMPTED` (5) — the pool asked this worker to stop
  (SIGTERM during a drain): the run checkpointed at the next slice
  boundary and exited; not a failure, the supervisor requeues it
  without burning an attempt.

Anything else — a signal, an OOM kill, an uncaught ``BaseException``
(exit 1, traceback in ``stderr.log``) — yields no exit code from this
table, and the supervisor classifies the bare crash as transient.

Liveness goes over one pipe per attempt, which :func:`spawn` creates:
the child holds its non-blocking write end and beats its current
*simulated* time into it every slice (:meth:`RunContext.heartbeat`);
the pool drains the read end to tell a stuck worker (sim time frozen)
from a slow one (progressing past its deadline), and sees the pipe hang
up when the worker exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from typing import Optional

from repro.checkpoint.snapshot import SnapshotError, load_object
from repro.sim.engine import SimTimeout
from repro.supervisor.manifest import (
    EXIT_PERMANENT,
    EXIT_PREEMPTED,
    EXIT_TRANSIENT,
    atomic_write_json,
)
from repro.supervisor.runs import RUN_KINDS, Preempted, RunContext

#: Set by the SIGTERM handler a worker installs (:func:`spawn`,
#: :func:`main`); run kinds poll it via ``ctx.should_preempt()`` at
#: every slice boundary.
_PREEMPT_REQUESTED = False


def _on_sigterm(signum, frame) -> None:
    global _PREEMPT_REQUESTED
    _PREEMPT_REQUESTED = True


def _preempt_requested() -> bool:
    return _PREEMPT_REQUESTED


def _write_error(path: str, kind: str, exc: BaseException, **extra) -> None:
    payload = {
        "type": type(exc).__name__,
        "message": str(exc),
        "classification": kind,
        "traceback": traceback.format_exc(),
    }
    payload.update(extra)
    atomic_write_json(path, payload)


def run_spec(spec: dict, beats: Optional[int] = None) -> int:
    """Execute one run spec; returns the process exit code.  ``beats``
    is the write end of the pool's heartbeat pipe (None: no pool)."""
    run_id = spec["run_id"]
    out_dir = spec["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    error_path = os.path.join(out_dir, "error.json")
    result_path = os.path.join(out_dir, "result.json")
    checkpoint_path = spec.get("checkpoint_path") or os.path.join(
        out_dir, "checkpoint.snap"
    )

    kind = spec["kind"]
    fn = RUN_KINDS.get(kind)
    if fn is None:
        _write_error(
            error_path,
            "permanent",
            ValueError(f"unknown run kind {kind!r}; known: {sorted(RUN_KINDS)}"),
        )
        return EXIT_PERMANENT

    restored = None
    resume_from = spec.get("resume_from")
    if resume_from:
        try:
            restored = load_object(resume_from)
        except (SnapshotError, OSError) as exc:
            # A torn or stale checkpoint is not fatal to the *run* —
            # the next attempt starts fresh.  Report transient so the
            # supervisor retries without the checkpoint.
            _write_error(error_path, "transient", exc, bad_checkpoint=resume_from)
            return EXIT_TRANSIENT

    ctx = RunContext(
        run_id=run_id,
        attempt=int(spec.get("attempt", 1)),
        checkpoint_path=checkpoint_path,
        checkpoint_every_s=float(spec.get("checkpoint_every_s", 0.1)),
        restored_payload=restored,
        beats=beats,
        preempt=_preempt_requested,
    )
    # First heartbeat before any simulation: start-up is over (no sim
    # progress to report yet).
    ctx.heartbeat()

    try:
        result = fn(spec.get("params", {}), ctx)
    except Preempted:
        # The run checkpointed before raising; nothing else to record.
        return EXIT_PREEMPTED
    except SimTimeout as exc:
        _write_error(
            error_path,
            "transient",
            exc,
            stuck=exc.stuck_details(),
            checkpoint_path=exc.checkpoint_path,
        )
        return EXIT_TRANSIENT
    except Exception as exc:
        # The simulation is deterministic: a plain exception recurs on
        # every attempt.  Classify permanent so the supervisor stops
        # burning retries on it.
        _write_error(error_path, "permanent", exc)
        return EXIT_PERMANENT

    atomic_write_json(result_path, result)
    return 0


def spawn(spec_path: str, stderr_path: str) -> tuple[int, int]:
    """Fork a worker process that runs the spec at ``spec_path``;
    returns its pid and the read end of its heartbeat pipe.

    The caller reaps it with ``os.waitpid`` and closes the read end.
    The read end is non-blocking; it hangs up once the worker is gone.
    The child starts like ``python -m repro.supervisor.worker --spec``
    would: its own session, stdin/stdout on ``/dev/null``, stderr on
    ``stderr_path``, SIGTERM on :func:`_on_sigterm` and SIGINT on
    Python's default; it keeps only the pipe's non-blocking write end.
    Forking needs a single-threaded caller: a lock another thread holds
    at the fork stays held in the child forever.
    """
    # Nothing the caller left buffered may be written again by the child.
    sys.stdout.flush()
    sys.stderr.flush()
    stderr_fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)
    os.set_blocking(write_fd, False)
    # Neither signal may reach the child before its own handlers are in.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGINT})
    try:
        pid = os.fork()
        if pid == 0:
            # The child: every path ends in os._exit, so no caller frame
            # (a `finally`, an atexit hook, a buffer flush) runs twice.
            code = 1
            try:
                os.close(read_fd)
                os.setsid()
                devnull = os.open(os.devnull, os.O_RDWR)
                os.dup2(devnull, 0)
                os.dup2(devnull, 1)
                os.dup2(stderr_fd, 2)
                # Python-level stdio follows the new descriptors, whatever
                # the caller had bound sys.stdout/sys.stderr to.
                sys.stdout = open(1, "w", closefd=False)
                sys.stderr = open(2, "w", buffering=1, closefd=False)
                signal.signal(signal.SIGTERM, _on_sigterm)
                signal.signal(signal.SIGINT, signal.default_int_handler)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                with open(spec_path) as fh:
                    spec = json.load(fh)
                code = run_spec(spec, beats=write_fd)
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(stderr_fd)
        os.close(write_fd)
    return pid, read_fd


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="path to the run-spec JSON")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    with open(args.spec) as fh:
        spec = json.load(fh)
    return run_spec(spec)


if __name__ == "__main__":
    sys.exit(main())
