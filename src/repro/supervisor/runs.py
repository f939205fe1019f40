"""The run contract: what a supervisor worker actually executes.

A *run kind* is a function ``kind(params, ctx) -> dict``:

* ``params`` — the JSON-safe parameter dict from the sweep manifest;
* ``ctx`` — a :class:`RunContext` giving it attempt number, a restored
  checkpoint payload (when resuming), heartbeats to the pool, and
  periodic checkpointing;
* the return value is the run's JSON-safe result, written to
  ``result.json`` by the worker.

Kinds must be *deterministic in simulation time*: given the same params
and the same (or no) checkpoint, they produce bit-identical results.
That is what makes kill-and-resume equivalence testable — the resumed
sweep's results must match an uninterrupted sweep byte for byte.

The checkpoint payload convention is a plain dict (``{"system": ...,
"handle": ...}``) saved with :func:`repro.checkpoint.save_object`; each
kind owns its payload shape.
"""

from __future__ import annotations

import json
import math
import os
import signal
import struct
import subprocess
import sys
import time
from typing import Callable, Optional

from repro.checkpoint.snapshot import save_object
from repro.hpl.dat import HplConfig
from repro.hpl.runner import finish_hpl, start_hpl
from repro.system import System


#: One heartbeat on a worker's pipe: its simulated time, NaN before the
#: run has any.  8 bytes, so every beat is one atomic pipe write.
BEAT = struct.Struct("d")


class Preempted(Exception):
    """Raised by a run kind after checkpointing in response to a drain
    request; the worker turns it into ``EXIT_PREEMPTED``."""


class RunContext:
    """Worker-side services handed to a run kind."""

    def __init__(
        self,
        run_id: str,
        attempt: int,
        checkpoint_path: str,
        checkpoint_every_s: float = 0.1,
        restored_payload: Optional[dict] = None,
        beats: Optional[int] = None,
        preempt: Optional[Callable[[], bool]] = None,
    ):
        self.run_id = run_id
        self.attempt = attempt
        #: Where checkpoints go (one rolling file, atomically replaced).
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every_s = checkpoint_every_s
        #: The payload loaded from the latest checkpoint when resuming,
        #: else None (fresh start).
        self.restored_payload = restored_payload
        #: Non-blocking write end of the pool's heartbeat pipe (None
        #: disables heartbeats, e.g. a run by hand or in-process).
        self.beats = beats
        self._preempt = preempt or (lambda: False)
        self._last_checkpoint_sim_s: Optional[float] = None

    def heartbeat(self, system: Optional[System] = None) -> None:
        """Tell the pool this attempt is alive and how far the *simulated*
        clock has come — the signal that separates stuck from slow.
        Without a system the beat only says start-up is over.  A full
        pipe or a gone supervisor drops the beat."""
        if self.beats is None:
            return
        now = math.nan if system is None else system.machine.now_s
        try:
            os.write(self.beats, BEAT.pack(now))
        except (BlockingIOError, BrokenPipeError):
            pass

    def should_preempt(self) -> bool:
        """True once the pool asked this worker to checkpoint and stop."""
        return self._preempt()

    def checkpoint_and_preempt(self, system: System, payload: dict) -> None:
        self.checkpoint(system, payload)
        raise Preempted(f"{self.run_id}: preempted at sim {system.machine.now_s}s")

    def maybe_checkpoint(self, system: System, payload: dict) -> bool:
        """Checkpoint if at least ``checkpoint_every_s`` of *simulated*
        time passed since the last one.  Cadence in sim time keeps the
        checkpoint schedule deterministic across hosts."""
        now = system.machine.now_s
        if (
            self._last_checkpoint_sim_s is not None
            and now - self._last_checkpoint_sim_s < self.checkpoint_every_s
        ):
            return False
        self.checkpoint(system, payload)
        return True

    def checkpoint(self, system: System, payload: dict) -> None:
        save_object(
            payload,
            self.checkpoint_path,
            meta={
                "kind": "supervisor-run",
                "run_id": self.run_id,
                "attempt": self.attempt,
                "sim_time_s": system.machine.now_s,
            },
        )
        # SimTimeout diagnostics report the newest checkpoint.
        system.machine.last_checkpoint_path = self.checkpoint_path
        self._last_checkpoint_sim_s = system.machine.now_s


def hpl_run(params: dict, ctx: RunContext) -> dict:
    """One HPL sweep point, advanced in slices with checkpoints between.

    Params: ``machine`` (preset name), ``n``, ``nb``, ``variant``,
    optional ``dt_s``, ``seed``, ``slice_s``, ``max_sim_s``, and the
    fault-injection knobs of :func:`_maybe_crash`.
    """
    slice_s = float(params.get("slice_s", 0.05))
    max_sim_s = float(params.get("max_sim_s", 36_000.0))

    if ctx.restored_payload is not None:
        system = ctx.restored_payload["system"]
        handle = ctx.restored_payload["handle"]
    else:
        system = System(
            params.get("machine", "raptor-lake-i7-13700"),
            dt_s=float(params.get("dt_s", 0.01)),
            seed=int(params.get("seed", 0)),
        )
        handle = start_hpl(
            system,
            HplConfig(n=int(params["n"]), nb=int(params.get("nb", 128))),
            variant=params.get("variant", "openblas"),
        )

    machine = system.machine
    payload = {"system": system, "handle": handle}
    while not handle.done:
        if machine.now_s - handle.t0 > max_sim_s:
            # One strict tick raises the enriched SimTimeout (stuck
            # threads + core types + last checkpoint path).
            machine.run_until_done(
                handle.threads, max_s=machine.clock.dt_s, strict=True
            )
            break
        machine.run_until_done(handle.threads, max_s=slice_s)
        if not handle.done:
            ctx.heartbeat(system)
            if ctx.should_preempt():
                ctx.checkpoint_and_preempt(system, payload)
            ctx.maybe_checkpoint(system, payload)
            _maybe_stall(params, ctx, system, machine.now_s - handle.t0)
            _maybe_crash(params, ctx, machine.now_s - handle.t0)

    result = finish_hpl(system, handle)
    return {
        "kind": "hpl",
        "machine": system.spec.name,
        "variant": result.variant,
        "n": result.config.n,
        "nb": result.config.nb,
        "cpus": result.cpus,
        "gflops": result.gflops,
        "wall_s": result.wall_s,
        "energy_j": result.energy_j,
        "avg_power_w": result.avg_power_w,
        "spin_time_s": result.spin_time_s,
        "instructions": result.instructions,
        "llc_references": result.llc_references,
        "llc_misses": result.llc_misses,
        "fp_ops": result.fp_ops,
        "runtime_s": result.runtime_s,
        "state_digest": system.state_digest(),
    }


def _maybe_crash(params: dict, ctx: RunContext, elapsed_sim_s: float) -> None:
    """Deterministic self-crash for supervisor tests and CI.

    ``crash_at_s`` names a *simulated* time; ``crash_on_attempts`` the
    attempt numbers that die there.  The process SIGKILLs itself — the
    hardest crash there is: no atexit, no flushing, exactly what the
    supervisor must survive.  Keyed to sim time so every host crashes at
    the same point of the computation.
    """
    crash_at = params.get("crash_at_s")
    if crash_at is None:
        return
    attempts = params.get("crash_on_attempts", [1])
    if ctx.attempt in attempts and elapsed_sim_s >= float(crash_at):
        os.kill(os.getpid(), signal.SIGKILL)


def _maybe_stall(
    params: dict, ctx: RunContext, system: System, elapsed_sim_s: float
) -> None:
    """Deterministic wedge for liveness tests and CI.

    ``stall_at_s`` names a *simulated* time; ``stall_on_attempts`` the
    attempt numbers that wedge there.  The worker stays alive and keeps
    heartbeating, but simulated time stops advancing — exactly the
    signature the pool's stuck detector must catch, kill and retry.
    Keyed to sim time (and placed after the checkpoint cadence check) so
    the retry resumes from a checkpoint at or before the stall point and
    converges on the bit-identical calm-run result.
    """
    stall_at = params.get("stall_at_s")
    if stall_at is None:
        return
    attempts = params.get("stall_on_attempts", [1])
    if ctx.attempt in attempts and elapsed_sim_s >= float(stall_at):
        while True:  # alive, heartbeating, zero sim progress — stuck
            ctx.heartbeat(system)
            time.sleep(0.02)


def failing_run(params: dict, ctx: RunContext) -> dict:
    """A run that always raises — exercises permanent-failure handling."""
    raise ValueError(params.get("message", "this run always fails"))


def spawner_run(params: dict, ctx: RunContext) -> dict:
    """A run that spawns a helper child, then wedges without heartbeats.

    The zombie-window regression fixture: the pool must kill the whole
    worker *process group* on a liveness/timeout kill, so the helper
    (its pid published in ``child.json``) dies too — no orphan survives
    the timeout.
    """
    run_dir = os.path.dirname(ctx.checkpoint_path)
    # The helper must share the worker's process group — escaping it is
    # exactly the orphan scenario the group-kill test closes over.
    child = subprocess.Popen(  # repro-lint: disable=FORK-SAFETY
        [sys.executable, "-c", "import time; time.sleep(600)"]
    )
    with open(os.path.join(run_dir, "child.json"), "w") as fh:
        json.dump({"pid": child.pid}, fh)
    while True:  # never heartbeats: dead air until the pool kills us
        time.sleep(float(params.get("spin_sleep_s", 0.02)))


RUN_KINDS: dict[str, Callable[[dict, RunContext], dict]] = {
    "hpl": hpl_run,
    "failing": failing_run,
    "spawner": spawner_run,
}
