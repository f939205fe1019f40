"""Event-driven engine: record one steady tick, leap to the next event.

The plain loop executes every tick through the full scheduler / phase /
accounting machinery.  Most simulated time, however, is spent in *steady
state*: every thread stays inside the same phase, placements and DVFS
frequencies do not move, and no wake, RAPL or thermal boundary fires.
Such a tick is exactly reproducible: its entire effect on the world is a
fixed set of in-place additions (counter vectors, runtimes, perf-event
clocks) plus the hardware-controller updates (RAPL, thermal, governor)
driven by the *same* power sample.

The engine therefore runs a tick with a :class:`TickRecorder` attached.
The machine marks the recorder dead at the first non-steady event (phase
boundary, wake, migration, overflow sample); otherwise the recorder ends
the tick holding

* the numeric increments the tick performed, grouped by target (a
  counter array, a ``(dict, key)`` cell or a compute chain) and kept in
  recorded order within each target, so replay performs the *identical*
  float/int operations on the identical live objects — a replayed tick
  is bit-for-bit the same as a plain tick;
* the guards that must hold for the *next* tick to be a repeat: spin/
  sleep wake conditions still false, compute phases not completing,
  DVFS frequencies unchanged;
* the multiplexing rotation slot each thread's perf dispatch read, with
  what its rotating events add while their group holds counters;
* the (constant) inputs of the power/thermal/governor step, which
  advances *live* on the real objects because RAPL and thermal state are
  genuine per-tick recurrences;
* the buckets the tick's threads accounted, whose event vectors are
  built (and those threads' ledgers settled) only once the recording
  becomes a span.

Rather than polling every guard between replays, a :class:`_Span`
treats the recorded guards as *event sources*, each able to report the
number of ticks until it next fires:

* **workload phase change** — a compute chain's remaining instructions
  divided by its per-tick retirement;
* **thread wake-up** — an absolute wake time solved exactly against the
  tick grid (``now_s`` is ``ticks * dt_s``, so the crossing tick is a
  pure float comparison, not an accumulation);
* **fault firing** — the injector's next timed due-time
  (``TickRecorder.time_guards``), solved the same way;
* **overflow threshold crossing** — an armed sampling event's distance
  to ``_next_overflow`` at its recorded per-tick increment;
* **DVFS/thermal transition** — frequency moves are detected by the
  replay itself (the hardware advances live every tick).

A span leaps guard-free to a conservative bound just short of the
earliest event, then polls tick-by-tick through the boundary so the
event fires on exactly the same tick as the single-tick engine.
Rate-based bounds (compute, overflow) are shaved by ``_SLACK`` to stay
provably below the crossing despite float rounding in the replayed
accumulations; grid-time bounds (wake, fault) are exact.  Opaque
predicates — spin ``until`` conditions, conditional faults — cannot
report a horizon and degrade that span to per-tick polling.

A **multiplex rotation** is a switch, not an event that ends the span
(:meth:`_Span._rotate`).  Replay adds a thread's recorded runtime
increments in recorded order, so the tick on which its slot changes is
known exactly, not estimated; there the span gives the rotating
events' clock and count cells the increments of the new slot's window
(the perf layer's ``window``), the ``-0.0`` pad for the groups it
leaves out, and leaps on.  The span ends at the rotation instead while
the tracer records ``perf`` (``mux_rotate`` must be emitted on its
tick), while a rotating event samples, or when a thread's perf
dispatch ran more than once in the recorded tick.

One loop, :func:`run_budget`, drives every run: it runs a budget of
ticks.  ``Machine.run_ticks`` hands it a tick count;
``run_until_done`` hands it the ticks to its deadline, solved on the
tick grid like a wake time (:func:`grid_crossing`), with its condition
(:class:`AllDone`), which the loop checks between spans — a thread
retires only at a phase boundary, so the condition cannot change inside
one.  Any other ``run_until`` condition is opaque and runs plain ticks.

A leap (:meth:`_Span.leap`) costs one pass per target, not one
operation per target per tick.  It first advances the hardware: in one
pass per model (RAPL, thermal, the clock) while its ticks are *quiet*,
that is while no ceiling, scale or frequency can move, otherwise tick
by tick through the public per-tick methods, stopping after a tick that
moves a frequency and returning to the quiet pass after one that moved
no scale.  Then it applies the ``j`` ticks that ran: a float
target's ``j`` repeats go through one ``np.add.accumulate`` (a running
sum rounds exactly as the sequential adds do; see :class:`_Block`), an
int cell adds ``j * sum(incs)``.  The reordering is exact because
nothing else runs inside a leap and the recurrences read none of the
recorded targets.  Short leaps replay with plain adds.

Recording is only attempted when no unsafe hooks are registered (see
``Machine.mark_hook_fastpath_safe``) and scheduler jitter is off.  Two
further optimizations are invisible to the digest law:

* **adaptive record back-off** — recording is pure observation, so after
  a tick whose recorder was killed the engine runs plainly for an
  exponentially growing number of ticks (capped) before paying for a
  recorder again.  Unsteady workloads (HPL's work-stealing loop) stop
  paying recording overhead almost entirely.
* **cached scheduling** (installed on the machine by this engine only)
  — see :class:`SchedCache`.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim.workload import SleepPhase

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Machine

#: Slack for float time comparisons against tick boundaries (must match
#: the fault injector's epsilon: time guards reproduce its batch guard).
TIME_GUARD_EPS = 1e-12

#: Relative margin shaved off rate-based event horizons.  A replayed
#: accumulation drifts from ``k * step`` by at most ~``k`` ulps, so any
#: horizon below ``true_crossing * (1 - _SLACK)`` is provably on the
#: safe side for the leap lengths ``_MAX_LEAP`` permits.
_SLACK = 1e-6

#: Cap on a single guard-free leap (keeps the ``_SLACK`` safety argument
#: valid for astronomically long horizons; the span just leaps again).
_MAX_LEAP = 10 ** 9

#: Tick distance from which :func:`grid_crossing` reports "never"
#: (``math.inf``).  No run gets this far (35,000 years of simulated time
#: at a 1 ms tick), and below it the float estimate of a crossing is
#: provably within the solver's two-tick margin.
_NEVER = 2 ** 50

#: Shortest leap applied as one bulk block; shorter ones replay their
#: ticks with plain adds, which is cheaper than setting up the block.
_BULK_MIN = 8

#: Bound on a bulk replay's scratch block, in float64 elements (the
#: accumulate output doubles it): longer leaps run in several blocks, so
#: a long leap costs no more memory than a short one.
_BLOCK_FLOATS = 1 << 14

#: The dtype of every bulk-replay column.
_F64 = np.dtype(np.float64)

#: Cap on the record back-off, in ticks run plainly after a killed
#: recorder before the next recording attempt.  Attaching a recorder
#: costs real wall time (guard and increment bookkeeping); during
#: sustained churn — e.g. HPL's dynamic-claim stage, where some phase
#: boundary fires almost every tick — that cost buys nothing.
_BACKOFF_CAP = 32


class TickRecorder:
    """Collects one tick's increments and replay guards."""

    __slots__ = (
        "unsteady",
        "vecs",
        "cells",
        "buckets",
        "blocked",
        "spin_guards",
        "compute_guards",
        "mux_guards",
        "time_guards",
        "overflow_guards",
        "power_inputs",
        "freq_before",
        "freq_after",
        "_pre_sched",
        "_rt_incs",
    )

    def __init__(self):
        self.unsteady = False
        # Numeric increments grouped by target, each target's own in
        # recorded order (float addition is not associative; distinct
        # targets are independent): id(array) -> [array, inc...] for
        # numpy in-place adds, (id(dict), key) -> [dict, key, inc...]
        # for dict-value adds (attribute adds go through the instance
        # ``__dict__``).
        self.vecs: dict = {}
        self.cells: dict = {}
        # Accounted buckets, in order: (thread, core type, rates,
        # instructions, reference cycles); see ``bucket_increments``.
        self.buckets: list[tuple] = []
        self.blocked: list[tuple] = []          # (thread, SleepPhase|None)
        self.spin_guards: list = []             # until() callables
        self.compute_guards: dict = {}          # id(phase) -> [phase, incs...]
        self.mux_guards: list[tuple] = []       # (thread, rt_incs, entry, slot, cells)
        self.time_guards: list[float] = []      # absolute due times (s)
        self.overflow_guards: dict = {}         # id(event) -> [event, incs...]
        self.power_inputs = None                # (sample, activity, other_w, util)
        self.freq_before: list[float] | None = None
        self.freq_after: list[float] | None = None
        self._pre_sched = None
        # Per-thread runtime increments recorded so far this tick, used to
        # predict the post-accrual runtime the mux guard must check.
        self._rt_incs: dict = {}

    # -- cells ---------------------------------------------------------------

    def vec(self, target, inc) -> None:
        entry = self.vecs.get(id(target))
        if entry is None:
            self.vecs[id(target)] = [target, inc]
        else:
            entry.append(inc)

    def scalar(self, obj, attr: str, inc) -> None:
        """An add to plain instance attribute ``obj.attr``."""
        self.dict_add(obj.__dict__, attr, inc)

    def dict_add(self, d: dict, key, inc) -> None:
        entry = self.cells.get((id(d), key))
        if entry is None:
            self.cells[(id(d), key)] = [d, key, inc]
        else:
            entry.append(inc)

    def bucket(self, thread, ct, rates, instr: float, ref_cycles: float) -> None:
        """A bucket ``thread.account`` put on its ledger this tick."""
        self.buckets.append((thread, ct, rates, instr, ref_cycles))

    def bucket_increments(self) -> None:
        """Turn the recorded buckets into replay increments, in recorded
        order: each thread's ledger settles first (the tick's buckets
        with it), so a killed recording never pays for a settle or a
        vector."""
        for thread, ct, rates, instr, ref_cycles in self.buckets:
            self.vec(*thread.replay_increment(ct, rates, instr, ref_cycles))

    def rt_add(self, thread, time_s: float) -> None:
        """A ``total_runtime_s`` increment (tracked for mux guards)."""
        self.scalar(thread, "total_runtime_s", time_s)
        lst = self._rt_incs.get(id(thread))
        if lst is None:
            self._rt_incs[id(thread)] = [time_s]
        else:
            lst.append(time_s)

    def mux_guard(self, thread, entry, slot: int, cells) -> None:
        """The rotation slot this tick's perf dispatch read.  ``entry``
        maps a runtime to its slot and a slot to its active window;
        ``cells`` are what the rotating events add while their group is
        active, ``(leader, dict, key, increment)``, or None if the span
        must end where the slot changes."""
        incs = tuple(self._rt_incs.get(id(thread), ()))
        self.mux_guards.append((thread, incs, entry, slot, cells))

    def time_guard(self, at_s: float) -> None:
        """The span must end one tick before absolute time ``at_s``
        (a timed fault or other scheduled transition comes due there)."""
        self.time_guards.append(at_s)

    def overflow_step(self, event, inc: float) -> None:
        """An armed sampling event's count grew without crossing its
        threshold; replayed ticks repeat ``inc`` and must stop one tick
        before ``event.count`` reaches ``event._next_overflow``."""
        guard = self.overflow_guards.get(id(event))
        if guard is None:
            self.overflow_guards[id(event)] = [event, inc]
        else:
            guard.append(inc)

    # -- engine callbacks ----------------------------------------------------

    def kill(self, machine: "Machine") -> None:
        """Mark this tick non-replayable and stop recording."""
        self.unsteady = True
        machine._rec = None

    def compute_step(self, phase, executed: float) -> None:
        guard = self.compute_guards.get(id(phase))
        if guard is None:
            self.compute_guards[id(phase)] = [phase, executed]
        else:
            guard.append(executed)

    def spin_step(self, thread, until, time_s: float) -> None:
        self.spin_guards.append(until)
        self.scalar(thread, "spin_time_s", time_s)

    def note_pre_schedule(self, scheduler, runnable) -> None:
        self._pre_sched = (
            scheduler.total_switches,
            [(t.cpu, t.last_cpu, t.nr_switches, t.nr_migrations) for t in runnable],
        )

    def note_post_schedule(self, machine: "Machine", scheduler, runnable) -> None:
        total_switches0, before = self._pre_sched
        for t, (cpu0, last_cpu0, sw0, mig0) in zip(runnable, before):
            if t.cpu != cpu0 or t.last_cpu != last_cpu0 or t.nr_migrations != mig0:
                self.kill(machine)  # migration / fresh placement
                return
            if t.nr_switches != sw0:
                self.scalar(t, "nr_switches", t.nr_switches - sw0)
        if scheduler.total_switches != total_switches0:
            self.scalar(
                scheduler,
                "total_switches",
                scheduler.total_switches - total_switches0,
            )

    def steady(self) -> bool:
        return (
            not self.unsteady
            and self.power_inputs is not None
            and self.freq_before is not None
            and self.freq_before == self.freq_after
        )


def grid_crossing(ticks: int, dt: float, t: float):
    """Smallest ``j >= 0`` with ``(ticks + j) * dt >= t``.

    That is the exact expression a wake or deadline check evaluates
    (``now_s`` is ``ticks * dt``), so the returned tick matches per-tick
    polling bit for bit.  A crossing ``_NEVER`` or more ticks away — an
    infinite or NaN ``t`` among them — is ``math.inf``.
    """
    j = (t - ticks * dt) / dt
    if not j < _NEVER:
        return math.inf
    j = int(j) - 2 if j > 2 else 0
    while (ticks + j) * dt < t:
        j += 1
    return j


def _replay_tick(vecs, cells, chains) -> None:
    """Apply one tick of increments with plain adds, target by target."""
    for target, incs in vecs:
        for inc in incs:
            target += inc
    for d, key, incs in cells:
        v = d[key]
        for inc in incs:
            v = v + inc
        d[key] = v
    for phase, incs in chains:
        r = phase.remaining
        for e in incs:
            r = r - e
        phase.remaining = r


class _Block:
    """A span's increments laid out for bulk replay.

    Every float target is a column of one block: each element of a
    float64 array, each float cell, and each compute chain, whose
    subtracted executions are added as negations (IEEE subtraction *is*
    addition of the negation).  One tick is ``width`` rows, the most
    increments any target takes per tick; shorter targets are padded
    with -0.0, the exact additive identity (+0.0 would turn a -0.0 into
    +0.0).  ``np.add.accumulate`` down a column is a running sum, so it
    rounds every partial sum exactly as the sequential adds do and its
    last row holds each target's value after the leap.  Int cells
    (switch counts) add ``j * sum(incs)``; anything else is replayed
    tick by tick.
    """

    def __init__(self, vecs, cells, chains, ticks: int):
        self.arrays: list[tuple] = []   # (array, first column)
        self.floats: list[tuple] = []   # (dict, key)
        self.phases: list = []          # compute-chain phases
        self.ints: list[tuple] = []     # (dict, key, one tick's sum)
        # Targets outside the block, replayed per tick.
        self.slow = slow = ([], [], [])
        array_incs = []
        scalar_incs = []
        k = 0
        for target, incs in vecs:
            if type(target) is np.ndarray and target.dtype == _F64 and target.ndim == 1:
                for i in incs:
                    if type(i) is not np.ndarray or i.dtype != _F64 or i.shape != target.shape:
                        break
                else:
                    self.arrays.append((target, k))
                    array_incs.append(incs)
                    k += target.size
                    continue
            slow[0].append((target, incs))
        self.first_scalar = k
        for d, key, incs in cells:
            t = type(d[key])
            if t is float or t is int:
                for i in incs:
                    if type(i) is not t:
                        break
                else:
                    if t is float:
                        self.floats.append((d, key))
                        scalar_incs.append(incs)
                    else:
                        self.ints.append((d, key, sum(incs)))
                    continue
            slow[1].append((d, key, incs))
        for phase, incs in chains:
            if type(phase.remaining) is float:
                for e in incs:
                    if type(e) is not float:
                        break
                else:
                    self.phases.append(phase)
                    scalar_incs.append([-e for e in incs])
                    continue
            slow[2].append((phase, incs))
        k += len(scalar_incs)
        self.width = width = max(map(len, array_incs + scalar_incs), default=1)
        tick = np.full((width, k), -0.0)
        for (target, col), incs in zip(self.arrays, array_incs):
            for row, inc in enumerate(incs):
                tick[row, col:col + target.size] = inc
        if scalar_incs:
            pad = [-0.0] * width
            flat = []
            for incs in scalar_incs:
                flat += incs
                if len(incs) < width:
                    flat += pad[len(incs):]
            tick[:, self.first_scalar:] = np.array(flat).reshape(-1, width).T
        self.tick = tick
        self.cap = 0
        self._grow(ticks)

    def columns(self, cells) -> list[int]:
        """The columns of float cells ``(dict, key)``."""
        first = self.first_scalar
        col = {(id(d), key): first + i for i, (d, key) in enumerate(self.floats)}
        return [col[(id(d), key)] for d, key in cells]

    def rewrite(self, cols: list[int], incs: list[float]) -> None:
        """Give columns holding one increment per tick new increments."""
        self.tick[0, cols] = incs
        self.block[1::self.width, cols] = incs

    def _grow(self, ticks: int) -> None:
        """Size the scratch block for ``ticks`` ticks, within the bound."""
        width, k = self.tick.shape
        cap = min(ticks, max(1, _BLOCK_FLOATS // (width * k or 1)))
        if cap <= self.cap:
            return
        self.cap = cap
        self.block = np.empty((1 + cap * width, k))
        self.block[1:].reshape(cap, width, k)[:] = self.tick
        self.out = np.empty_like(self.block)

    def apply(self, j: int) -> None:
        """Apply ``j`` ticks of increments."""
        if j > self.cap:
            self._grow(j)
        block = self.block
        row0 = block[0]
        for target, col in self.arrays:
            row0[col:col + target.size] = target
        first = self.first_scalar
        row0[first:] = [d[key] for d, key in self.floats] + [
            p.remaining for p in self.phases
        ]
        out = self.out
        cap = self.cap
        left = j
        while True:
            n = left if left < cap else cap
            rows = 1 + n * self.width
            np.add.accumulate(block[:rows], axis=0, out=out[:rows])
            left -= n
            if left == 0:
                break
            row0[:] = out[rows - 1]
        last = out[rows - 1]
        for target, col in self.arrays:
            target[:] = last[col:col + target.size]
        values = last[first:].tolist()
        for (d, key), v in zip(self.floats, values):
            d[key] = v
        for phase, v in zip(self.phases, values[len(self.floats):]):
            phase.remaining = v
        for d, key, s in self.ints:
            d[key] = d[key] + j * s
        vecs, cells, chains = self.slow
        if vecs or cells or chains:
            for _ in range(j):
                _replay_tick(vecs, cells, chains)


class _Rotation:
    """A thread's multiplex rotation, followed across a span.

    A tick adds ``full`` to the thread's runtime, ``pre`` of it before
    the perf dispatch reads the slot; replay performs the same adds, so
    the slot of every later tick is known exactly.  ``adds`` pairs each
    rotating cell's group leader with its increment while the group is
    active, and ``incs`` holds the span's per-tick increment list of
    each cell (one element); both are None if the span must end where
    the slot changes.
    """

    __slots__ = ("thread", "pre", "full", "entry", "slot", "keys", "adds",
                 "incs", "cols")

    def __init__(self, thread, pre, full, entry, slot: int, cells):
        self.thread = thread
        self.pre = pre
        self.full = full
        self.entry = entry
        self.slot = slot
        self.keys = self.adds = self.incs = self.cols = None
        if cells is not None:
            self.keys = [(d, key) for _leader, d, key, _inc in cells]
            self.adds = [(leader, inc) for leader, _d, _key, inc in cells]


class _Span:
    """One recorded steady tick driven by its pending-event queue.

    Its multiplex rotations are not events: the span follows each
    thread's slot (:class:`_Rotation`) and, on the tick it changes,
    switches the rotating events' increments and leaps on.
    """

    def __init__(self, machine: "Machine", rec: TickRecorder):
        self.m = machine
        self.rec = rec
        rec.bucket_increments()
        self.freq_expect = rec.freq_after
        #: Set once a replayed tick moved a DVFS frequency.
        self.ended = False
        # First: rotations add the pad cells of rotated-out events.
        self.rotations = self._rotations(rec)
        # Flatten compute/overflow guard chains once.
        self.computes = list(rec.compute_guards.values())
        self.overflows = list(rec.overflow_guards.values())
        self.vecs = [(e[0], e[1:]) for e in rec.vecs.values()]
        self.cells = [(e[0], e[1], e[2:]) for e in rec.cells.values()]
        self.chains = [(c[0], c[1:]) for c in self.computes]
        self.block: _Block | None = None
        crossing = [rot for rot in self.rotations if rot.adds is not None]
        if crossing:
            incs = {(id(d), key): lst for d, key, lst in self.cells}
            for rot in crossing:
                rot.incs = [incs[(id(d), key)] for d, key in rot.keys]
        # Opaque predicates force per-tick polling for the whole span.
        polling = bool(rec.spin_guards)
        if not polling:
            for _t, phase in rec.blocked:
                if not isinstance(phase, SleepPhase) or phase.until is not None:
                    polling = True
                    break
        self.polling = polling

    @staticmethod
    def _rotations(rec: TickRecorder) -> list[_Rotation]:
        """The recorded mux guards as rotations.  A rotation the span
        crosses owns one float cell per rotating event's clock or count,
        with one increment per tick: a cell its group left out of the
        recorded tick joins the recording as the ``-0.0`` pad.  A
        thread whose perf dispatch ran more than once in the tick gets
        rotations that end the span instead."""
        guards = rec.mux_guards
        per_thread = Counter(id(g[0]) for g in guards)
        out = []
        for thread, pre, entry, slot, cells in guards:
            if len(entry.rotating) == 1:
                continue  # one slot: nothing ever rotates
            full = tuple(rec._rt_incs[id(thread)])
            if per_thread[id(thread)] > 1 or pre != full:
                cells = None
            if cells is not None:
                for _leader, d, key, inc in cells:
                    cell = rec.cells.get((id(d), key))
                    if type(d[key]) is not float or type(inc) is not float or (
                        cell is not None and len(cell) != 3
                    ):
                        cells = None
                        break
                    if cell is None:
                        rec.cells[(id(d), key)] = [d, key, -0.0]
            out.append(_Rotation(thread, pre, full, entry, slot, cells))
        return out

    def _switch(self, rot: _Rotation, slot: int) -> None:
        """Give ``rot``'s cells the increments of ``slot``: the counting
        increment for events its window activates, the pad for the
        rest."""
        rot.slot = slot
        active = rot.entry.window(slot)
        incs = [inc if leader in active else -0.0 for leader, inc in rot.adds]
        for lst, inc in zip(rot.incs, incs):
            lst[0] = inc
        block = self.block
        if block is not None:
            if rot.cols is None:
                rot.cols = block.columns(rot.keys)
            block.rewrite(rot.cols, incs)

    def _rotate(self, cap) -> Optional[int]:
        """Bring every rotation to the slot of the next tick; returns how
        many ticks from it on keep every slot (1 to ``cap``), or None if
        the next tick changes a slot the span cannot cross.

        Each slot is read, as the perf dispatch reads it, from the
        runtime replay will produce: the thread's live runtime plus its
        recorded increments, added in recorded order.
        """
        k = cap
        for rot in self.rotations:
            slot_of = rot.entry.slot
            pre = rot.pre
            full = rot.full
            r = rot.thread.total_runtime_s
            g = r
            for inc in pre:
                g = g + inc
            slot = slot_of(g)
            if slot != rot.slot:
                if rot.adds is None:
                    return None
                self._switch(rot, slot)
            j = 1
            while j < k:
                r0 = r
                for inc in full:
                    r = r + inc
                if r == r0:
                    j = k  # the runtime no longer grows
                    break
                g = r
                for inc in pre:
                    g = g + inc
                if slot_of(g) != slot:
                    break
                j += 1
            k = j
        return k

    # -- replay --------------------------------------------------------------

    def guards_hold(self) -> bool:
        """True if the next tick would repeat the recorded one exactly
        (rotations aside: :meth:`_rotate` has brought them to its slot)."""
        rec = self.rec
        now_s = self.m.clock.now_s
        if rec.time_guards:
            due = now_s + self.m.clock.dt_s + TIME_GUARD_EPS
            for at_s in rec.time_guards:
                if at_s <= due:
                    return False
        for t, phase in rec.blocked:
            if isinstance(phase, SleepPhase) and phase.until is not None:
                if phase.until():
                    return False
            if t.wake_at_s is not None and now_s >= t.wake_at_s:
                return False
            if not isinstance(phase, SleepPhase):
                return False  # would wake unconditionally
        for until in rec.spin_guards:
            if until():
                return False
        for chain in self.computes:
            r = chain[0].remaining
            for e in chain[1:]:
                if r < e:
                    return False  # would execute less and complete
                r = r - e
                if r <= 0.0:
                    return False  # would complete exactly
        for chain in self.overflows:
            event = chain[0]
            threshold = event._next_overflow
            if threshold is None:
                continue
            c = event.count
            for inc in chain[1:]:
                c = c + inc
            if c >= threshold:
                return False  # next tick would cross and emit a sample
        return True

    def leap(self, n: int) -> int:
        """Replay ``n`` guard-free ticks; returns how many ran.

        First the hardware advances.  While its ticks are *quiet* —
        RAPL holds its scale, and every active cluster stays unthrottled
        with an IPA grant covering its max-frequency power — no ceiling,
        scale or frequency can move: the previous tick, run at the
        span's constant inputs, already wrote every ceiling, so each
        write would repeat, and so would the governor's frequencies.
        Thermal then reports how many ticks its grants hold, RAPL
        advances up to that many while its scale holds, and thermal and
        the clock commit the ticks RAPL advanced, each model in one pass
        over its own state (:meth:`_quiet`).  A tick that is not quiet
        steps through the public per-tick methods, stopping after a tick
        that moves a DVFS frequency, which ends the span; after one that
        moved no scale either, the quiet pass is tried again.  A whole
        leap steps tick by tick while the tracer records ``rapl``,
        ``thermal`` or ``dvfs`` (those methods emit every tick).
        Then the ``j`` ticks that ran are applied to the recorded
        targets.  The reordering is exact: nothing else runs inside a
        leap, and the recurrences read none of the recorded targets.
        """
        m = self.m
        sample, cluster_activity, other_w, cluster_util = self.rec.power_inputs
        m.last_power = sample
        package_w = sample.package_w
        cores_w = sample.cores_w
        dram_w = sample.dram_w
        rapl = m.rapl
        thermal = m.thermal
        dt = m.clock.dt_s
        tr = m.tracer
        quiet = tr is None or not (tr.rapl or tr.thermal or tr.dvfs)
        j = self._quiet(n) if quiet else 0
        rapl_step = rapl.step
        thermal_step = thermal.step
        throttle = thermal.apply_throttling
        governor = m.governor
        update = governor.update
        advance = m.clock.advance
        expect = self.freq_expect
        while j < n:
            if quiet:
                held = (rapl.scale, thermal.scales)
            j += 1
            rapl_step(governor, package_w, cores_w, dram_w, dt)
            thermal_step(package_w, dt)
            throttle(governor, cluster_activity, other_w, dt)
            update(cluster_util)
            advance()
            if governor.freq_mhz != expect:
                self.ended = True
                break
            if quiet and j < n and held == (rapl.scale, thermal.scales):
                j += self._quiet(n - j)
        if j < _BULK_MIN:
            for _ in range(j):
                _replay_tick(self.vecs, self.cells, self.chains)
        else:
            if self.block is None:
                self.block = _Block(self.vecs, self.cells, self.chains, j)
            self.block.apply(j)
        return j

    def _quiet(self, n: int) -> int:
        """Advance the hardware through up to ``n`` quiet ticks, one pass
        per model; returns how many ran."""
        m = self.m
        sample, cluster_activity, other_w, _util = self.rec.power_inputs
        package_w = sample.package_w
        dt = m.clock.dt_s
        j = m.thermal.quiet_ticks(cluster_activity, other_w, package_w, dt, n)
        if j:
            j = m.rapl.advance_quiet(package_w, sample.cores_w, sample.dram_w, dt, j)
            if j:
                m.thermal.advance_quiet(package_w, dt, j)
                m.clock.advance(j)
        return j

    # -- the pending-event queue --------------------------------------------

    def _due_crossing(self, at_s: float) -> int:
        """Smallest j >= 0 where the time guard fires: the exact float
        expression ``at_s <= now + dt + eps`` the guard evaluates."""
        clock = self.m.clock
        dt = clock.dt_s
        ticks0 = clock.ticks
        j = int((at_s - clock.now_s) / dt) - 2
        if j < 0:
            j = 0
        while not (at_s <= (ticks0 + j) * dt + dt + TIME_GUARD_EPS):
            j += 1
        return j

    def horizon(self) -> int | None:
        """Ticks to the earliest pending event (None: nothing pending).
        Rotations are not events here: :meth:`_rotate` bounds a leap by
        the next slot change separately."""
        rec = self.rec
        nearest: int | None = None

        # Workload phase changes: compute chains exhaust their phase.
        for chain in self.computes:
            step = 0.0
            for e in chain[1:]:
                step += e
            if step <= 0.0:
                continue
            k = int(chain[0].remaining / (step * (1.0 + _SLACK))) - 2
            if k < 0:
                k = 0
            if nearest is None or k < nearest:
                nearest = k

        # Thread wake-ups: exact tick-grid crossing of the wake time.
        clock = self.m.clock
        for t, _phase in rec.blocked:
            wake = t.wake_at_s
            if wake is None:
                continue  # sleeps forever (no until: caller's choice)
            k = grid_crossing(clock.ticks, clock.dt_s, wake)
            if nearest is None or k < nearest:
                nearest = k

        # Timed faults: the guard fires one tick before the due time.
        for at_s in rec.time_guards:
            k = self._due_crossing(at_s)
            if nearest is None or k < nearest:
                nearest = k

        # Overflow crossings: counter distance to the armed threshold.
        for chain in self.overflows:
            event = chain[0]
            threshold = event._next_overflow
            if threshold is None:
                continue
            step = 0.0
            v = event.count
            for inc in chain[1:]:
                step += inc
                v = v + inc
            if step <= 0.0:
                continue
            k = int((threshold - v) / (step * (1.0 + _SLACK))) - 2
            if k < 0:
                k = 0
            if nearest is None or k < nearest:
                nearest = k

        if nearest is not None and nearest > _MAX_LEAP:
            nearest = _MAX_LEAP
        return nearest

    # -- span driver ---------------------------------------------------------

    def drive(self, left: float) -> float:
        """Replay up to ``left`` ticks; returns the ticks still owed.

        Each leap runs to the nearest pending event or slot change,
        whichever comes first; the next one starts in the new slot."""
        while left > 0 and not self.ended:
            k = 0 if self.polling else self.horizon()
            if k is None or k > left:
                k = left
            if self.rotations:
                held = self._rotate(k if k > 0 else 1)
                if held is None:
                    break
                if held < k:
                    k = held
            if k <= 0:
                # Boundary region: step through it under full polling.
                if not self.guards_hold():
                    break
                k = 1
            left -= self.leap(k)
        return left


class AllDone:
    """``Machine.run_until_done``'s condition: every watched thread is done.

    Unlike an opaque predicate it cannot change inside a span: a thread
    retires only at a phase boundary, which kills the recorder.
    :func:`run_budget` therefore checks it between spans and lets each
    span leap straight to the deadline.  It rescans the threads only
    after the machine retired one since the last scan.
    """

    __slots__ = ("threads", "machine", "_seen", "_done")

    def __init__(self, threads, machine: "Machine"):
        self.threads = threads
        self.machine = machine
        self._seen = -1
        self._done = False

    def __call__(self) -> bool:
        retired = self.machine._retired
        if retired != self._seen:
            self._seen = retired
            self._done = all(t.done for t in self.threads)
        return self._done


class SchedCache:
    """Replays the scheduler's decision for pure-sticky placements.

    Installed on the machine by the event engine only (the ``ticks``
    reference calls the scheduler every tick, so a caching bug here is
    caught by the parity matrix).  A placement is cached only when it is
    provably side-effect-free to repeat: every runnable thread single-
    occupies the CPU it was already on (``cpu == last_cpu``), so the
    scheduler's sticky pass would reproduce it with no switch/migration
    accounting, no trace emission and untouched RNG.  The per-tick
    validation re-checks identity and order of the runnable set, each
    thread's current placement, the placed core's hotplug state, and
    that the thread's affinity is the *same object* it was placed under
    (``taskset`` installs a new set, invalidating the hit).  Placements
    reached through the empty-effective-mask fallback are never cached —
    a hit requires direct affinity membership, checked at store time —
    so the identity test is strictly conservative against
    ``Scheduler._usable``.
    """

    __slots__ = ("scheduler", "assignment", "threads", "cpus", "cores",
                 "affs", "valid")

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.assignment = None
        self.threads: list = []
        self.cpus: list[int] = []
        self.cores: list = []
        self.affs: list = []
        self.valid = False

    def lookup(self, runnable: list):
        sched = self.scheduler
        if (
            not self.valid
            or sched.migrate_jitter != 0.0
            or sched.rebalance_jitter != 0.0
        ):
            return None
        threads = self.threads
        if len(runnable) != len(threads):
            return None
        cpus = self.cpus
        cores = self.cores
        affs = self.affs
        for i, t in enumerate(runnable):
            if (
                t is not threads[i]
                or t.cpu != cpus[i]
                or t.affinity is not affs[i]
                or not cores[i].online
            ):
                return None
        return self.assignment

    def store(self, runnable: list, assignment: dict) -> None:
        self.valid = False
        if len(assignment) != len(runnable):
            return  # shared or unplaced: repeating has side effects
        placement: dict[int, int] = {}
        for cpu, entries in assignment.items():
            if len(entries) != 1:
                return
            t = entries[0].thread
            if t.cpu != cpu or t.last_cpu != cpu:
                return
            aff = t.affinity
            if aff is not None and cpu not in aff:
                return  # fallback-mode placement: never cache
            placement[id(t)] = cpu
        threads = []
        cpus = []
        cores = []
        affs = []
        topo_core = self.scheduler.topology.core
        for t in runnable:
            cpu = placement.get(id(t))
            if cpu is None:
                return
            threads.append(t)
            cpus.append(cpu)
            cores.append(topo_core(cpu))
            affs.append(t.affinity)
        self.assignment = assignment
        self.threads = threads
        self.cpus = cpus
        self.cores = cores
        self.affs = affs
        self.valid = True


def _record_ok(m: "Machine") -> bool:
    sched = m.scheduler
    return (
        sched.migrate_jitter == 0.0
        and sched.rebalance_jitter == 0.0
        and m.hooks_fastpath_safe()
    )


def run_budget(m: "Machine", left: float, done: Optional[AllDone] = None) -> None:
    """Run ``left`` ticks (``math.inf``: no limit), stopping early, between
    spans, once ``done()`` holds.

    A tick runs with a recorder attached when recording is safe (no
    scheduler jitter, only recorder-visible hooks), at least two ticks
    remain and no back-off is pending; a steady recording drives a
    :class:`_Span` over the rest of the budget.  After a killed recorder
    the loop runs a doubling count of plain ticks, capped at
    ``_BACKOFF_CAP``, before it records again.
    """
    record_ok = _record_ok(m)
    backoff = 0
    penalty = 1
    while left > 0:
        if done is not None and done():
            return
        if left >= 2 and record_ok and backoff == 0:
            rec = m._rec = TickRecorder()
            try:
                m.tick()
            finally:
                m._rec = None
            left -= 1
            if not rec.steady():
                # Hooks can be registered from inside control ops.
                record_ok = _record_ok(m)
                backoff = penalty
                if penalty < _BACKOFF_CAP:
                    penalty *= 2
                continue
            penalty = 1
            left = _Span(m, rec).drive(left)
        else:
            m.tick()
            left -= 1
            if backoff > 0:
                backoff -= 1
