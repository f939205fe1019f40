"""Snapshot-surface declarations.

Every stateful layer of the stack declares what a snapshot must carry
and what is merely a rebuildable cache, with the
:func:`snapshot_surface` class decorator:

* ``caches`` — attributes dropped at snapshot time and reconstructed on
  restore (identity-keyed memo dicts, generation-tagged dispatch
  entries, live tick recorders).  Dropping them must be *semantically
  free*: the restored object rebuilds them lazily and produces
  bit-identical results.
* ``rebuild`` — optional method name invoked after restore to
  re-initialize the dropped caches (defaults to empty containers via
  ``cache_factories``).

The decorator installs ``__getstate__``/``__setstate__`` accordingly and
records the declaration in :data:`SNAPSHOT_SURFACES`, the registry the
architecture docs and the surface test render so the snapshot contract
stays visible in one place.

Process-global counters that must survive a restore bit-identically
(e.g. the kernel perf event-id allocator) register themselves via
:func:`register_global_counter`; the snapshot envelope saves and
restores them alongside the object graph.  Registration also records
each counter's value at that moment, so :func:`reset_global_counters`
can hand a forked sweep worker the counters of a freshly imported
process.
"""

from __future__ import annotations

from typing import Callable, Optional

#: class -> declaration, for docs and the surface self-test.
SNAPSHOT_SURFACES: dict[type, dict] = {}

#: name -> (getter, setter) for process-global snapshot state.
GLOBAL_COUNTERS: dict[str, tuple[Callable[[], int], Callable[[int], None]]] = {}

#: name -> the counter's value when it was registered (at import).
_INITIAL_VALUES: dict[str, int] = {}


def register_global_counter(
    name: str, getter: Callable[[], int], setter: Callable[[int], None]
) -> None:
    """Expose a module-global counter to the snapshot envelope."""
    GLOBAL_COUNTERS[name] = (getter, setter)
    _INITIAL_VALUES[name] = getter()


def reset_global_counters() -> None:
    """Rewind every registered counter to its value at registration:
    the state a freshly imported process starts from."""
    set_global_counter_state(_INITIAL_VALUES)


def global_counter_state() -> dict[str, int]:
    """Current values of all registered global counters."""
    return {name: get() for name, (get, _set) in GLOBAL_COUNTERS.items()}


def set_global_counter_state(state: dict[str, int]) -> None:
    """Rewind global counters (e.g. to compare two runs built in one
    process: capture before run A, rewind before run B, and both hand
    out identical perf event ids)."""
    for name, value in state.items():
        entry = GLOBAL_COUNTERS.get(name)
        if entry is not None:
            entry[1](value)


def snapshot_surface(
    state: tuple[str, ...] = (),
    caches: tuple[str, ...] = (),
    rebuild: Optional[str] = None,
    digest_exclude: tuple[str, ...] = (),
    note: str = "",
):
    """Class decorator declaring a layer's snapshot surface.

    ``state`` is the complete list of serialized instance attributes —
    the static contract.  ``repro.analysis`` (rule ``SURFACE-DECL``)
    diffs it against every attribute the class body actually assigns,
    so a new mutable attribute cannot join (or silently miss) the
    pickle payload without this declaration being reviewed; the runtime
    registry test covers the complementary direction, asserting every
    stateful layer is decorated at all.

    ``digest_exclude`` names attributes that *are* serialized (they must
    survive a restore — e.g. which engine path to use) but are
    configuration rather than machine state, so ``state_digest`` ignores
    them: an ``events`` and a ``ticks`` run of the same workload digest
    equal.
    """

    def decorate(cls: type) -> type:
        SNAPSHOT_SURFACES[cls] = {
            "state": tuple(state),
            "caches": tuple(caches),
            "rebuild": rebuild,
            "digest_exclude": tuple(digest_exclude),
            "note": note,
        }
        if not caches:
            return cls  # pure declaration: default pickling already right

        def __getstate__(self) -> dict:
            state = dict(self.__dict__)
            for name in caches:
                state.pop(name, None)
            return state

        def __setstate__(self, state: dict) -> None:
            self.__dict__.update(state)
            if rebuild is not None:
                getattr(self, rebuild)()

        cls.__getstate__ = __getstate__  # type: ignore[attr-defined]
        cls.__setstate__ = __setstate__  # type: ignore[attr-defined]
        return cls

    return decorate
