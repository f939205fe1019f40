"""Snapshot-surface declarations.

Every stateful layer of the stack declares what a snapshot must carry
and what is merely a rebuildable cache, with the
:func:`snapshot_surface` class decorator:

* ``caches`` — attributes dropped at snapshot time and reconstructed on
  restore (identity-keyed memo dicts, generation-tagged dispatch
  entries, live tick recorders).  Dropping them must be *semantically
  free*: the restored object rebuilds them lazily and produces
  bit-identical results.
* ``rebuild`` — the method invoked after restore to re-initialize the
  dropped caches; required whenever ``caches`` is given (a class that
  drops caches without one raises :class:`TypeError` at decoration).

The decorator installs ``__getstate__``/``__setstate__`` accordingly and
records the declaration in :data:`SNAPSHOT_SURFACES`, the registry the
architecture docs and the surface test render so the snapshot contract
stays visible in one place.

All snapshot state lives in the object graph: a counter a restored run
must continue (the perf event ids, say) belongs to the layer that hands
it out, never to the process.
"""

from __future__ import annotations

import operator
from typing import Optional

#: class -> declaration, for docs and the surface self-test.
SNAPSHOT_SURFACES: dict[type, dict] = {}


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
    if caches and rebuild is None:
        raise TypeError(
            f"caches {caches!r} are dropped at snapshot time: name the "
            "rebuild method that restores them"
        )

    def decorate(cls: type) -> type:
        SNAPSHOT_SURFACES[cls] = {
            "state": tuple(state),
            "caches": tuple(caches),
            "rebuild": rebuild,
            "digest_exclude": tuple(digest_exclude),
            "note": note,
        }
        if rebuild is None:
            return cls  # no caches: default pickling already right
        rebuild_caches = operator.methodcaller(rebuild)

        def __getstate__(self) -> dict:
            state = dict(self.__dict__)
            for name in caches:
                state.pop(name, None)
            return state

        def __setstate__(self, state: dict) -> None:
            self.__dict__.update(state)
            rebuild_caches(self)

        cls.__getstate__ = __getstate__  # type: ignore[attr-defined]
        cls.__setstate__ = __setstate__  # type: ignore[attr-defined]
        return cls

    return decorate
