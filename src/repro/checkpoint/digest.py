"""Canonical deep hashing of the snapshot surface.

``state_digest(obj)`` walks the same object graph a snapshot serializes
(honouring every layer's ``__getstate__`` cache exclusions) and folds it
into one SHA-256.  Two object graphs digest equal iff they are
bit-identical on the snapshot surface — which is what the engine
parity and chaos-survivor guarantees actually promise — so a test can
assert one digest equality instead of enumerating fields.

Stability rules (the digest must agree between a straight run and a
restored-and-continued run, in different processes):

* floats are hashed as their IEEE-754 little-endian bytes — no repr
  round-tripping;
* numpy arrays as dtype + shape + raw bytes;
* dicts in insertion order (deterministic: the simulation builds them in
  a deterministic order, and unpickling replays that order);
* sets by *sorted element digests*, because set iteration order depends
  on ``PYTHONHASHSEED`` for str elements;
* functions (incl. closures) as qualname + marshalled code + cell
  digests — behaviourally identical closures digest equal;
* shared references and cycles via a memo of traversal-order labels, so
  aliasing is part of the digest (two threads sharing one barrier differ
  from two threads with private barriers).
"""

from __future__ import annotations

import enum
import hashlib
import struct
import types
from collections import deque
from typing import Any

import numpy as np

from repro.checkpoint.surface import SNAPSHOT_SURFACES

#: Bump when the digest algorithm itself changes (recorded by snapshot
#: headers so a version mismatch is reported instead of a false diff).
DIGEST_ALGO = "repro-digest-v1"


class _Hasher:
    def __init__(self) -> None:
        self.h = hashlib.sha256(DIGEST_ALGO.encode())
        self.memo: dict[int, int] = {}
        self.keepalive: list = []  # pin ids for the walk's duration

    def tag(self, t: str) -> None:
        self.h.update(t.encode())

    def raw(self, b: bytes) -> None:
        self.h.update(struct.pack("<Q", len(b)))
        self.h.update(b)


def _digest_set(hasher: _Hasher, obj) -> None:
    parts = []
    for item in obj:
        sub = _Hasher()  # element digests are standalone (sets hold leaves)
        _walk(sub, item)
        parts.append(sub.h.digest())
    hasher.tag("set")
    hasher.raw(struct.pack("<Q", len(parts)))
    for p in sorted(parts):
        hasher.raw(p)


def _state_of(obj) -> Any:
    getstate = getattr(type(obj), "__getstate__", None)
    state: Any
    if getstate is not None:
        state = getstate(obj)
        spec = SNAPSHOT_SURFACES.get(type(obj))
        if spec and spec["digest_exclude"] and isinstance(state, dict):
            state = {
                k: v for k, v in state.items() if k not in spec["digest_exclude"]
            }
        return state
    state: Any = getattr(obj, "__dict__", None)
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        slot_state = {
            name: getattr(obj, name)
            for name in _all_slots(type(obj))
            if hasattr(obj, name)
        }
        return (state, slot_state)
    return state


def _all_slots(cls) -> list[str]:
    names: list[str] = []
    for klass in reversed(cls.__mro__):
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for s in slots:
            if s not in ("__dict__", "__weakref__"):
                names.append(s)
    return names


def _walk_code(hasher: _Hasher, code: types.CodeType) -> None:
    """Hash a code object structurally.

    ``marshal.dumps`` is *not* byte-stable across a dumps/loads round
    trip (string-interning back references change), so a restored
    closure would digest differently from the original if we hashed
    marshal output.  Hashing the behavioural fields directly is stable.
    """
    hasher.tag("code")
    hasher.raw(code.co_name.encode())
    hasher.h.update(
        struct.pack(
            "<6q",
            code.co_argcount,
            code.co_posonlyargcount,
            code.co_kwonlyargcount,
            code.co_nlocals,
            code.co_stacksize,
            code.co_flags,
        )
    )
    hasher.raw(code.co_code)
    for names in (code.co_names, code.co_varnames, code.co_freevars, code.co_cellvars):
        hasher.raw("\x00".join(names).encode())
    hasher.h.update(struct.pack("<Q", len(code.co_consts)))
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _walk_code(hasher, const)
        else:
            _walk(hasher, const)


def _walk(hasher: _Hasher, obj) -> None:
    h = hasher.h
    if obj is None:
        hasher.tag("N")
        return
    if obj is True:
        hasher.tag("T")
        return
    if obj is False:
        hasher.tag("F")
        return
    t = type(obj)
    if t is float:
        hasher.tag("f")
        h.update(struct.pack("<d", obj))
        return
    if t is int:
        hasher.tag("i")
        hasher.raw(obj.to_bytes((obj.bit_length() + 8) // 8 + 1, "little", signed=True))
        return
    if t is str:
        hasher.tag("s")
        hasher.raw(obj.encode("utf-8", "surrogatepass"))
        return
    if t is bytes:
        hasher.tag("b")
        hasher.raw(obj)
        return
    if t is complex:
        hasher.tag("c")
        h.update(struct.pack("<dd", obj.real, obj.imag))
        return

    # Containers and objects: cycle/aliasing handling first.
    oid = id(obj)
    label = hasher.memo.get(oid)
    if label is not None:
        hasher.tag("@")
        h.update(struct.pack("<Q", label))
        return
    hasher.memo[oid] = len(hasher.memo)
    hasher.keepalive.append(obj)

    if t in (list, tuple) or t is deque:
        hasher.tag("L" if t is list else ("D" if t is deque else "U"))
        h.update(struct.pack("<Q", len(obj)))
        for item in obj:
            _walk(hasher, item)
        return
    if t is dict:
        hasher.tag("M")
        h.update(struct.pack("<Q", len(obj)))
        for k, v in obj.items():
            _walk(hasher, k)
            _walk(hasher, v)
        return
    if t in (set, frozenset):
        _digest_set(hasher, obj)
        return
    if isinstance(obj, np.ndarray):
        hasher.tag("A")
        hasher.raw(str(obj.dtype).encode())
        hasher.raw(struct.pack(f"<{obj.ndim + 1}Q", obj.ndim, *obj.shape))
        hasher.raw(np.ascontiguousarray(obj).tobytes())
        return
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        hasher.tag("a")
        hasher.raw(str(obj.dtype).encode())
        hasher.raw(obj.tobytes())
        return
    if isinstance(obj, enum.Enum):
        hasher.tag("E")
        hasher.raw(type(obj).__qualname__.encode())
        hasher.raw(obj.name.encode())
        return
    if isinstance(obj, types.FunctionType):
        hasher.tag("fn")
        hasher.raw((obj.__module__ or "").encode())
        hasher.raw(obj.__qualname__.encode())
        _walk_code(hasher, obj.__code__)
        _walk(hasher, obj.__defaults__)
        cells = obj.__closure__ or ()
        h.update(struct.pack("<Q", len(cells)))
        for cell in cells:
            try:
                _walk(hasher, cell.cell_contents)
            except ValueError:
                hasher.tag("<empty-cell>")
        return
    if isinstance(obj, types.MethodType):
        hasher.tag("m")
        hasher.raw(obj.__func__.__qualname__.encode())
        _walk(hasher, obj.__self__)
        return
    if isinstance(obj, types.BuiltinFunctionType):
        hasher.tag("bf")
        hasher.raw((getattr(obj, "__module__", "") or "").encode())
        hasher.raw(obj.__qualname__.encode())
        return
    if isinstance(obj, type):
        hasher.tag("K")
        hasher.raw(obj.__module__.encode())
        hasher.raw(obj.__qualname__.encode())
        return

    # Generic object: class identity + snapshot-surface state.
    hasher.tag("O")
    hasher.raw(type(obj).__module__.encode())
    hasher.raw(type(obj).__qualname__.encode())
    state = _state_of(obj)
    if state is None and not hasattr(obj, "__dict__"):
        # Stateless-looking C objects (e.g. ``itertools.count``) carry
        # their state in ``__reduce__`` arguments instead.
        try:
            state = obj.__reduce_ex__(2)[1:3]
        except Exception:
            state = None
    _walk(hasher, state)


def state_digest(obj: Any) -> str:
    """Hex SHA-256 of ``obj``'s snapshot surface (see module docstring)."""
    hasher = _Hasher()
    _walk(hasher, obj)
    return hasher.h.hexdigest()
