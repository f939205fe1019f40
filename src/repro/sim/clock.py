"""Virtual time."""

from __future__ import annotations

from repro.checkpoint.surface import snapshot_surface


@snapshot_surface(
    state=("dt_s", "ticks", "now_s"),
    note="Pure state (dt_s, ticks, now_s); slots-only class, pickled "
    "via the default slots protocol."
)
class SimClock:
    """Monotonic simulated time advancing in fixed ticks.

    ``now_s`` is kept as a plain attribute (recomputed as ``ticks * dt_s``
    on every advance, so it cannot drift) because it is read on hot paths
    far more often than it changes.
    """

    __slots__ = ("dt_s", "ticks", "now_s")

    def __init__(self, dt_s: float = 0.01):
        if dt_s <= 0:
            raise ValueError("tick length must be positive")
        self.dt_s = dt_s
        self.ticks = 0
        self.now_s = 0.0

    def advance(self, n: int = 1) -> None:
        """Advance ``n`` ticks: the same state as ``n`` single advances."""
        self.ticks += n
        self.now_s = self.ticks * self.dt_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(t={self.now_s:.3f}s, dt={self.dt_s}s)"
