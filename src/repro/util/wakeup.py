"""One armed timer for an owner with many deadlines."""

from __future__ import annotations

from typing import Callable, Optional

from repro.util.clock import Clock


class Wakeup:
    """Keeps at most one timer armed for an owner (a reliable stream, a
    delayed-ACK receiver, the invocation manager) that tracks its deadlines
    itself, under one invariant: **the armed instant is never later than the
    owner's earliest deadline**. Deadlines that disappear or move later do
    not touch the timer — the wake-up then fires early, finds nothing due
    and emits nothing — so only a deadline *earlier* than the armed instant
    costs a ``schedule`` call.

    ``on_due`` is handed the fire instant (read from ``clock``, never the
    machine clock), does what is due and returns the owner's earliest
    deadline after that, or ``None`` to go idle.
    """

    __slots__ = ("_clock", "_timers", "_on_due", "_handle", "_at")

    def __init__(self, clock: Clock, timers, on_due: Callable[[float], Optional[float]]):
        self._clock = clock
        self._timers = timers
        self._on_due = on_due
        self._handle = None
        #: Armed instant; ``None`` while idle, ``-inf`` once closed (no
        #: deadline is earlier, so nothing re-arms).
        self._at: Optional[float] = None

    def need(self, deadline: float) -> None:
        """The owner now has a deadline at ``deadline``: O(1), and a
        ``schedule`` call only when that is earlier than the armed instant."""
        if self._at is not None and self._at <= deadline:
            return
        if self._handle is not None:
            self._handle.cancel()
        self._at = deadline
        delay = max(0.0, deadline - self._clock.now())
        self._handle = self._timers.schedule(delay, self._fire)

    def close(self) -> None:
        """Disarm for good (the owner is being discarded)."""
        if self._handle is not None:
            self._handle.cancel()
        self._handle, self._at = None, float("-inf")

    def _fire(self) -> None:
        self._handle = None
        # Whatever ``on_due`` adds is not earlier than now and is covered by
        # the deadline it returns, so its own ``need`` calls cost nothing.
        self._at = now = self._clock.now()
        deadline = self._on_due(now)
        if self._at == now:  # else ``on_due`` closed us (a peer reset)
            self._at = None
            if deadline is not None:
                self.need(deadline)


__all__ = ["Wakeup"]
