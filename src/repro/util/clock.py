"""Clock abstraction.

All middleware components read time through a :class:`Clock` so the same
protocol code runs under the deterministic simulation runtime (virtual time)
and the asyncio runtime (wall-clock time). Times are ``float`` seconds.
"""

from __future__ import annotations

import time
from typing import Protocol


class Clock(Protocol):
    """Read-only time source."""

    def now(self) -> float:
        """Current time in seconds. Monotonic, not wall-clock-anchored."""
        ...


class MonotonicClock:
    """Wall clock backed by :func:`time.monotonic`."""

    def now(self) -> float:
        return time.monotonic()


class ManualClock:
    """A clock advanced explicitly — handy for unit-testing state machines
    without a full simulator."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot move a clock backwards")
        self._now += dt

    def set(self, t: float) -> None:
        if t < self._now:
            raise ValueError("cannot move a clock backwards")
        self._now = t


__all__ = ["Clock", "MonotonicClock", "ManualClock"]
