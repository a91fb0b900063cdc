"""The discrete-event simulator.

A classic calendar-queue kernel: callbacks are scheduled at absolute virtual
times and executed in (time, insertion-order) order. Ties are broken by
insertion order, which — combined with seeded RNGs everywhere — makes whole
experiments bit-reproducible.

Cancelled timers stay in the heap (removing an arbitrary heap entry is
O(n)), but the kernel tracks the cancelled count so :attr:`Simulator.pending`
is O(1), and compacts the heap in place once cancelled entries outnumber
live ones — long chaos campaigns cancel retransmit timers by the thousands
and must not grow the queue unboundedly.

Fleet-scale missions push O(100k+) in-flight events through this loop, so
a heap entry is a plain tuple ``(time, seq, callback, arg, timer)``. ``seq``
is unique, so ``heapq`` orders entries in C by ``(time, seq)`` and never
compares past it. ``timer`` is the :class:`TimerHandle` of a cancellable
timer and None for a :meth:`Simulator.schedule_fire` entry, which allocates
nothing but its tuple. :meth:`Simulator.run` is the one pop loop.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: Never bother compacting queues smaller than this.
_COMPACT_MIN_QUEUE = 64

#: (time, seq, callback, arg or None, TimerHandle or None)
_Entry = Tuple[float, int, Callable[..., None], Any, Optional["TimerHandle"]]


class TimerHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation.

    The one object a cancellable timer keeps: its heap entry points at it,
    and it holds the cancel and done state the pop loop reads."""

    __slots__ = ("_sim", "_when", "_cancelled", "_done")

    def __init__(self, sim: "Simulator", when: float):
        self._sim = sim
        self._when = when
        self._cancelled = False
        #: Set once the entry has executed, so a late cancel() does not
        #: count an entry that has left the heap as cancelled-in-heap.
        self._done = False

    def cancel(self) -> None:
        if self._cancelled:
            return
        self._cancelled = True
        if not self._done:
            self._sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def when(self) -> float:
        return self._when


class Simulator:
    """Single-threaded virtual-time event loop.

    Also implements the :class:`repro.util.Clock` protocol, so components can
    be handed the simulator itself as their time source.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: List[_Entry] = []
        self._seq = 0
        self._running = False
        self._events_executed = 0
        #: Cancelled-but-still-heaped entries; pending = len(queue) - this.
        self._cancelled = 0

    # -- Clock protocol ----------------------------------------------------
    def now(self) -> float:
        return self._now

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` ``delay`` seconds from now (>= 0)."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        timer = TimerHandle(self, when)
        heappush(self._queue, (when, self._seq, callback, None, timer))
        self._seq += 1
        return timer

    def schedule_fire(
        self, when: float, callback: Callable[..., None], arg: Any = None
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`: run ``callback(arg)`` at
        ``when``, or ``callback()`` when ``arg`` is None. No handle is
        allocated and the entry cannot be cancelled. The network's delivery
        path schedules hundreds of thousands of these per fleet mission;
        the ordering is the same as :meth:`schedule_at`'s."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        heappush(self._queue, (when, self._seq, callback, arg, None))
        self._seq += 1

    def call_soon(self, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` at the current time, after already-queued events
        scheduled for this instant."""
        return self.schedule(0.0, callback)

    # -- cancellation accounting -------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled * 2 > len(self._queue)
            and len(self._queue) >= _COMPACT_MIN_QUEUE
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (run() may be
        iterating over the same list object)."""
        self._queue[:] = [
            entry for entry in self._queue
            if entry[4] is None or not entry[4]._cancelled
        ]
        heapify(self._queue)
        self._cancelled = 0

    # -- execution ---------------------------------------------------------
    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending(self) -> int:
        return len(self._queue) - self._cancelled

    def step(self) -> bool:
        """Execute the next event: one event of :meth:`run`. Returns False
        when the queue held none."""
        executed = self._events_executed
        self.run(max_events=1)
        return self._events_executed != executed

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed. Returns the final virtual time.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, so periodic measurements line up.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        try:
            while queue:
                when, _seq, callback, arg, timer = queue[0]
                if timer is not None and timer._cancelled:
                    heappop(queue)
                    self._cancelled -= 1
                    continue
                if until is not None and when > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                if timer is not None:
                    timer._done = True
                self._now = when
                self._events_executed += 1
                executed += 1
                if arg is None:
                    callback()
                else:
                    callback(arg)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` virtual seconds from the current time."""
        return self.run(until=self._now + duration)


__all__ = ["Simulator", "TimerHandle"]
