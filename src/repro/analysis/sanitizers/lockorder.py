"""Lock-order recorder for the wall-clock runtime.

Eraser-style lockset discipline: every ``TrackedLock`` acquisition while
other tracked locks are held adds edges to a global acquisition graph
(held → acquiring). A cycle in that graph is a lock-order *inversion* —
two threads that interleave unluckily will deadlock — reported the moment
the second ordering is observed, long before the deadlock ever fires in
the field.

Enable it by wrapping the runtime's locks (``AsyncRuntime(
lock_sanitizer=True)`` wires the ``UdpNetwork`` registry lock
automatically)::

    recorder = LockOrderRecorder()
    lock = recorder.wrap(threading.Lock(), "egress.queue")

Disabled (the default) nothing is wrapped and the runtime uses plain
``threading`` primitives — zero overhead.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Set


class LockOrderRecorder:
    """Builds the acquisition graph and detects order inversions."""

    def __init__(self) -> None:
        self._tls = threading.local()
        #: directed edges: lock name -> set of names acquired while held
        self._edges: Dict[str, Set[str]] = {}
        self._graph_lock = threading.Lock()
        self.inversions: List[Dict[str, object]] = []
        self.acquisitions = 0

    # -- wrapping -----------------------------------------------------------
    def wrap(self, lock: Any, name: str) -> "TrackedLock":
        return TrackedLock(lock, name, self)

    # -- per-thread held stack ---------------------------------------------
    def _held(self) -> List[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- graph maintenance --------------------------------------------------
    def note_before_acquire(self, name: str) -> None:
        """Record ordering edges *before* blocking, so an actual deadlock
        still leaves the inversion on record."""
        held = self._held()
        if not held:
            return
        with self._graph_lock:
            for prior in held:
                if prior == name:
                    continue  # re-entrant use of one lock is not an ordering
                edges = self._edges.setdefault(prior, set())
                if name in edges:
                    continue
                edges.add(name)
                cycle = self._find_path(name, prior)
                if cycle is not None:
                    self.inversions.append(
                        {
                            "held": prior,
                            "acquiring": name,
                            "cycle": [prior] + cycle,
                            "thread": threading.current_thread().name,
                        }
                    )

    def note_acquired(self, name: str) -> None:
        self.acquisitions += 1
        self._held().append(name)

    def note_released(self, name: str) -> None:
        held = self._held()
        # Remove the most recent acquisition of this name (locks are not
        # always released LIFO across callbacks).
        for index in range(len(held) - 1, -1, -1):
            if held[index] == name:
                del held[index]
                return

    def _find_path(self, start: str, goal: str) -> Optional[List[str]]:
        """DFS for a path start → … → goal through the edge set (caller
        holds the graph lock)."""
        seen = {start}
        stack: List[List[str]] = [[start]]
        while stack:
            path = stack.pop()
            node = path[-1]
            if node == goal:
                return path
            for successor in sorted(self._edges.get(node, ())):
                if successor not in seen:
                    seen.add(successor)
                    stack.append(path + [successor])
        return None

    def edges(self) -> Dict[str, Set[str]]:
        """A snapshot of the observed acquisition graph (held → acquired).

        The static REP007 analysis cross-checks against this: every edge a
        live run records must already be in the static lock graph (see
        ``repro.analysis.rules.rep007_lockorder.LockGraph.covers``).
        """
        with self._graph_lock:
            return {name: set(succ) for name, succ in self._edges.items()}

    # -- reporting ----------------------------------------------------------
    def report_into(self, recorder: Any = None, metrics: Any = None) -> int:
        """Push every recorded inversion into a FlightRecorder and/or a
        MetricsRegistry; returns the inversion count."""
        for inversion in self.inversions:
            if recorder is not None:
                recorder.record(
                    "sanitizer",
                    check="lock-order",
                    held=inversion["held"],
                    acquiring=inversion["acquiring"],
                    cycle="->".join(inversion["cycle"]),
                )
        if metrics is not None and self.inversions:
            metrics.counter("lock_order_inversions").inc(len(self.inversions))
        return len(self.inversions)


class TrackedLock:
    """A lock proxy feeding a :class:`LockOrderRecorder`.

    Duck-types ``threading.Lock`` closely enough to back a
    ``threading.Condition`` (acquire/release/context manager).
    """

    def __init__(self, lock: Any, name: str, recorder: LockOrderRecorder) -> None:
        self._lock = lock
        self.name = name
        self._recorder = recorder

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if blocking:
            # Edges are recorded pre-acquire so a real deadlock still
            # documents itself; try-acquires probe and add no ordering.
            self._recorder.note_before_acquire(self.name)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._recorder.note_acquired(self.name)
        return acquired

    def release(self) -> None:
        self._lock.release()
        self._recorder.note_released(self.name)

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __repr__(self) -> str:
        return f"<TrackedLock {self.name} {self._lock!r}>"


__all__ = ["LockOrderRecorder", "TrackedLock"]
