"""The monitor-probe stream: structured primitive-level events.

Spans answer "what caused what"; probes answer "what happened, exactly" at
the points the runtime-verification monitors care about: a variable sample
published or served from cache, an event raised or delivered, an RPC
issued or terminated, a reliable frame dispatched, a file revision
completed. Each probe is one :class:`MonitorEvent` — a flat record cheap
enough to mint on the hot path *when someone is listening*.

Nobody listening is the common case, and it costs one attribute read: every
emit site guards on :attr:`ProbeBus.enabled`, which is True exactly while
at least one subscriber is attached. With the bus idle the data path is
behavior-identical to a build without probes at all (the packet-trace
parity test in ``tests/integration/test_verification.py`` pins this).

Probes are a separate stream from the :class:`~repro.observability.trace.Tracer`
on purpose: tracing changes the wire format (context tails) and allocates
span objects per operation, while probes are wire-inert and only exist
in-process. Monitors consume both — probes for primitive-level temporal
specs, spans for causal attribution (a violation records the ambient trace
context when tracing is on).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.util.clock import Clock


class MonitorEvent:
    """One observed fact on the monitored stream.

    ``kind`` is the probe site ("var.publish", "rpc.done", ...), ``name``
    the primitive name at that site, ``key`` the default correlation key
    (the name unless the site supplies something finer), ``container`` the
    observing container, ``time`` the (virtual) clock reading, ``attrs``
    site-specific details.
    """

    __slots__ = ("kind", "name", "key", "container", "time", "attrs")

    def __init__(
        self,
        kind: str,
        name: str,
        container: str,
        time: float,
        key: object = None,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.kind = kind
        self.name = name
        self.key = key if key is not None else name
        self.container = container
        self.time = time
        self.attrs = attrs if attrs is not None else {}

    def __repr__(self) -> str:  # debugging/test failure output
        return (
            f"MonitorEvent({self.kind!r}, {self.name!r}, key={self.key!r}, "
            f"container={self.container!r}, t={self.time:.6f}, {self.attrs!r})"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "key": self.key,
            "container": self.container,
            "time": self.time,
            "attrs": dict(self.attrs),
        }


ProbeListener = Callable[[MonitorEvent], None]


class ProbeBus:
    """Per-container fan-out point for :class:`MonitorEvent`.

    Emit sites guard on :attr:`enabled` (kept equal to "any listener
    attached") so an idle bus costs one attribute read and no allocation.
    """

    __slots__ = ("container_id", "enabled", "_clock", "_listeners")

    def __init__(self, container_id: str, clock: Clock):
        self.container_id = container_id
        self.enabled = False
        self._clock = clock
        self._listeners: List[ProbeListener] = []

    def subscribe(self, listener: ProbeListener) -> ProbeListener:
        """Attach ``listener`` (called synchronously per event) and arm the
        bus. Returns the listener for symmetric unsubscribe."""
        self._listeners.append(listener)
        self.enabled = True
        return listener

    def emit(
        self,
        kind: str,
        name: str,
        key: object = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        """Mint one event and hand it to every listener. Call only behind
        an ``enabled`` check — the guard is the hot-path contract."""
        event = MonitorEvent(
            kind, name, self.container_id, self._clock.now(), key=key, attrs=attrs
        )
        for listener in self._listeners:
            listener(event)


__all__ = ["MonitorEvent", "ProbeBus", "ProbeListener"]
