"""The narrow interface primitive managers use to reach their container.

Keeping this a Protocol (instead of importing ServiceContainer) breaks the
import cycle and documents exactly what a primitive may do: classify work
for the scheduler, move frames, and consult the name directory.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.container.config import ContainerConfig
from repro.container.directory import Directory
from repro.encoding.codec import Codec
from repro.observability.metrics import MetricsRegistry
from repro.observability.probes import ProbeBus
from repro.observability.recorder import FlightRecorder
from repro.observability.trace import Tracer
from repro.protocol.frames import Frame, MessageKind
from repro.transport.addressing import GroupName
from repro.util.clock import Clock


class PrimitiveHost(Protocol):
    """What a :class:`ServiceContainer` provides to its primitive managers."""

    @property
    def id(self) -> str:
        """The local container id."""
        ...

    @property
    def clock(self) -> Clock:
        ...

    @property
    def timers(self):
        """Anything with ``schedule(delay, fn) -> cancellable handle``."""
        ...

    @property
    def codec(self) -> Codec:
        """The application-data codec (PEPt Encoding plug-in)."""
        ...

    @property
    def config(self) -> ContainerConfig:
        ...

    @property
    def directory(self) -> Directory:
        ...

    @property
    def tracer(self) -> Tracer:
        """The container's causal tracer (no-op unless enabled)."""
        ...

    @property
    def metrics(self) -> MetricsRegistry:
        """The container's unified metrics registry."""
        ...

    @property
    def recorder(self) -> FlightRecorder:
        """The container's bounded flight recorder."""
        ...

    @property
    def probes(self) -> ProbeBus:
        """The monitor-probe stream (emit only behind ``probes.enabled``)."""
        ...

    def submit(self, label: str, fn: Callable[[], None]) -> None:
        """Hand work to the pluggable scheduler under a primitive label."""
        ...

    def send_unicast(self, peer: str, frame: Frame) -> bool:
        """Best-effort unicast to a container by id. False if unresolvable."""
        ...

    def send_reliable(self, peer: str, kind: MessageKind, payload: bytes) -> None:
        """Send on the per-peer ordered reliable stream."""
        ...

    def send_group(self, group: GroupName, frame: Frame) -> None:
        ...

    def join_group(self, group: GroupName) -> None:
        ...

    def leave_group(self, group: GroupName) -> None:
        ...

    def note_malformed(self, frame: Frame, exc: Exception) -> None:
        """Count a frame whose payload did not decode (admission scoring,
        flight recorder)."""
        ...

    def announce_soon(self) -> None:
        """Ask the container to re-announce (our offers changed)."""
        ...

    def emergency(self, reason: str) -> None:
        """Trigger the programmed emergency procedure (§4.3)."""
        ...


__all__ = ["PrimitiveHost"]
