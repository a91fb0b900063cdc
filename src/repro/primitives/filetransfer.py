"""The File-based Transmission primitive (§4.4).

"A protocol loosely based on Starburst MFTP" with three phases:

1. **announce** — the publisher advertises ``(name, revision, size,
   chunk_size, total_chunks)`` on the control group; interested services
   subscribe with a reliable unicast message;
2. **transfer** — the publisher multicasts numbered chunks to the file's
   group, each due one ``file_chunk_interval`` after the one before (or
   unicasts them per subscriber when ``multicast=False``, the baseline of
   experiment E4);
3. **completion** — the publisher polls subscribers; complete ones ACK and
   are removed, incomplete ones NACK with a *compressed* (run-length)
   missing-chunk list; the next round retransmits only the union of missing
   chunks, iterating "until the subscribers list is empty".

Phases overlap per subscriber: a service subscribing mid-transfer receives
the remaining chunks live and NACKs the ones it missed. Revision bumps
restart collection. Same-container subscribers are served by the **bypass**:
"the transfer is bypassed by the container as direct access to the
resource".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.primitives import wire
from repro.primitives.host import PrimitiveHost
from repro.protocol.frames import Frame, MessageKind
from repro.transport.addressing import CONTROL_GROUP, file_group
from repro.util.errors import ConfigurationError

OnComplete = Callable[[bytes, int], None]  # (data, revision)
OnProgress = Callable[[int, int], None]  # (chunks received, total)
OnRevision = Callable[[int], str]  # new revision -> "restart" | "ignore"

#: Most chunks one pacing-timer firing sends. A timer that fires late (a
#: wall-clock loop ticks in milliseconds, chunks are due every 0.2 ms)
#: sends what has fallen due, but a long stall is not repaid in full: a
#: 50 ms hiccup must not dump 250 KiB into a socket buffer.
_MAX_CATCHUP_CHUNKS = 16
#: How long the publisher waits for completion ACK/NACKs per round.
FILE_STATUS_TIMEOUT = 0.05
#: Retransmission rounds before stragglers are dropped.
FILE_MAX_ROUNDS = 50


@dataclass
class FileResource:
    """A published file: the unit the announce phase advertises."""

    name: str
    data: bytes
    revision: int
    chunk_size: int
    service: str = ""
    #: Trace context of the publish; rides every announce/chunk frame.
    trace: object = None

    @property
    def total_chunks(self) -> int:
        if not self.data:
            return 1  # an empty file still needs one (empty) chunk
        return (len(self.data) + self.chunk_size - 1) // self.chunk_size

    def chunk(self, index: int) -> bytes:
        start = index * self.chunk_size
        return self.data[start : start + self.chunk_size]

    def announce_doc(self) -> dict:
        return {
            "name": self.name,
            "revision": self.revision,
            "size": len(self.data),
            "chunk_size": self.chunk_size,
            "total_chunks": self.total_chunks,
        }


@dataclass
class _Session:
    """Publisher-side transfer state for one resource."""

    resource: FileResource
    pending: Set[str] = field(default_factory=set)  # incomplete subscribers
    queue: List[int] = field(default_factory=list)  # chunks left this round
    missing: Set[int] = field(default_factory=set)  # NACK union for next round
    answered: Set[str] = field(default_factory=set)  # replied this poll
    round: int = 0
    in_transfer: bool = False
    awaiting_status: bool = False
    silent_polls: int = 0
    #: The armed timer only: a fired handle keeps its callback, which
    #: closes over the session, and would pin the file bytes in a cycle.
    timer: object = None
    due: float = 0.0  # when the next chunk of this round may leave
    chunks_sent: int = 0


@dataclass
class FileSubscription:
    """Subscriber-side state for one resource."""

    name: str
    on_complete: OnComplete
    on_progress: Optional[OnProgress]
    on_revision: Optional[OnRevision]
    service: str
    _manager: "FileTransferManager" = field(repr=False, default=None)
    revision: int = 0
    total: Optional[int] = None
    size: Optional[int] = None
    chunks: Dict[int, bytes] = field(default_factory=dict)
    provider: Optional[str] = None
    #: Trace context learned from the publisher's announce/chunk frames.
    trace: object = None
    subscribed_to: Set[str] = field(default_factory=set)
    completed_revision: int = 0
    active: bool = True
    bypassed: bool = False

    @property
    def complete(self) -> bool:
        return self.total is not None and len(self.chunks) == self.total

    def cancel(self) -> None:
        self._manager.unsubscribe(self)


class FileTransferManager:
    """Owns both sides of the file primitive for one container."""

    def __init__(self, host: PrimitiveHost):
        self._host = host
        self._resources: Dict[str, FileResource] = {}
        self._sessions: Dict[str, _Session] = {}
        self._subscriptions: Dict[str, List[FileSubscription]] = {}
        self.bypassed_transfers = 0
        self.completed_transfers = 0
        self.dropped_stragglers = 0

    # -- publisher side -----------------------------------------------------
    def publish(
        self,
        name: str,
        data: bytes,
        revision: Optional[int] = None,
        service: str = "",
    ) -> FileResource:
        """Publish (or re-publish with a new revision) a file resource."""
        existing = self._resources.get(name)
        if revision is None:
            revision = existing.revision + 1 if existing else 1
        elif existing and revision <= existing.revision:
            raise ConfigurationError(
                f"revision {revision} of {name!r} is not newer than "
                f"{existing.revision}"
            )
        resource = FileResource(
            name=name,
            data=bytes(data),
            revision=revision,
            chunk_size=self._host.config.file_chunk_size,
            service=service,
        )
        self._host.metrics.counter("file_publishes").inc()
        span = self._host.tracer.start_span(
            f"file:{name}", "file.publish", revision=revision, size=len(resource.data)
        )
        resource.trace = self._host.tracer.context_of(span)
        self._host.tracer.finish(span)
        self._resources[name] = resource
        self._host.announce_soon()
        self._broadcast_announce(resource)
        # Local subscribers: the §4.4 bypass — direct access, no transfer.
        for sub in list(self._subscriptions.get(name, [])):
            self._bypass_deliver(sub, resource)
        session = self._sessions.get(name)
        if session is not None and session.pending:
            # Revision changed mid-transfer: restart the round with the new
            # content for everyone still pending.
            session.resource = resource
            session.queue = list(range(resource.total_chunks))
            session.missing.clear()
            session.round = 0
            self._continue_transfer(session)
        return resource

    def withdraw(self, name: str) -> None:
        self._resources.pop(name, None)
        session = self._sessions.pop(name, None)
        if session is not None and session.timer is not None:
            if hasattr(session.timer, "cancel"):
                session.timer.cancel()
        self._host.announce_soon()

    def withdraw_service(self, service: str) -> None:
        for name in [n for n, r in self._resources.items() if r.service == service]:
            self.withdraw(name)

    def offers(self) -> List[dict]:
        return [
            {
                "name": r.name,
                "revision": r.revision,
                "size": len(r.data),
                "chunk_size": r.chunk_size,
            }
            for r in sorted(self._resources.values(), key=lambda r: r.name)
        ]

    def resource(self, name: str) -> Optional[FileResource]:
        return self._resources.get(name)

    # -- subscriber side ----------------------------------------------------
    def subscribe(
        self,
        name: str,
        on_complete: OnComplete,
        on_progress: Optional[OnProgress] = None,
        on_revision: Optional[OnRevision] = None,
        service: str = "",
    ) -> FileSubscription:
        """Subscribe to a file resource by name.

        ``on_complete`` fires for the current revision and every later one
        while the subscription stays active.
        """
        subscription = FileSubscription(
            name=name,
            on_complete=on_complete,
            on_progress=on_progress,
            on_revision=on_revision,
            service=service,
            _manager=self,
        )
        self._subscriptions.setdefault(name, []).append(subscription)
        local = self._resources.get(name)
        if local is not None:
            self._bypass_deliver(subscription, local)
            return subscription
        self._host.join_group(file_group(name))
        self._request_from_providers(subscription)
        return subscription

    def unsubscribe(self, subscription: FileSubscription) -> None:
        subscription.active = False
        subs = self._subscriptions.get(subscription.name, [])
        if subscription in subs:
            subs.remove(subscription)
        if not subs:
            self._subscriptions.pop(subscription.name, None)
            if subscription.name not in self._resources:
                self._host.leave_group(file_group(subscription.name))

    def unsubscribe_service(self, service: str) -> None:
        for subs in list(self._subscriptions.values()):
            for sub in [s for s in subs if s.service == service]:
                self.unsubscribe(sub)

    # -- directory hooks ------------------------------------------------------
    def on_provider_up(self, container: str) -> None:
        record = self._host.directory.record(container)
        if record is None:
            return
        for name, subs in self._subscriptions.items():
            if name in record.files:
                for sub in subs:
                    if sub.active and not sub.complete:
                        self._send_subscribe(sub, container)

    def on_subscriber_down(self, container: str) -> None:
        for session in self._sessions.values():
            session.pending.discard(container)

    # -- frame input -----------------------------------------------------------
    def on_announce_frame(self, frame: Frame) -> None:
        doc, trace = wire.decode_traced(wire.FILE_ANNOUNCE_SCHEMA, frame.payload)
        for sub in list(self._subscriptions.get(doc["name"], [])):
            if not sub.active:
                continue
            if doc["revision"] > sub.revision:
                action = "restart"
                if sub.on_revision is not None and sub.revision > 0:
                    action = sub.on_revision(doc["revision"])
                if action == "restart":
                    sub.revision = doc["revision"]
                    sub.total = doc["total_chunks"]
                    sub.size = doc["size"]
                    sub.chunks.clear()
                    sub.trace = trace
                    self._send_subscribe(sub, frame.source)
            elif doc["revision"] == sub.revision and sub.total is None:
                sub.total = doc["total_chunks"]
                sub.size = doc["size"]

    def on_subscribe_frame(self, frame: Frame) -> None:
        doc = wire.decode(wire.FILE_SUBSCRIBE_SCHEMA, frame.payload)
        resource = self._resources.get(doc["name"])
        if resource is None:
            return
        session = self._sessions.get(doc["name"])
        if session is None or session.resource.revision != resource.revision:
            session = _Session(resource=resource)
            self._sessions[doc["name"]] = session
        session.pending.add(doc["subscriber"])
        if not session.in_transfer and not session.awaiting_status:
            session.queue = list(range(resource.total_chunks))
            session.round = 0
            self._continue_transfer(session)
        # else: late join (§4.4) — it catches up at the completion phase.

    def on_chunk_frame(self, frame: Frame) -> None:
        doc, trace = wire.decode_traced(wire.FILE_CHUNK_SCHEMA, frame.payload)
        for sub in list(self._subscriptions.get(doc["name"], [])):
            if not sub.active or sub.complete:
                continue
            if doc["revision"] < sub.revision:
                continue  # stale revision still in flight
            if doc["revision"] > sub.revision:
                action = "restart"
                if sub.on_revision is not None and sub.revision > 0:
                    action = sub.on_revision(doc["revision"])
                if action != "restart":
                    continue
                sub.revision = doc["revision"]
                sub.chunks.clear()
            sub.total = doc["total"]
            sub.provider = frame.source
            if trace is not None:
                sub.trace = trace
            if doc["index"] not in sub.chunks:
                sub.chunks[doc["index"]] = doc["data"]
                if sub.on_progress is not None:
                    self._host.submit(
                        "file", lambda s=sub: s.on_progress(len(s.chunks), s.total)
                    )
            if sub.complete:
                self._complete_subscription(sub, frame.source)

    def on_status_request_frame(self, frame: Frame) -> None:
        doc = wire.decode(wire.FILE_STATUS_REQUEST_SCHEMA, frame.payload)
        for sub in list(self._subscriptions.get(doc["name"], [])):
            if not sub.active:
                continue
            if sub.revision != doc["revision"]:
                continue
            if sub.complete:
                self._send_ack(sub, frame.source)
            else:
                self._send_nack(sub, frame.source)

    def on_completion_ack_frame(self, frame: Frame) -> None:
        doc = wire.decode(wire.FILE_ACK_SCHEMA, frame.payload)
        session = self._sessions.get(doc["name"])
        if session is None or session.resource.revision != doc["revision"]:
            return
        session.pending.discard(doc["subscriber"])
        session.answered.add(doc["subscriber"])

    def on_completion_nack_frame(self, frame: Frame) -> None:
        doc = wire.decode(wire.FILE_NACK_SCHEMA, frame.payload)
        session = self._sessions.get(doc["name"])
        if session is None or session.resource.revision != doc["revision"]:
            return
        session.answered.add(doc["subscriber"])
        session.missing.update(wire.indices_from_ranges(doc["missing"]))

    # -- publisher transfer machinery -------------------------------------------
    def _broadcast_announce(self, resource: FileResource) -> None:
        payload = wire.encode(
            wire.FILE_ANNOUNCE_SCHEMA, resource.announce_doc(), trace=resource.trace
        )
        self._host.send_group(
            CONTROL_GROUP,
            Frame(kind=MessageKind.FILE_ANNOUNCE, source=self._host.id, payload=payload),
        )

    def _continue_transfer(self, session: _Session) -> None:
        """Start (or restart) a round: its first chunk is due now."""
        session.in_transfer = True
        session.awaiting_status = False
        if session.timer is not None and hasattr(session.timer, "cancel"):
            session.timer.cancel()
        session.due = self._host.clock.now()
        self._send_due_chunks(session)

    def _send_due_chunks(self, session: _Session) -> None:
        """Pacing-timer body: send every chunk that has fallen due, re-arm
        for the next due instant. On a clock that stands still inside a
        callback (the simulator) exactly one chunk is ever due."""
        session.timer = None
        if not session.pending:
            session.in_transfer = False
            return
        if not session.queue:
            self._start_completion_poll(session)
            return
        interval = self._host.config.file_chunk_interval
        now = self._host.clock.now()
        # Unpaced (0) still yields to the loop between chunks.
        for _ in range(_MAX_CATCHUP_CHUNKS if interval > 0 else 1):
            self._send_chunk(session, session.queue.pop(0))
            session.due += interval
            if not session.queue or session.due > now:
                break
        if session.due < now:
            session.due = now  # the rest of the stall is forgiven
        session.timer = self._host.timers.schedule(
            session.due - now, lambda: self._send_due_chunks(session)
        )

    def _send_chunk(self, session: _Session, index: int) -> None:
        resource = session.resource
        payload = wire.encode(
            wire.FILE_CHUNK_SCHEMA,
            {
                "name": resource.name,
                "revision": resource.revision,
                "index": index,
                "total": resource.total_chunks,
                "data": resource.chunk(index),
            },
            trace=resource.trace,
        )
        frame = Frame(kind=MessageKind.FILE_CHUNK, source=self._host.id, payload=payload)
        if getattr(self._host.config, "file_multicast", True):
            self._host.send_group(file_group(resource.name), frame)
            session.chunks_sent += 1
        else:
            # Unicast baseline: one copy per pending subscriber (E4).
            for peer in sorted(session.pending):
                self._host.send_unicast(peer, frame)
                session.chunks_sent += 1

    def _start_completion_poll(self, session: _Session) -> None:
        session.in_transfer = False
        session.awaiting_status = True
        session.answered.clear()
        session.missing.clear()
        resource = session.resource
        payload = wire.encode(
            wire.FILE_STATUS_REQUEST_SCHEMA,
            {"name": resource.name, "revision": resource.revision},
        )
        frame = Frame(
            kind=MessageKind.FILE_STATUS_REQUEST, source=self._host.id, payload=payload
        )
        if getattr(self._host.config, "file_multicast", True):
            self._host.send_group(file_group(resource.name), frame)
        else:
            for peer in sorted(session.pending):
                self._host.send_unicast(peer, frame)
        session.timer = self._host.timers.schedule(
            FILE_STATUS_TIMEOUT, lambda: self._finish_poll(session)
        )

    def _finish_poll(self, session: _Session) -> None:
        session.timer = None
        session.awaiting_status = False
        if not session.pending:
            session.silent_polls = 0
            return  # everyone ACKed — "the subscribers list is empty"
        session.round += 1
        if session.round > FILE_MAX_ROUNDS:
            # Stragglers hold the session hostage; drop them and report.
            self.dropped_stragglers += len(session.pending)
            self._host.emergency(
                f"file {session.resource.name!r} rev {session.resource.revision}: "
                f"dropping {len(session.pending)} unreachable subscribers"
            )
            session.pending.clear()
            return
        if session.missing:
            session.silent_polls = 0
            session.queue = sorted(session.missing)
            session.missing = set()
            self._continue_transfer(session)
            return
        # Nobody NACKed but some subscribers stayed silent (lost status
        # request or lost replies): poll again.
        session.silent_polls += 1
        self._start_completion_poll(session)

    # -- subscriber helpers ---------------------------------------------------
    def _request_from_providers(self, sub: FileSubscription) -> None:
        for record in self._host.directory.providers_of_file(sub.name):
            offer = record.files[sub.name]
            if offer["revision"] > sub.revision:
                sub.revision = offer["revision"]
                sub.size = offer["size"]
                sub.total = None  # chunk frames carry the definitive total
                sub.chunks.clear()
            self._send_subscribe(sub, record.container)

    def _send_subscribe(self, sub: FileSubscription, provider: str) -> None:
        key = (provider, sub.revision)
        if key in sub.subscribed_to:
            return
        sub.subscribed_to.add(key)
        payload = wire.encode(
            wire.FILE_SUBSCRIBE_SCHEMA,
            {"name": sub.name, "subscriber": self._host.id, "revision": sub.revision},
        )
        self._host.send_reliable(provider, MessageKind.FILE_SUBSCRIBE, payload)

    def _send_ack(self, sub: FileSubscription, provider: str) -> None:
        payload = wire.encode(
            wire.FILE_ACK_SCHEMA,
            {"name": sub.name, "subscriber": self._host.id, "revision": sub.revision},
        )
        self._host.send_reliable(provider, MessageKind.FILE_COMPLETION_ACK, payload)

    def _send_nack(self, sub: FileSubscription, provider: str) -> None:
        total = sub.total if sub.total is not None else 0
        missing = [i for i in range(total) if i not in sub.chunks] if total else []
        payload = wire.encode(
            wire.FILE_NACK_SCHEMA,
            {
                "name": sub.name,
                "subscriber": self._host.id,
                "revision": sub.revision,
                "missing": wire.ranges_from_indices(missing),
            },
        )
        self._host.send_reliable(provider, MessageKind.FILE_COMPLETION_NACK, payload)

    def _complete_subscription(self, sub: FileSubscription, provider: str) -> None:
        data = b"".join(sub.chunks[i] for i in range(sub.total))
        if sub.size is not None and len(data) > sub.size:
            data = data[: sub.size]  # final chunk padding guard
        sub.completed_revision = sub.revision
        self.completed_transfers += 1
        self._host.metrics.counter("file_completions").inc()
        probes = self._host.probes
        if probes.enabled:
            probes.emit(
                "ft.complete", sub.name, attrs={"revision": sub.revision}
            )
        tracer = self._host.tracer
        span = tracer.start_span(
            f"file:{sub.name}", "file.complete", parent=sub.trace,
            revision=sub.revision, provider=provider,
        )
        with tracer.activate(tracer.context_of(span)):
            self._host.submit("file", lambda: sub.on_complete(data, sub.revision))
            # Proactively ACK so the publisher can drop us before its next poll.
            self._send_ack(sub, provider)
        tracer.finish(span)

    def _bypass_deliver(self, sub: FileSubscription, resource: FileResource) -> None:
        if not sub.active or sub.completed_revision >= resource.revision:
            return
        sub.revision = resource.revision
        sub.total = resource.total_chunks
        sub.size = len(resource.data)
        sub.completed_revision = resource.revision
        sub.bypassed = True
        self.bypassed_transfers += 1
        self.completed_transfers += 1
        self._host.metrics.counter("file_completions").inc()
        probes = self._host.probes
        if probes.enabled:
            probes.emit(
                "ft.complete", sub.name, attrs={"revision": resource.revision}
            )
        data = resource.data
        tracer = self._host.tracer
        span = tracer.start_span(
            f"file:{sub.name}", "file.complete", parent=resource.trace,
            revision=resource.revision, bypass=True,
        )
        with tracer.activate(tracer.context_of(span)):
            self._host.submit("file", lambda: sub.on_complete(data, resource.revision))
        tracer.finish(span)


__all__ = ["FileTransferManager", "FileResource", "FileSubscription"]
