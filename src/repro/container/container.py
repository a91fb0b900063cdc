"""The Service Container.

One per node (§3). Owns the PEPt stack (codec → protocol links → frame
transport), the pluggable scheduler, the name directory and the four
primitive managers; hosts and watches the services installed on this node.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.container.config import ContainerConfig
from repro.container.directory import Directory
from repro.container.egress import EgressShaper
from repro.container.gossip import FleetCoordinator
from repro.container.lifecycle import ServiceRecord, ServiceState
from repro.container.links import RELIABLE_CHANNEL, ReliableLinks, TcpLinks
from repro.container.records import (
    ContainerRecord,
    decode_announce,
    decode_bye,
    decode_heartbeat,
    encode_announce,
    encode_bye,
    encode_heartbeat,
)
from repro.container.resources import ResourceManager
from repro.container.supervisor import RestartPolicy, ServiceSupervisor
from repro.encoding.codec import get_codec
from repro.observability.metrics import Counter, MetricsRegistry
from repro.observability.probes import ProbeBus
from repro.observability.recorder import FlightRecorder
from repro.observability.trace import Tracer
from repro.primitives.events import EventManager
from repro.primitives.filetransfer import FileTransferManager
from repro.primitives.invocation import InvocationManager
from repro.primitives.variables import VariableManager
from repro.primitives import wire
from repro.protocol.admission import AdmissionController, IngressScheduler
from repro.protocol.bands import band_of
from repro.protocol.batching import SampleRun
from repro.protocol.frames import Frame, FrameFlags, MessageKind
from repro.protocol.peers import Peer
from repro.sched.model import SimScheduler
from repro.sched.policies import FixedPriorityPolicy
from repro.transport.addressing import BACKBONE_GROUP, Address, GroupName
from repro.transport.frame_transport import FrameTransport
from repro.util.clock import Clock
from repro.util.errors import (
    ConfigurationError,
    EncodingError,
    ProtocolError,
    ServiceError,
)
from repro.util.rng import SeededRng

_RETRANSMIT = int(FrameFlags.RETRANSMIT)
_VAR_SAMPLE = MessageKind.VAR_SAMPLE
_NACK = MessageKind.NACK
#: The reliable channel's own frames: an ACK is taken by the send side, and
#: a NACK, which no container sends, is counted on receipt and ignored.
_ACK_KINDS = (MessageKind.ACK, _NACK)

#: The flight recorder takes one reliability-abuse entry per (peer, reason)
#: per this many seconds.
_ABUSE_LOG_WINDOW = 1.0

#: Frame kinds the container treats as control plane (processed inline,
#: before the scheduler).
_CONTROL_KINDS = {
    MessageKind.ANNOUNCE,
    MessageKind.HEARTBEAT,
    MessageKind.BYE,
    MessageKind.ZONE_SUMMARY,
}


def _expanded(items: List[Union[Frame, SampleRun]]) -> List[Frame]:
    """``items`` with every :class:`SampleRun` expanded into its frames."""
    return [
        frame
        for item in items
        for frame in (item.frames() if item.__class__ is SampleRun else (item,))
    ]


class ServiceContainer:
    """The middleware runtime on one node.

    Parameters
    ----------
    config:
        All tunables (:class:`ContainerConfig`).
    clock:
        Time source shared with the runtime.
    timers:
        Anything with ``schedule(delay, fn) -> cancellable handle``; the
        simulation runtime passes its :class:`~repro.sim.Simulator`.
    transport:
        The PEPt Transport plug-in, already bound to this node.
    rng:
        Seeded stream for supervision jitter; the simulation runtime passes
        a fork of the experiment seed so runs stay bit-reproducible. When
        omitted, a stream derived from the container id is used.
    """

    def __init__(
        self,
        config: ContainerConfig,
        clock: Clock,
        timers,
        transport: FrameTransport,
        rng: Optional[SeededRng] = None,
    ):
        self._config = config
        self._id = config.container_id
        self._clock = clock
        self._timers = timers
        self._transport = transport
        self._codec = get_codec(config.codec)
        self._running = False
        self._incarnation = 0
        self._announce_pending = False
        self._periodic_handles: List[object] = []

        # Observability: tracer (no-op unless enabled), unified metrics,
        # bounded flight recorder. Created before anything that counts.
        self.tracer = Tracer(
            config.container_id, clock, enabled=config.tracing_enabled
        )
        self.metrics = MetricsRegistry()
        self.recorder = FlightRecorder(clock)
        # Monitor-probe stream: dormant (one bool read per emit site) until a
        # runtime-verification monitor subscribes. Wire-inert either way.
        self.probes = ProbeBus(config.container_id, clock)
        # kind -> (its frames_sent / frames_received counter, kind.name),
        # filled at first sight of a kind: ``kind.name`` is an enum
        # descriptor call, read once per kind instead of once per frame.
        self._tx_counters: Dict[MessageKind, Tuple[Counter, str]] = {}
        self._rx_counters: Dict[MessageKind, Tuple[Counter, str]] = {}
        self._retransmit_counter = self.metrics.counter("retransmits")

        self.directory = Directory(
            clock=clock,
            local_container=config.container_id,
            liveness_timeout=config.liveness_timeout,
            # At fleet scale, reads must never serve a record past its
            # liveness timeout even between housekeeping sweeps.
            strict_liveness_reads=config.fleet.enabled,
        )
        #: The directory's known peers, read first by every per-peer path:
        #: one dict lookup unless the id is new or a stranger's.
        self._peers = self.directory.known
        #: The control group we announce on: domain-wide by default, the
        #: zone's group in a federated fleet.
        self._control_group = config.fleet.control_group()
        #: Zone federation driver; None on the (default) seed path.
        self.fleet = FleetCoordinator(self) if config.fleet.enabled else None
        self.scheduler = SimScheduler(
            timers=timers,
            clock=clock,
            policy=FixedPriorityPolicy(),
            on_error=self._on_task_error,
        )
        self.resources = ResourceManager()
        self.egress = EgressShaper(
            clock=clock,
            timers=timers,
            send=self._transport.send,
            rate_bps=config.egress_rate_bps,
            batching=config.batching_enabled,
            batch_flush_interval=config.batch_flush_interval,
            source=config.container_id,
            piggyback=self._piggyback_acks,
            queue_limit=config.egress_queue_limit,
            on_overflow=self._on_egress_overflow,
            metrics=self.metrics,
            # Scatter-capable transports (the async UDP data plane) take
            # batches as unjoined buffer lists all the way to the socket.
            zero_copy=transport.supports_scatter,
        )
        self.admission = AdmissionController(
            clock=clock,
            classify=band_of,
            metrics=self.metrics,
            recorder=self.recorder,
        )
        # Admission state is one more field of each source's Peer.
        self.admission.peers = self.directory
        self._ingress: Optional[IngressScheduler] = None
        self._transport.set_protocol_error_handler(self._on_protocol_error)
        self.links = ReliableLinks(
            clock=clock,
            timers=timers,
            local=config.container_id,
            send_to_peer=self._send_frames_to_peer,
            deliver=self._dispatch_reliable,
            on_peer_failure=self._on_link_failure,
            policy=config.retransmit,
            ack_delay=config.ack_coalesce_delay,
            on_peer_slow=self._on_peer_slow,
            on_peer_abuse=self._on_peer_abuse,
        )
        self.tcp_links = TcpLinks(
            clock=clock,
            timers=timers,
            local=config.container_id,
            send_to_peer=self._send_frames_to_peer,
            deliver=self._on_tcp_event_payload,
        )
        self.variables = VariableManager(self)
        self.events = EventManager(self)
        self.invocations = InvocationManager(self)
        self.files = FileTransferManager(self)
        #: Frame kind -> the primitive entry point that consumes it; bound on
        #: the first data frame (:meth:`_bind_handlers`), so a container that
        #: only ever talks control plane — most of a fleet — never builds it.
        #: A run of VAR_SAMPLE frames goes to ``variables.on_sample_frames``,
        #: a :class:`SampleRun` to ``variables.on_sample_run``.
        self._handlers: Dict[MessageKind, Callable[[Frame], None]] = {}
        self._services: Dict[str, ServiceRecord] = {}
        self.supervisor = ServiceSupervisor(self, rng=rng)
        self._emergency_handlers: List[Callable[[str], None]] = []
        self.emergencies: List[str] = []

        # Directory events rewire the primitives (§3: cache clear/update).
        self.directory.on_container_up(self._on_container_up)
        self.directory.on_container_down(self._on_container_down)
        self.directory.on_container_restart(self._on_container_restart)
        # Offers can appear after first contact (a heartbeat may beat the
        # announce, or a provider adds services later); re-run the rebind.
        self.directory.on_offers_changed(self._on_container_up)

    # -- identity and plumbing accessors (PrimitiveHost protocol) -------------
    @property
    def id(self) -> str:
        return self._id

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def timers(self):
        return self._timers

    @property
    def codec(self):
        return self._codec

    @property
    def config(self) -> ContainerConfig:
        return self._config

    @property
    def running(self) -> bool:
        return self._running

    def submit(self, label: str, fn: Callable[[], None]) -> None:
        # Deferred work inherits the causal context active at submit time,
        # so spans opened inside the task chain to the message (or call)
        # that scheduled it — the cross-container propagation mechanism.
        tracer = self.tracer
        if tracer.enabled and tracer.current is not None:
            fn = partial(self._run_in_context, tracer.current, fn)
        self.scheduler.submit(label, fn)

    def _run_in_context(self, context, fn: Callable[[], None]) -> None:
        with self.tracer.activate(context):
            fn()

    # -- frame plumbing ----------------------------------------------------------
    def _counted(
        self, table: Dict[MessageKind, Tuple[Counter, str]], metric: str, kind: MessageKind
    ) -> Tuple[Counter, str]:
        """First frame of ``kind`` in one direction: resolve its counter and
        name into ``table``."""
        noted = table[kind] = (self.metrics.counter(metric, kind=kind.name), kind.name)
        return noted

    def _note_tx(self, frames: Sequence[Frame]) -> None:
        """Count and record ``frames``, a sent run of one kind, all first
        transmissions or all retransmissions: one ``inc`` per counter and
        one clock read for the recorder's tx entries."""
        kind = frames[0].kind
        counter, kind_name = self._tx_counters.get(kind) or self._counted(
            self._tx_counters, "frames_sent", kind
        )
        counter.inc(len(frames))
        if frames[0].flags & _RETRANSMIT:
            self._retransmit_counter.inc(len(frames))
        self.recorder.record_tx(kind_name, frames)

    def send_unicast(self, peer: str, frame: Frame) -> bool:
        if peer == self._id:
            self._dispatch(frame)
            return True
        return self._send_frames_to_peer(
            self._peers.get(peer) or self.directory.peer(peer), (frame,)
        )

    def send_reliable(self, peer: str, kind: MessageKind, payload: bytes) -> None:
        if peer == self._id:
            # Local reliable delivery is trivially guaranteed.
            self._dispatch_reliable(Frame(kind, self._id, payload))
            return
        self.links.send(self._peers.get(peer) or self.directory.peer(peer), kind, payload)

    def send_tcp_stream(self, peer: str, payload: bytes) -> None:
        if peer == self.id:
            self._on_tcp_event_payload(peer, payload)
            return
        self.tcp_links.send(self._peers.get(peer) or self.directory.peer(peer), payload)

    def send_group(self, group: GroupName, frame: Frame) -> None:
        if not self._running:
            return
        self._note_tx((frame,))
        self.egress.send(group, frame)

    def join_group(self, group: GroupName) -> None:
        self._transport.join(group)

    def leave_group(self, group: GroupName) -> None:
        self._transport.leave(group)

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Open the transport, join the control group, start discovery."""
        if self._running:
            raise ConfigurationError(f"container {self.id} already started")
        self._incarnation += 1
        if self._incarnation > 1:
            # A restart: the last incarnation's streams end with it, as they
            # would with its process. Each peer starts its side over when
            # it sees the new incarnation (_on_container_restart), so both
            # sides count from seq 1 again.
            for peer in self.directory.peers():
                peer.close()
        self._transport.open(self._config.port, self._on_frames)
        self._transport.join(self._control_group)
        if self._config.fleet.backbone_member:
            self._transport.join(BACKBONE_GROUP)
        self._running = True
        self._send_announce()
        self._periodic_handles = [
            self._every(self._config.announce_interval, self._send_announce),
            self._every(self._config.heartbeat_interval, self._send_heartbeat),
            self._every(self._config.housekeeping_interval, self._housekeeping),
        ]
        if self.fleet is not None:
            self._periodic_handles.extend(self.fleet.start())
        for record in list(self._services.values()):
            if record.state == ServiceState.INSTALLED:
                self._start_service(record)
            elif (
                record.state == ServiceState.STOPPED
                and self.supervisor.policy_for(record.name).mode == "always"
            ):
                # "always" means up whenever the container is.
                self._start_service(record)

    def stop(self) -> None:
        """Stop services, say BYE, close the transport."""
        if not self._running:
            return
        self.supervisor.cancel_all()
        for record in list(self._services.values()):
            if record.is_running:
                self._stop_service(record)
        self.send_group(
            self._control_group,
            Frame(kind=MessageKind.BYE, source=self.id, payload=encode_bye(self.id)),
        )
        # The BYE (and anything else batched) must leave before the
        # transport closes underneath the egress stage.
        self.egress.flush()
        for handle in self._periodic_handles:
            if hasattr(handle, "cancel"):
                handle.cancel()
        self._periodic_handles = []
        self._transport.close()
        self._running = False

    # -- service management (§3) -------------------------------------------------
    def install_service(
        self, service, restart_policy: Optional[RestartPolicy] = None
    ) -> ServiceRecord:
        """Register a service with this container; started with the
        container (or immediately if the container is already running).
        ``restart_policy`` overrides the container's default supervision."""
        name = service.name
        if name in self._services:
            raise ConfigurationError(f"service {name!r} already installed")
        record = ServiceRecord(name=name, service=service)
        self._services[name] = record
        self.supervisor.register(name, restart_policy)
        service._attach(self, record)
        if self._running:
            self._start_service(record)
        return record

    def start_service(self, name: str) -> None:
        """Operator start: also forgives escalation and restart history."""
        record = self._require_service(name)
        if record.is_running:
            return
        record.escalated = False
        self.supervisor.reset(name)
        self._start_service(record)

    def stop_service(self, name: str) -> None:
        record = self._require_service(name)
        self.supervisor.cancel(name)
        if record.is_running:
            self._stop_service(record)
            # An "always" policy treats any stop-while-container-runs as a
            # condition to heal (the service should track container uptime).
            self.supervisor.on_stopped(record)

    def uninstall_service(self, name: str) -> None:
        """Stop (if needed) and remove a service from this container."""
        record = self._require_service(name)
        self.supervisor.forget(name)
        if record.is_running:
            self._stop_service(record)
        del self._services[name]
        self.announce_soon()

    def service_record(self, name: str) -> Optional[ServiceRecord]:
        return self._services.get(name)

    def service_state(self, name: str) -> ServiceState:
        return self._require_service(name).state

    def services(self) -> List[ServiceRecord]:
        return sorted(self._services.values(), key=lambda r: r.name)

    def service_failed(self, name: str, reason: str) -> None:
        """Mark a service failed, withdraw its provisions, notify the domain.

        Called by :class:`ServiceContext` when a service callback raises —
        the container "watch[es] for their correct operation and notif[ies]
        the rest of containers about changes in the services status". The
        supervisor then heals it per its restart policy.
        """
        record = self._services.get(name)
        if record is None or not record.can_fail:
            # Already failed, or a late guarded callback fired after the
            # service stopped — nothing left to tear down.
            return
        record.fail(reason)
        self.metrics.counter("service_failures").inc()
        self.recorder.record("lifecycle", service=name, state="failed", reason=reason)
        self._withdraw_provisions(name)
        self.resources.release_all(name)
        context = getattr(record.service, "ctx", None)
        if context is not None:
            context.cancel_timers()
        self.announce_soon()
        self.supervisor.on_failure(record)

    def on_emergency(self, handler: Callable[[str], None]) -> None:
        """Register the programmed emergency procedure (§4.3)."""
        self._emergency_handlers.append(handler)

    def emergency(self, reason: str) -> None:
        self.emergencies.append(reason)
        self.metrics.counter("emergencies").inc()
        self.recorder.record("emergency", reason=reason)
        for handler in list(self._emergency_handlers):
            handler(reason)

    # -- discovery (§3 name management) --------------------------------------------
    def announce_soon(self) -> None:
        """Coalesce offer changes into one announce on the next tick."""
        if not self._running or self._announce_pending:
            return
        self._announce_pending = True
        self._timers.schedule(0.0, self._flush_announce)

    def _flush_announce(self) -> None:
        # The flag drops even when stopped in between, or a restarted
        # container would never announce an offer change again.
        if self._announce_pending:
            self._announce_pending = False
            if self._running:
                self._send_announce()

    def _announce_doc(self) -> dict:
        return {
            "container": self.id,
            "node": self._transport.node,
            "port": self._config.port,
            "incarnation": self._incarnation,
            "services": [r.name for r in self.services() if r.is_running],
            "failed_services": [
                r.name for r in self.services() if r.state == ServiceState.FAILED
            ],
            "variables": self.variables.offers(),
            "events": self.events.offers(),
            "functions": self.invocations.offers(),
            "files": self.files.offers(),
        }

    def _send_announce(self) -> None:
        """Multicast this container's offers to the control group (start,
        offer change, and every ``announce_interval``)."""
        self.send_group(
            self._control_group,
            Frame(
                kind=MessageKind.ANNOUNCE,
                source=self.id,
                payload=encode_announce(self._announce_doc()),
            ),
        )

    def _send_heartbeat(self) -> None:
        doc = {
            "container": self.id,
            "node": self._transport.node,
            "port": self._config.port,
            "incarnation": self._incarnation,
            "load": min(self.scheduler.load, 0xFFFFFFFF),
            "restarts": min(self.supervisor.restarts_attempted, 0xFFFFFFFF),
        }
        self.send_group(
            self._control_group,
            Frame(kind=MessageKind.HEARTBEAT, source=self.id, payload=encode_heartbeat(doc)),
        )

    def _housekeeping(self) -> None:
        self.directory.check_liveness()
        self._transport.on_tick()

    def _every(self, interval: float, fn: Callable[[], None]):
        """A self-rescheduling periodic timer; returns a cancellable shim."""
        state = {"cancelled": False, "handle": None}

        def fire():
            if state["cancelled"] or not self._running:
                return
            fn()
            state["handle"] = self._timers.schedule(interval, fire)

        state["handle"] = self._timers.schedule(interval, fire)

        class _Handle:
            def cancel(self_inner):
                state["cancelled"] = True
                handle = state["handle"]
                if handle is not None and hasattr(handle, "cancel"):
                    handle.cancel()

        return _Handle()

    # -- inbound frame dispatch ----------------------------------------------------
    def _on_frames(
        self, frames: List[Union[Frame, SampleRun]], source_address: Address
    ) -> None:
        """The one ingress path: the frames of one datagram, in wire order.

        Consecutive data frames that share a source, a kind and a channel
        form a run, and what depends only on those is done once per run:
        the own-loopback check, the admission switch, the receive counter
        and the clock read for the run's flight-recorder entries. A
        best-effort VAR_SAMPLE run goes whole to the variable manager, and a
        run of reliable-channel data frames to its peer's receiver, which
        acknowledges it and hands each fresh frame to its kind's handler;
        any other run is taken one frame at a time. A control frame is a run of
        its own, and so is every frame while admission is armed, so a drop
        or a quarantine binds from the very next frame; an admitted data
        frame then waits its band's turn on the ingress scheduler.

        The batch decoder already hands over a publisher's samples inside a
        BATCH as one :class:`SampleRun`, read in place. A run that is one
        such item goes whole to the variable manager, counted and recorded
        from its bounds. Anything else on the sample path — a run that also
        holds frames, or any run while admission is armed or tracing is
        on — is expanded into frames and takes the path above unchanged.
        """
        own = self._id
        admission = self.admission
        count = len(frames)
        start = 0
        while start < count:
            frame = frames[start]
            kind = frame.kind
            source = frame.source
            stop = start + 1
            # ``enabled`` is read live: admission may be armed on a running
            # container and binds from the very next run.
            armed = admission.enabled
            if armed and frame.__class__ is SampleRun:
                frames = frames[:start] + frame.frames() + frames[stop:]
                count = len(frames)
                continue
            channel = frame.channel
            if not (armed or kind in _CONTROL_KINDS):
                while stop < count:
                    following = frames[stop]
                    if (
                        following.kind is not kind
                        or following.channel != channel
                        or following.source != source
                    ):
                        break
                    stop += 1
            run = frames if stop - start == count else frames[start:stop]
            start = stop
            if source == own:
                continue  # our own multicast loopback
            # Admission is the first gate: a dropped frame generates no ACK,
            # no dispatch, no scheduler work — nothing an attacker could
            # amplify.
            if armed and not admission.admit(frame, source_address):
                continue
            counter, kind_name = self._rx_counters.get(kind) or self._counted(
                self._rx_counters, "frames_received", kind
            )
            if kind is _VAR_SAMPLE and not (channel or armed):
                if len(run) == 1 and frame.__class__ is SampleRun:
                    if not self.tracer.enabled:
                        counter.inc(len(frame.starts))
                        self.recorder.record_rx_run(kind_name, frame)
                        self.variables.on_sample_run(frame)
                        continue
                    run = frame.frames()
                elif len(run) > 1:
                    run = _expanded(run)
            counter.inc(len(run))
            self.recorder.record_rx(kind_name, run)
            if kind in _CONTROL_KINDS:
                try:
                    self._handle_control(frame)
                except (ProtocolError, EncodingError) as exc:
                    self.note_malformed(frame, exc)
            elif armed:
                self._ingress_scheduler().offer(frame, band_of(kind))
            elif kind is _VAR_SAMPLE and not channel:
                self.variables.on_sample_frames(run)
            elif channel == RELIABLE_CHANNEL and kind not in _ACK_KINDS:
                peer = self._peers.get(source) or self.directory.peer(source)
                # The probe switch is read live, once per run.
                deliver = self._dispatch_reliable if self.probes.enabled else self._dispatch
                self.links.on_run(run, peer, deliver)
            else:
                for each in run:
                    self._ingest_data(each)

    def _on_frame(self, frame: Frame, source_address: Address) -> None:
        """One frame through :meth:`_on_frames`, as a datagram of its own."""
        self._on_frames([frame], source_address)

    def _ingress_scheduler(self) -> IngressScheduler:
        if self._ingress is None:
            self._ingress = IngressScheduler(
                timers=self._timers, deliver=self._ingest_data, metrics=self.metrics
            )
        return self._ingress

    def _ingest_data(self, frame: Frame) -> None:
        """Admitted data frame → reliability layers or direct dispatch.

        A frame the reliability layers reject (an ACK that does not decode)
        raises ProtocolError here; a payload the primitive decoders reject
        is caught by :meth:`_dispatch`. Either is counted and fed to
        admission quarantine scoring — never allowed to crash ingress,
        never silently swallowed (REP005).
        """
        if frame.kind is _NACK:
            return  # no stream state, no peer entry, no retransmission
        try:
            # Channel 0, the best-effort data plane, skips the peer and the
            # reliability layers outright.
            if frame.channel != 0:
                # Reliability layers consume their channels (and emit acks).
                peer = self._peers.get(frame.source) or self.directory.peer(frame.source)
                if self.links.on_frame(frame, peer) or self.tcp_links.on_frame(frame, peer):
                    return
            self._dispatch(frame)
        except (ProtocolError, EncodingError) as exc:
            self.note_malformed(frame, exc)

    def note_malformed(self, frame: Frame, exc: Exception) -> None:
        """A frame whose payload did not decode: scored by admission and
        logged in the flight recorder."""
        self.admission.note_malformed(frame.source)
        self.recorder.record(
            "protocol-error",
            source=frame.source,
            kind=frame.kind.name,
            error=type(exc).__name__,
        )

    def _on_protocol_error(self, exc: Exception, source_address: Address) -> None:
        """Undecodable datagram: no trustworthy source id exists, so the
        quarantine score is keyed on the network address instead."""
        self.metrics.counter("malformed_datagrams").inc()
        self.admission.note_malformed_address(source_address)

    def _on_peer_abuse(self, peer: Peer, reason: str) -> None:
        """A reliability abuse defense fired against ``peer``."""
        self.metrics.counter("reliability_abuse", peer=peer.id, reason=reason).inc()
        # Counters carry volume; the bounded recorder gets one entry per
        # (peer, reason) per second at most. The times live on the peer:
        # one per reason, as bounded as the peer table.
        now = self._clock.now()
        logged = peer.abuse_logged
        if now - logged.get(reason, -_ABUSE_LOG_WINDOW) < _ABUSE_LOG_WINDOW:
            return
        logged[reason] = now
        self.recorder.record("reliability-abuse", peer=peer.id, reason=reason)

    def _handle_control(self, frame: Frame) -> None:
        if frame.kind == MessageKind.ANNOUNCE:
            self.directory.handle_announce(decode_announce(frame.payload))
        elif frame.kind == MessageKind.HEARTBEAT:
            self.directory.handle_heartbeat(decode_heartbeat(frame.payload))
        elif frame.kind == MessageKind.BYE:
            self.directory.handle_bye(decode_bye(frame.payload))
        elif frame.kind == MessageKind.ZONE_SUMMARY:
            if self.fleet is not None:
                self.fleet.on_zone_summary(frame)

    def _dispatch_reliable(self, frame: Frame) -> None:
        """An ordered reliable frame, already deduplicated by the link
        layer, while probes are armed: the ``reliable.deliver`` probe, then
        :meth:`_dispatch`."""
        if self.probes.enabled and frame.seq > 0:
            # seq 0 marks the local-loopback path, which never crosses the
            # dedup window — probing it would false-fire exactly-once specs.
            peer = self.directory.find(frame.source)
            epoch = peer.epoch if peer is not None else 0
            self.probes.emit(
                "reliable.deliver",
                frame.kind.name.lower(),
                key=(frame.source, frame.channel, epoch, frame.seq),
                attrs={
                    "source": frame.source,
                    "channel": frame.channel,
                    "seq": frame.seq,
                    "epoch": epoch,
                },
            )
        self._dispatch(frame)

    def _dispatch(self, frame: Frame) -> None:
        """``frame`` to its own kind's handler. A payload the handler cannot
        decode is reported here, once, so a reliable stream goes on past
        the seq it arrived on."""
        handler = (self._handlers or self._bind_handlers()).get(frame.kind)
        if handler is not None:
            try:
                handler(frame)
            except (ProtocolError, EncodingError) as exc:
                self.note_malformed(frame, exc)

    def _bind_handlers(self) -> Dict[MessageKind, Callable[[Frame], None]]:
        """Kinds absent here (and not consumed by the control plane or the
        reliability layers) are dropped silently: forward compatibility."""
        self._handlers = {
            MessageKind.VAR_SAMPLE: self.variables.on_sample_frame,
            MessageKind.VAR_INITIAL_REQUEST: self.variables.on_initial_request,
            MessageKind.VAR_INITIAL_RESPONSE: self.variables.on_initial_response,
            MessageKind.EVENT: self.events.on_event_frame,
            MessageKind.EVENT_SUBSCRIBE: self.events.on_subscribe_frame,
            MessageKind.RPC_REQUEST: self.invocations.on_request_frame,
            MessageKind.RPC_RESPONSE: self.invocations.on_response_frame,
            MessageKind.FILE_ANNOUNCE: self.files.on_announce_frame,
            MessageKind.FILE_SUBSCRIBE: self.files.on_subscribe_frame,
            MessageKind.FILE_CHUNK: self.files.on_chunk_frame,
            MessageKind.FILE_STATUS_REQUEST: self.files.on_status_request_frame,
            MessageKind.FILE_COMPLETION_ACK: self.files.on_completion_ack_frame,
            MessageKind.FILE_COMPLETION_NACK: self.files.on_completion_nack_frame,
        }
        return self._handlers

    def _on_tcp_event_payload(self, peer: str, payload: bytes) -> None:
        doc, trace = wire.decode_traced(wire.EVENT_MESSAGE_SCHEMA, payload)
        self.events.on_event_payload(peer, doc, trace)

    # -- directory reactions -------------------------------------------------------
    def _on_container_up(self, record: ContainerRecord) -> None:
        self.events.on_provider_up(record.container)
        self.files.on_provider_up(record.container)

    def _on_container_down(self, record: ContainerRecord) -> None:
        self.directory.peer(record.container).reset(self.events)
        self.files.on_subscriber_down(record.container)
        self.invocations.on_provider_down(record.container)

    def _on_container_restart(self, record: ContainerRecord) -> None:
        self.directory.peer(record.container).reset(self.events)
        # Re-subscribe to whatever the restarted container still offers.
        self.events.on_provider_up(record.container)
        self.files.on_provider_up(record.container)

    # -- internals -----------------------------------------------------------
    def _send_frames_to_peer(self, peer: Peer, frames: Sequence[Frame]) -> bool:
        """The one unicast egress path: ``frames`` (a run of one kind, as a
        :class:`ReliableSender` emits) to ``peer``, in order. The running
        check and the route are read once, and the run is counted and
        recorded by :meth:`_note_tx` and handed to ``egress.send_run`` in
        one call each."""
        if not self._running:
            return False  # late timer after stop(); nothing to send on
        directory = self.directory
        address = peer.address if peer.routed == directory.revision else directory.route(peer)
        if address is None:
            return False  # unknown/dead; retransmission or failure will handle it
        self._note_tx(frames)
        self.egress.send_run(address, frames, peer)
        return True

    def _piggyback_acks(self, slot) -> List[Frame]:
        """The batcher's piggyback hook: pending coalesced ACKs for the peer a
        unicast batch leaves for. Group batches carry none."""
        receiver = slot.receiver if isinstance(slot, Peer) else None
        if receiver is None:
            return []
        acks = receiver.take_pending_acks()
        if acks:
            self._note_tx(acks)
        return acks

    def _on_peer_slow(self, peer: Peer, frame: Frame) -> None:
        """The bounded reliable backlog to ``peer`` overflowed — the peer is
        alive but consuming too slowly. Evict it from event subscriptions:
        guaranteed delivery must never silently drop, so a subscriber that
        cannot keep up loses its subscription instead (it can re-subscribe
        once healthy; variables are fresh-or-worthless and shed via the
        egress drop-oldest policy rather than here)."""
        self.metrics.counter("slow_peer_sheds", kind=frame.kind.name).inc()
        self.recorder.record(
            "backpressure", peer=peer.id, kind=frame.kind.name, action="evict"
        )
        evicted = self.events.evict_subscriber(peer.id)
        if evicted:
            self.recorder.record("backpressure", peer=peer.id, action="evicted")

    def _on_egress_overflow(self, destination, band: int, frame: Frame) -> None:
        self.recorder.record(
            "backpressure",
            band=band,
            policy="drop-oldest",
            kind=frame.kind.name,
            action="egress-overflow",
        )

    def _on_link_failure(self, peer: Peer, frame: Frame) -> None:
        """A reliable frame exhausted its retries: the peer is unreachable.

        Declare it dead locally (faster than the heartbeat timeout) so the
        primitives rebind. A stopped container's failures say nothing about
        the peer: its own transport is closed.
        """
        if not self._running:
            return
        record = self.directory.record(peer.id)
        if record is not None and record.alive:
            self.directory.handle_bye(peer.id)

    def _on_task_error(self, label: str, exc: Exception) -> None:
        # A scheduler task without a service guard raised; surface loudly in
        # the emergency channel rather than dying silently.
        self.emergency(f"unhandled error in {label} task: {exc!r}")

    def _withdraw_provisions(self, service: str) -> None:
        self.variables.withdraw_service(service)
        self.variables.unsubscribe_service(service)
        self.events.withdraw_service(service)
        self.events.unsubscribe_service(service)
        self.invocations.withdraw_service(service)
        self.files.withdraw_service(service)
        self.files.unsubscribe_service(service)

    def _require_service(self, name: str) -> ServiceRecord:
        record = self._services.get(name)
        if record is None:
            raise ServiceError(f"no service {name!r} installed in container {self.id}")
        return record

    def _start_service(self, record: ServiceRecord) -> None:
        self.recorder.record("lifecycle", service=record.name, state="starting")
        record.transition(ServiceState.STARTING)
        try:
            record.service.on_start()
        except Exception as exc:  # noqa: BLE001 — startup fault isolates the service
            if record.can_fail:
                # Not already failed through the context guard.
                record.fail(f"on_start raised: {exc!r}")
                self.metrics.counter("service_failures").inc()
                self.recorder.record(
                    "lifecycle", service=record.name, state="failed",
                    reason=f"on_start raised: {exc!r}",
                )
                self._withdraw_provisions(record.name)
                self.announce_soon()
                self.supervisor.on_failure(record)
            return
        if record.state != ServiceState.STARTING:
            # on_start failed the service through its context guard.
            return
        record.transition(ServiceState.RUNNING)
        self.recorder.record("lifecycle", service=record.name, state="running")
        self.announce_soon()

    def _stop_service(self, record: ServiceRecord) -> None:
        self.recorder.record("lifecycle", service=record.name, state="stopping")
        record.transition(ServiceState.STOPPING)
        try:
            record.service.on_stop()
        except Exception as exc:  # noqa: BLE001
            record.fail(f"on_stop raised: {exc!r}")
        else:
            record.transition(ServiceState.STOPPED)
        context = getattr(record.service, "ctx", None)
        if context is not None:
            context.cancel_timers()
        self._withdraw_provisions(record.name)
        self.resources.release_all(record.name)
        self.announce_soon()


__all__ = ["ServiceContainer"]
