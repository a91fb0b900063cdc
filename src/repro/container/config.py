"""Container configuration.

One dataclass gathers what a deployment chooses when it builds a
container: plug-ins, timing, the optional data-plane stages. What is armed
on a running container — admission, reliability hardening, runtime
verification — is not here: each has one run-time call
(``SimRuntime.enable_admission``, ``harden_reliability``,
``enable_verification``), and the two defenses keep fixed budgets as
constants of their own modules. Defaults match a small switched-Ethernet
UAV LAN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.container.fleet import FleetConfig
from repro.container.supervisor import RestartPolicy
from repro.protocol.reliability import RetransmitPolicy
from repro.util.errors import ConfigurationError

#: Port every container binds (one container per node, so one port suffices).
CONTAINER_PORT = 47000


@dataclass
class ContainerConfig:
    """What a deployment chooses for one service container."""

    container_id: str
    node: str
    port: int = CONTAINER_PORT

    # PEPt plug-in selection.
    codec: str = "binary"

    # Discovery and failure detection (§3 name management).
    announce_interval: float = 1.0
    heartbeat_interval: float = 0.25
    liveness_timeout: float = 1.0
    housekeeping_interval: float = 0.5

    # Fleet-scale discovery (repro.container.fleet). The default is inert:
    # flat control group, no zone summaries — control traffic stays
    # packet-identical to the seed.
    fleet: FleetConfig = field(default_factory=FleetConfig)

    # Reliability.
    retransmit: RetransmitPolicy = field(default_factory=RetransmitPolicy)

    # Supervision (§3 "watching for their correct operation"). The default
    # mode is "never" — failures are recorded but nothing auto-restarts —
    # matching the paper's passive watcher; per-service policies can be
    # passed to ``install_service``.
    restart_policy: RestartPolicy = field(
        default_factory=lambda: RestartPolicy(mode="never")
    )

    # File transmission (§4.4).
    #: False switches the transfer phase to per-subscriber unicast — the
    #: baseline experiment E4 compares multicast against.
    file_multicast: bool = True
    file_chunk_size: int = 1024
    #: Pacing of the bulk stream: chunk k of a round is due k intervals
    #: after the round started, and a late timer sends every chunk that has
    #: fallen due (bounded catch-up), so this is the delivered rate and not
    #: a floor under the timer's resolution. 0 is unpaced: one chunk per
    #: turn of the loop.
    file_chunk_interval: float = 0.0002

    # Egress shaping — the §4.2/§7 network-reservation extension. ``None``
    # disables it (the paper's baseline); a bits-per-second value slightly
    # below the uplink rate makes outbound traffic queue *inside* the
    # container, where priority bands apply.
    egress_rate_bps: Optional[float] = None
    #: Bound on each (destination, band) egress queue while shaping; a full
    #: queue sheds its oldest frame. ``None`` keeps the seed's unbounded
    #: queues.
    egress_queue_limit: Optional[int] = None

    # Datagram batching (off by default: the wire stays byte-for-byte the
    # seed format). When on, small frames to the same destination share one
    # BATCH datagram up to ``protocol.batching.BATCH_MTU_BYTES``.
    batching_enabled: bool = False
    #: The longest a frame may be held for companions. 0 holds nothing:
    #: whatever one loop turn (one virtual instant) produced leaves at the
    #: end of it, so datagrams fill under load and an idle link adds no
    #: latency. Set it > 0 only where bytes on the wire are the bottleneck
    #: and batching *across* time pays for the delay.
    batch_flush_interval: float = 0.0
    #: Delay-and-merge window for ACKs on the reliable channel; 0 keeps the
    #: seed's one-ACK-per-frame behavior.
    ack_coalesce_delay: float = 0.0

    # Observability. Tracing is off by default: untraced frames stay
    # byte-identical to the pre-tracing wire format. Off, the data path
    # reads ``tracer.enabled`` once per publish, delivery and submit, makes
    # two tracer calls that return at once per publish and none per
    # delivery; on, it opens a span per publish and per delivery and carries
    # the context on the wire — measured on ``AsyncRuntime``, 1 -> 4
    # closed-loop fan-out: 110k deliveries/s off, 58k on
    # (docs/performance.md §9). The flight recorder always runs (bounded
    # memory).
    tracing_enabled: bool = False

    def __post_init__(self) -> None:
        for name in ("announce_interval", "heartbeat_interval", "housekeeping_interval"):
            # A zero period would reschedule itself at the same instant forever.
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be > 0")
        if self.heartbeat_interval >= self.liveness_timeout:
            raise ConfigurationError(
                "liveness_timeout must exceed heartbeat_interval or every "
                "container flaps dead"
            )
        if self.file_chunk_size <= 0:
            raise ConfigurationError("file_chunk_size must be positive")
        if self.file_chunk_interval < 0:
            raise ConfigurationError("file_chunk_interval must be >= 0")
        if self.egress_rate_bps is not None and not self.egress_rate_bps > 0:
            # Zero divides the shaper's drain delay; a negative rate re-arms
            # its drain timer every microsecond and never sends.
            raise ConfigurationError("egress_rate_bps must be > 0 (or None)")
        if self.egress_queue_limit is not None and self.egress_queue_limit < 1:
            raise ConfigurationError("egress_queue_limit must be >= 1")
        if self.batch_flush_interval < 0:
            raise ConfigurationError("batch_flush_interval must be >= 0")
        if self.ack_coalesce_delay < 0:
            raise ConfigurationError("ack_coalesce_delay must be >= 0")


__all__ = ["ContainerConfig", "CONTAINER_PORT"]
