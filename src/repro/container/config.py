"""Container configuration.

One dataclass gathers every tunable so experiments can sweep them without
touching code. Defaults match a small switched-Ethernet UAV LAN.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.container.fleet import FleetConfig
from repro.container.resources import ResourceLimits
from repro.container.supervisor import RestartPolicy
from repro.protocol.admission import AdmissionPolicy
from repro.protocol.reliability import ReliabilityHardening, RetransmitPolicy
from repro.sched.model import CpuModel
from repro.util.errors import ConfigurationError

#: Port every container binds (one container per node, so one port suffices).
CONTAINER_PORT = 47000


@dataclass
class ContainerConfig:
    """All knobs of one service container."""

    container_id: str
    node: str
    port: int = CONTAINER_PORT

    # PEPt plug-in selection.
    codec: str = "binary"
    scheduler_policy: str = "fixed_priority"
    #: "udp_ack" (the paper's app-layer mechanism) or "tcp" (the baseline).
    event_mapping: str = "udp_ack"

    # Discovery and failure detection (§3 name management).
    announce_interval: float = 1.0
    heartbeat_interval: float = 0.25
    liveness_timeout: float = 1.0
    housekeeping_interval: float = 0.5

    # Fleet-scale discovery (repro.container.fleet). The default is inert:
    # flat control group, no gossip, no zone summaries — control traffic
    # stays packet-identical to the seed.
    fleet: FleetConfig = field(default_factory=FleetConfig)

    # Reliability.
    retransmit: RetransmitPolicy = field(default_factory=RetransmitPolicy)
    #: Abuse defenses for the reliable streams (NACK budgets, ACK-flood
    #: rejection, replay windows). Disabled by default: the protocol stays
    #: byte/behavior-identical to the seed. The env default lets CI arm the
    #: defenses fleet-wide (REPRO_RELIABILITY_HARDENING=1).
    reliability_hardening: ReliabilityHardening = field(
        default_factory=lambda: ReliabilityHardening(
            enabled=os.environ.get("REPRO_RELIABILITY_HARDENING", "") == "1"
        )
    )

    # Ingress admission control (repro.protocol.admission). Disabled by
    # default: frames reach dispatch exactly as in the seed. The env
    # default (REPRO_ADMISSION=1) arms the default policy fleet-wide.
    admission: AdmissionPolicy = field(
        default_factory=lambda: AdmissionPolicy(
            enabled=os.environ.get("REPRO_ADMISSION", "") == "1"
        )
    )

    # Supervision (§3 "watching for their correct operation"). The default
    # mode is "never" — failures are recorded but nothing auto-restarts —
    # matching the paper's passive watcher; per-service policies can be
    # passed to ``install_service``.
    restart_policy: RestartPolicy = field(
        default_factory=lambda: RestartPolicy(mode="never")
    )

    # Remote invocation (§4.3).
    call_timeout: float = 1.0
    #: "static" | "round_robin" | "least_loaded"
    call_binding: str = "round_robin"

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
    #: How long the publisher waits for completion ACK/NACKs per round.
    file_status_timeout: float = 0.05
    #: Retransmission rounds before stragglers are dropped.
    file_max_rounds: int = 50

    # Egress shaping — the §4.2/§7 network-reservation extension. ``None``
    # disables it (the paper's baseline); a bits-per-second value slightly
    # below the uplink rate makes outbound traffic queue *inside* the
    # container, where priority bands apply.
    egress_rate_bps: Optional[float] = None
    #: Bound on each (destination, band) egress queue while shaping;
    #: ``None`` keeps the seed's unbounded queues.
    egress_queue_limit: Optional[int] = None
    #: Overflow policy when a bounded egress queue is full:
    #: "block" | "drop-oldest" | "drop-newest".
    egress_overflow_policy: str = "drop-oldest"

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
    #: Pending-seq cap that forces an early coalesced-ACK flush.
    ack_coalesce_max_pending: int = 64

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

    # Debug sanitizers (repro.analysis.sanitizers). "off" keeps the data
    # path byte/behavior-identical; "checksum" detects post-publish payload
    # mutation at the next checkpoint; "freeze" hands local subscribers
    # deep-frozen copies so mutation raises at the mutation site. The env
    # default lets CI turn the sanitizer on for a whole test run without
    # touching code (REPRO_PAYLOAD_SANITIZER=checksum).
    payload_sanitizer: str = field(
        default_factory=lambda: os.environ.get("REPRO_PAYLOAD_SANITIZER", "off")
    )

    # Runtime verification (repro.verify). "off" keeps the probe stream
    # dormant (one bool read per emit site); "standard" arms the shipped
    # middleware-contract specs on this container at start(). Fleet-level
    # monitoring (cross-container specs, one merged verdict) instead goes
    # through SimRuntime.enable_verification / verify.FleetMonitor. The env
    # default lets CI arm every container (REPRO_VERIFY=standard).
    verification: str = field(
        default_factory=lambda: os.environ.get("REPRO_VERIFY", "off")
    )

    # Scheduling.
    cpu_model: CpuModel = field(default_factory=CpuModel)

    # Resources.
    resource_limits: ResourceLimits = field(default_factory=ResourceLimits)

    def __post_init__(self) -> None:
        if self.event_mapping not in ("udp_ack", "tcp"):
            raise ConfigurationError(
                f"event_mapping must be 'udp_ack' or 'tcp', got {self.event_mapping!r}"
            )
        if self.call_binding not in ("static", "round_robin", "least_loaded"):
            raise ConfigurationError(f"unknown call binding {self.call_binding!r}")
        if self.heartbeat_interval >= self.liveness_timeout:
            raise ConfigurationError(
                "liveness_timeout must exceed heartbeat_interval or every "
                "container flaps dead"
            )
        if self.file_chunk_size <= 0:
            raise ConfigurationError("file_chunk_size must be positive")
        if self.file_chunk_interval < 0:
            raise ConfigurationError("file_chunk_interval must be >= 0")
        if self.egress_overflow_policy not in ("block", "drop-oldest", "drop-newest"):
            raise ConfigurationError(
                f"unknown egress overflow policy {self.egress_overflow_policy!r}"
            )
        if self.egress_queue_limit is not None and self.egress_queue_limit < 1:
            raise ConfigurationError("egress_queue_limit must be >= 1")
        if self.batch_flush_interval < 0:
            raise ConfigurationError("batch_flush_interval must be >= 0")
        if self.ack_coalesce_delay < 0:
            raise ConfigurationError("ack_coalesce_delay must be >= 0")
        if self.ack_coalesce_max_pending < 1:
            raise ConfigurationError("ack_coalesce_max_pending must be >= 1")
        if self.payload_sanitizer not in ("off", "checksum", "freeze"):
            raise ConfigurationError(
                f"payload_sanitizer must be 'off', 'checksum' or 'freeze', "
                f"got {self.payload_sanitizer!r}"
            )
        if self.verification not in ("off", "standard"):
            raise ConfigurationError(
                f"verification must be 'off' or 'standard', "
                f"got {self.verification!r}"
            )


__all__ = ["ContainerConfig", "CONTAINER_PORT"]
