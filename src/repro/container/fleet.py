"""Fleet-scale discovery configuration.

At tens of containers the paper's flat control plane — every container
multicasting ANNOUNCE/HEARTBEAT to one domain-wide group — is fine. At a
thousand it is O(N²) control traffic and every directory holds every record.
:class:`FleetConfig` selects the two scale mechanisms, both **off by
default** so the seed behavior (and its packet traces) are untouched:

- **Gossip dissemination** (``gossip_enabled``): periodic announces and
  heartbeats become versioned rumors forwarded to ``gossip_fanout`` random
  live peers per round instead of multicast to everyone. Epidemic spread
  keeps convergence fast while per-container control traffic stays bounded
  by fanout, not fleet size.
- **Hierarchical federation** (``zone``): containers join a per-zone
  control group (:func:`repro.transport.addressing.zone_control_group`), so
  raw announce/heartbeat traffic stays inside the zone. Containers with
  role ``relay`` or ``ground`` additionally join the backbone group and
  periodically publish :data:`~repro.protocol.frames.MessageKind.ZONE_SUMMARY`
  digests of their zone; relays forward foreign summaries down into their
  zone. A directory therefore holds full records for its own zone plus
  compact summaries of every other zone (UAV → relay → ground station).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.transport.addressing import CONTROL_GROUP, GroupName, zone_control_group
from repro.util.errors import ConfigurationError

#: Roles a fleet container can take. ``uav`` is a plain zone member;
#: ``relay`` and ``ground`` bridge their zone onto the backbone.
FLEET_ROLES = ("uav", "relay", "ground")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-scale discovery knobs. The default instance is inert: flat
    control group, no gossip, no summaries — byte-identical to the seed."""

    #: Disseminate periodic announce/heartbeat as gossip rumors instead of
    #: multicast to the control group.
    gossip_enabled: bool = False
    #: Live peers each gossip round forwards fresh rumors to.
    gossip_fanout: int = 3
    #: Seconds between gossip rounds (rumor flushes).
    gossip_interval: float = 0.1
    #: Rumor cap per GOSSIP frame; the remainder waits for the next round.
    gossip_max_rumors: int = 64

    #: Federation zone this container belongs to; ``None`` means the flat
    #: domain-wide control group.
    zone: Optional[str] = None
    #: "uav" | "relay" | "ground" — relay/ground also join the backbone.
    role: str = "uav"
    #: Seconds between ZONE_SUMMARY publications (relay/ground only).
    summary_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.role not in FLEET_ROLES:
            raise ConfigurationError(
                f"fleet role must be one of {FLEET_ROLES}, got {self.role!r}"
            )
        if self.role in ("relay", "ground") and self.zone is None:
            raise ConfigurationError(
                f"fleet role {self.role!r} requires a zone (it bridges the "
                "zone onto the backbone)"
            )
        if self.gossip_fanout < 1:
            raise ConfigurationError("gossip_fanout must be >= 1")
        if self.gossip_interval <= 0:
            raise ConfigurationError("gossip_interval must be positive")
        if self.gossip_max_rumors < 1:
            raise ConfigurationError("gossip_max_rumors must be >= 1")
        if self.summary_interval <= 0:
            raise ConfigurationError("summary_interval must be positive")

    @property
    def enabled(self) -> bool:
        """True when any fleet mechanism deviates from seed behavior."""
        return self.gossip_enabled or self.zone is not None

    @property
    def backbone_member(self) -> bool:
        return self.role in ("relay", "ground")

    def control_group(self) -> GroupName:
        """The control group this container announces/heartbeats on."""
        if self.zone is None:
            return CONTROL_GROUP
        return zone_control_group(self.zone)


__all__ = ["FleetConfig", "FLEET_ROLES"]
