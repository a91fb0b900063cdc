"""Fleet-scale control-plane federation: zone summaries.

Flat discovery multicasts every ANNOUNCE/HEARTBEAT to the whole domain —
O(N²) control traffic. In a federated fleet
(:class:`~repro.container.fleet.FleetConfig` with a ``zone``) raw control
traffic stays inside each zone, and relay/ground containers periodically
publish a ZONE_SUMMARY digest of their zone's directory on the backbone
group and forward foreign summaries down into their own zone, giving every
container a compact map of the whole fleet without holding per-container
records for other zones. Receivers keep a summary in wire form: the three
leading fields are peeked to drop own-zone and already-applied versions,
and the member section is decoded in full only when its bytes differ from
the copy already held (first sight, changed membership) — publishers encode
members canonically, so equal bytes mean equal membership.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.encoding.compiled import CompiledCodec
from repro.encoding.types import (
    STRING,
    UINT8,
    UINT16,
    UINT32,
    StructType,
    VectorType,
)
from repro.protocol.frames import Frame, MessageKind
from repro.transport.addressing import BACKBONE_GROUP, zone_control_group
from repro.util.errors import ProtocolError

_CODEC = CompiledCodec()

# -- wire schemas -------------------------------------------------------------

SUMMARY_MEMBER_SCHEMA = StructType(
    "SummaryMember",
    [
        ("container", STRING),
        ("node", STRING),
        ("port", UINT16),
        ("incarnation", UINT32),
        ("alive", UINT8),  # 0/1; dead members propagate so other zones unbind
    ],
)

ZONE_SUMMARY_SCHEMA = StructType(
    "ZoneSummary",
    [
        ("zone", STRING),
        ("origin", STRING),  # the relay/ground container that published it
        ("version", UINT32),
        ("members", VectorType(SUMMARY_MEMBER_SCHEMA)),
    ],
)


#: Decode-side views of ZONE_SUMMARY_SCHEMA, cut from it so they cannot drift
#: (not wire schemas of their own): the three leading fields, which receivers
#: peek before deciding whether any member needs decoding, and the member
#: vector that fills the rest of the payload.
_SUMMARY_HEADER = StructType("ZoneSummaryHeader", ZONE_SUMMARY_SCHEMA.fields[:3])
_SUMMARY_MEMBERS = ZONE_SUMMARY_SCHEMA.fields[3][1]


def encode_zone_summary(doc: dict) -> bytes:
    return _CODEC.encode(ZONE_SUMMARY_SCHEMA, doc)


def decode_zone_summary(payload: bytes) -> dict:
    document = _CODEC.decode(ZONE_SUMMARY_SCHEMA, payload)
    for member in document["members"]:
        # An alive member becomes an Address (Directory.summary_address_of).
        if member["alive"] and not member["node"]:
            raise ProtocolError(f"summary member {member['container']!r} names an empty node id")
    return document


def peek_zone_summary(payload: bytes) -> Tuple[str, str, int, int]:
    """``(zone, origin, version, offset)`` off the front of a ZONE_SUMMARY
    payload, no member decoded; ``payload[offset:]`` is the member section."""
    header, offset = _CODEC.decode_prefix(_SUMMARY_HEADER, payload)
    return header["zone"], header["origin"], header["version"], offset


def decode_summary_members(members: bytes) -> List[dict]:
    """Decode a member section cut from a payload that passed
    :func:`decode_zone_summary`."""
    return _CODEC.decode(_SUMMARY_MEMBERS, members)


class FleetCoordinator:
    """Per-container driver of zone-summary traffic.

    Owned by :class:`~repro.container.container.ServiceContainer` when its
    :class:`~repro.container.fleet.FleetConfig` names a zone; absent
    otherwise (zero cost on the seed path).
    """

    def __init__(self, container):
        self._container = container
        self._fleet = container.config.fleet
        self._summary_version = 0
        #: Newest summary version applied per (zone, origin).
        self._applied_summaries: Dict[Tuple[str, str], int] = {}
        #: Member section last relayed into our zone per (zone, origin), in
        #: wire form. Forwards are delta-suppressed: a refresh with unchanged
        #: membership stays on the backbone, so steady-state zone traffic is
        #: independent of the number of zones.
        self._forwarded_members: Dict[Tuple[str, str], bytes] = {}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> List[object]:
        """Begin periodic work; returns cancellable timer handles the
        container folds into its own periodic set."""
        if not self._fleet.backbone_member:
            return []
        return [
            self._container._every(self._fleet.summary_interval, self.publish_summary)
        ]

    # -- zone summaries (federation) ----------------------------------------
    def publish_summary(self) -> None:
        """Publish this zone's digest on the backbone (relay/ground only)."""
        zone = self._fleet.zone
        if zone is None:
            return
        members = [
            {
                "container": self._container.id,
                "node": self._container.config.node,
                "port": self._container.config.port,
                "incarnation": self._container._incarnation,
                "alive": 1,
            }
        ]
        directory = self._container.directory
        for record in sorted(
            directory.all_records(), key=lambda r: r.container
        ):
            members.append(
                {
                    "container": record.container,
                    "node": record.address.node,
                    "port": record.address.port,
                    "incarnation": record.incarnation,
                    "alive": 1 if record.alive else 0,
                }
            )
        self._summary_version += 1
        doc = {
            "zone": zone,
            "origin": self._container.id,
            "version": self._summary_version,
            "members": members,
        }
        self._applied_summaries[(zone, self._container.id)] = self._summary_version
        self._container.send_group(
            BACKBONE_GROUP,
            Frame(
                kind=MessageKind.ZONE_SUMMARY,
                source=self._container.id,
                payload=encode_zone_summary(doc),
            ),
        )

    def on_zone_summary(self, frame: Frame) -> None:
        payload = frame.payload
        zone, origin, version, offset = peek_zone_summary(payload)
        if zone == self._fleet.zone:
            return  # our own zone — we hold the full records already
        key = (zone, origin)
        if version <= self._applied_summaries.get(key, 0):
            return
        members = payload[offset:]
        directory = self._container.directory
        if members != directory.summary_members(zone):
            # First sight or changed membership: the full decode is the
            # malformed-input check (it raises into _handle_control, which
            # scores the sender) and must pass before anything is recorded,
            # held or forwarded. A byte-equal member section is a periodic
            # refresh and inherits the validation of the copy already held.
            decode_zone_summary(payload)
        self._applied_summaries[key] = version
        directory.apply_zone_summary(zone, origin, version, members)
        if (
            self._fleet.backbone_member
            and members != self._forwarded_members.get(key)
        ):
            # Relay the foreign summary down into our zone — but only when
            # its membership actually changed (first sight, a join/leave, an
            # incarnation bump). Periodic same-content refreshes die here.
            self._forwarded_members[key] = members
            self._container.send_group(
                zone_control_group(self._fleet.zone),
                Frame(
                    kind=MessageKind.ZONE_SUMMARY,
                    source=self._container.id,
                    payload=payload,
                ),
            )


__all__ = [
    "FleetCoordinator",
    "SUMMARY_MEMBER_SCHEMA",
    "ZONE_SUMMARY_SCHEMA",
    "encode_zone_summary",
    "decode_zone_summary",
    "peek_zone_summary",
    "decode_summary_members",
]
