"""Fleet-scale control-plane dissemination: gossip rumors and zone summaries.

Flat discovery multicasts every ANNOUNCE/HEARTBEAT to the whole domain —
O(N²) control traffic. At fleet scale this module replaces that fan-out with
two cooperating mechanisms, selected by :class:`~repro.container.fleet.FleetConfig`:

**Gossip** — a periodic control emission becomes a *rumor*: the original
announce/heartbeat/bye payload wrapped with its origin and a per-origin
monotonic version. Each gossip round the coordinator forwards fresh rumors
to ``gossip_fanout`` random live peers; receivers apply a rumor to their
directory exactly once (version dedup) and forward it onward. Epidemic
spread reaches N containers in O(log N) rounds while each container sends
O(fanout) frames per round regardless of fleet size.

**Zone summaries** — relay/ground containers periodically publish a
ZONE_SUMMARY digest of their zone's directory on the backbone group and
forward foreign summaries down into their own zone, giving every container
a compact map of the whole fleet without holding per-container records for
other zones. Receivers keep a summary in wire form: the three leading
fields are peeked to drop own-zone and already-applied versions, and the
member section is decoded in full only when its bytes differ from the copy
already held (first sight, changed membership) — publishers encode members
canonically, so equal bytes mean equal membership.

Rumor payloads reuse the exact ANNOUNCE/HEARTBEAT/BYE encodings from
:mod:`repro.container.records`, so the directory merge logic is unchanged —
gossip only changes *how* control documents travel, never what they say.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.container.records import (
    decode_announce,
    decode_bye,
    decode_heartbeat,
)
from repro.encoding.compiled import CompiledCodec
from repro.encoding.types import (
    BYTES,
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
from repro.util.rng import SeededRng

_CODEC = CompiledCodec()

# -- wire schemas -------------------------------------------------------------

RUMOR_SCHEMA = StructType(
    "Rumor",
    [
        #: MessageKind value of the wrapped control payload
        #: (ANNOUNCE, HEARTBEAT or BYE).
        ("kind", UINT8),
        ("origin", STRING),
        #: Per-origin monotonic version; one counter spans all rumor kinds
        #: of an origin, so newer emissions always win the dedup.
        ("version", UINT32),
        #: The original control payload, byte-identical to its multicast form.
        ("payload", BYTES),
    ],
)

GOSSIP_SCHEMA = StructType("Gossip", [("rumors", VectorType(RUMOR_SCHEMA))])

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


def encode_gossip(doc: dict) -> bytes:
    return _CODEC.encode(GOSSIP_SCHEMA, doc)


def decode_gossip(payload: bytes) -> dict:
    return _CODEC.decode(GOSSIP_SCHEMA, payload)


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


#: Control kinds a rumor may wrap; anything else is a protocol violation.
_RUMOR_KINDS = {
    int(MessageKind.ANNOUNCE),
    int(MessageKind.HEARTBEAT),
    int(MessageKind.BYE),
}


class FleetCoordinator:
    """Per-container driver of gossip rounds and zone-summary traffic.

    Owned by :class:`~repro.container.container.ServiceContainer` when its
    :class:`~repro.container.fleet.FleetConfig` enables any fleet mechanism;
    absent otherwise (zero cost on the seed path).
    """

    def __init__(self, container, rng: Optional[SeededRng] = None):
        self._container = container
        self._fleet = container.config.fleet
        # Peer sampling must be seeded for bit-reproducible runs; derive a
        # stable per-container stream when the runtime supplies none.
        self._rng = (
            rng if rng is not None else SeededRng(0xF1EE7).fork(container.id)
        )
        #: Newest rumor version seen per (origin, kind) — the dedup table.
        self._versions: Dict[Tuple[str, int], int] = {}
        #: Rumors to forward on the next gossip round.
        self._fresh: List[dict] = []
        #: Monotonic version of our own emissions (all kinds share it).
        self._self_version = 0
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
        handles: List[object] = []
        if self._fleet.gossip_enabled:
            handles.append(
                self._container._every(self._fleet.gossip_interval, self.flush)
            )
        if self._fleet.backbone_member:
            handles.append(
                self._container._every(
                    self._fleet.summary_interval, self.publish_summary
                )
            )
        return handles

    # -- emission (called by the container instead of multicasting) --------
    def emit_announce(self, payload: bytes) -> None:
        self._emit_own(MessageKind.ANNOUNCE, payload)

    def emit_heartbeat(self, payload: bytes) -> None:
        self._emit_own(MessageKind.HEARTBEAT, payload)

    def emit_bye(self, payload: bytes) -> None:
        self._emit_own(MessageKind.BYE, payload)

    def _emit_own(self, kind: MessageKind, payload: bytes) -> None:
        self._self_version += 1
        rumor = {
            "kind": int(kind),
            "origin": self._container.id,
            "version": self._self_version,
            "payload": payload,
        }
        # Record our own version so an echoed copy is never re-applied.
        self._versions[(self._container.id, int(kind))] = self._self_version
        self._fresh.append(rumor)

    # -- gossip rounds ------------------------------------------------------
    def flush(self) -> None:
        """One gossip round: forward fresh rumors to ``fanout`` live peers."""
        if not self._fresh:
            return
        batch = self._fresh[: self._fleet.gossip_max_rumors]
        del self._fresh[: len(batch)]
        peers = self._sample_peers()
        if not peers:
            # Nobody known yet (bootstrap): the rumors are stale by the next
            # periodic emission anyway, so dropping them loses nothing.
            return
        frame = Frame(
            kind=MessageKind.GOSSIP,
            source=self._container.id,
            payload=encode_gossip({"rumors": batch}),
        )
        for peer in peers:
            self._container.send_unicast(peer, frame)

    def _sample_peers(self) -> List[str]:
        candidates = [
            r.container for r in self._container.directory.live_containers()
        ]
        k = min(self._fleet.gossip_fanout, len(candidates))
        if k == 0:
            return []
        if k == len(candidates):
            return candidates
        # live_containers() is sorted, so the draw is deterministic per seed.
        return self._rng.sample(candidates, k)

    def on_gossip(self, frame: Frame) -> None:
        doc = decode_gossip(frame.payload)
        for rumor in doc["rumors"]:
            self._apply_rumor(rumor)

    def _apply_rumor(self, rumor: dict) -> None:
        origin = rumor["origin"]
        if origin == self._container.id:
            return
        kind = rumor["kind"]
        if kind not in _RUMOR_KINDS:
            raise ProtocolError(f"gossip rumor wraps non-control kind {kind}")
        key = (origin, kind)
        if rumor["version"] <= self._versions.get(key, 0):
            return  # already seen (or newer) — rumor dies here
        # Decode before recording the version: a malformed payload must not
        # poison the dedup table (the sender gets quarantine-scored instead).
        directory = self._container.directory
        if kind == int(MessageKind.ANNOUNCE):
            document = decode_announce(rumor["payload"])
            self._versions[key] = rumor["version"]
            directory.handle_announce(document)
        elif kind == int(MessageKind.HEARTBEAT):
            document = decode_heartbeat(rumor["payload"])
            self._versions[key] = rumor["version"]
            directory.handle_heartbeat(document)
        else:  # BYE
            container_id = decode_bye(rumor["payload"])
            self._versions[key] = rumor["version"]
            directory.handle_bye(container_id)
        self._fresh.append(rumor)  # forward once, next round

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
    "RUMOR_SCHEMA",
    "GOSSIP_SCHEMA",
    "SUMMARY_MEMBER_SCHEMA",
    "ZONE_SUMMARY_SCHEMA",
    "encode_gossip",
    "decode_gossip",
    "encode_zone_summary",
    "decode_zone_summary",
    "peek_zone_summary",
    "decode_summary_members",
]
