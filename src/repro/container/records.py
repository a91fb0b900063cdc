"""Control-plane message schemas and directory records.

Announce/heartbeat payloads are encoded with the middleware's own type
system — the control plane eats the same dog food as application data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.encoding.compiled import CompiledCodec
from repro.encoding.types import (
    FLOAT64,
    STRING,
    UINT16,
    UINT32,
    UINT64,
    StructType,
    VectorType,
)
from repro.transport.addressing import Address
from repro.util.errors import ProtocolError

# Control-plane frames use the compiled binary codec: same bytes as the
# reference BinaryCodec, from flat precompiled pack/unpack plans.
_CODEC = CompiledCodec()

# -- offer schemas -----------------------------------------------------------

VAR_OFFER_SCHEMA = StructType(
    "VarOffer",
    [
        ("name", STRING),
        ("datatype", STRING),  # C-like description, parse_type-compatible
        ("validity", FLOAT64),  # seconds a sample stays usable (0 = forever)
        ("period", FLOAT64),  # nominal publication period (0 = aperiodic)
    ],
)

EVENT_OFFER_SCHEMA = StructType(
    "EventOffer",
    [("name", STRING), ("datatype", STRING)],
)

FUNC_OFFER_SCHEMA = StructType(
    "FuncOffer",
    [
        ("name", STRING),
        ("params", VectorType(STRING)),  # one C-like description per parameter
        ("result", STRING),  # "" for void
    ],
)

FILE_OFFER_SCHEMA = StructType(
    "FileOffer",
    [
        ("name", STRING),
        ("revision", UINT32),
        ("size", UINT64),
        ("chunk_size", UINT32),
    ],
)

ANNOUNCE_SCHEMA = StructType(
    "Announce",
    [
        ("container", STRING),
        ("node", STRING),
        ("port", UINT16),
        ("incarnation", UINT32),
        ("services", VectorType(STRING)),
        #: Services currently FAILED (escalated or awaiting restart) — the
        #: §3 "changes in the services status" notification, so peers can
        #: distinguish a withdrawn offer from a failed provider.
        ("failed_services", VectorType(STRING)),
        ("variables", VectorType(VAR_OFFER_SCHEMA)),
        ("events", VectorType(EVENT_OFFER_SCHEMA)),
        ("functions", VectorType(FUNC_OFFER_SCHEMA)),
        ("files", VectorType(FILE_OFFER_SCHEMA)),
    ],
)

HEARTBEAT_SCHEMA = StructType(
    "Heartbeat",
    [
        ("container", STRING),
        ("node", STRING),
        ("port", UINT16),
        ("incarnation", UINT32),
        ("load", UINT32),
        #: Total restart attempts made by this container's supervisor — a
        #: cheap cross-domain health signal (a climbing counter means a
        #: crash-looping service).
        ("restarts", UINT32),
    ],
)

BYE_SCHEMA = StructType("Bye", [("container", STRING)])

# Bound once: a heartbeat decode must not look its plan up per call.
_decode_announce = _CODEC.decoder(ANNOUNCE_SCHEMA)
_decode_heartbeat = _CODEC.decoder(HEARTBEAT_SCHEMA)
_decode_bye = _CODEC.decoder(BYE_SCHEMA)


def encode_announce(doc: dict) -> bytes:
    return _CODEC.encode(ANNOUNCE_SCHEMA, doc)


def _with_node(doc: dict) -> dict:
    # The node id becomes an Address: an empty one is a malformed frame.
    if not doc["node"]:
        raise ProtocolError(f"container {doc['container']!r} names an empty node id")
    return doc


def decode_announce(payload: bytes) -> dict:
    return _with_node(_decode_announce(payload))


def encode_heartbeat(doc: dict) -> bytes:
    return _CODEC.encode(HEARTBEAT_SCHEMA, doc)


def decode_heartbeat(payload: bytes) -> dict:
    return _with_node(_decode_heartbeat(payload))


def encode_bye(container: str) -> bytes:
    return _CODEC.encode(BYE_SCHEMA, {"container": container})


def decode_bye(payload: bytes) -> str:
    return _decode_bye(payload)["container"]


# -- directory records --------------------------------------------------------


@dataclass
class ContainerRecord:
    """Everything the local container knows about a remote one.

    This is the "proxy cache for the services it contains" (§3): a cached,
    possibly stale view refreshed by announces and heartbeats.
    """

    container: str
    address: Address
    incarnation: int
    services: List[str] = field(default_factory=list)
    failed_services: List[str] = field(default_factory=list)
    variables: Dict[str, dict] = field(default_factory=dict)  # name -> VarOffer
    events: Dict[str, dict] = field(default_factory=dict)
    functions: Dict[str, dict] = field(default_factory=dict)
    files: Dict[str, dict] = field(default_factory=dict)
    last_seen: float = 0.0
    load: int = 0
    #: Cumulative supervisor restart attempts reported via heartbeat.
    restarts: int = 0
    alive: bool = True
    #: Set on BYE: stale in-flight heartbeats of the same incarnation must
    #: not resurrect the record.
    said_bye: bool = False

    @classmethod
    def from_announce(cls, doc: dict, now: float) -> "ContainerRecord":
        return cls(
            container=doc["container"],
            address=Address(doc["node"], doc["port"]),
            incarnation=doc["incarnation"],
            services=list(doc["services"]),
            failed_services=list(doc.get("failed_services", [])),
            variables={v["name"]: v for v in doc["variables"]},
            events={e["name"]: e for e in doc["events"]},
            functions={f["name"]: f for f in doc["functions"]},
            files={f["name"]: f for f in doc["files"]},
            last_seen=now,
        )


__all__ = [
    "ContainerRecord",
    "ANNOUNCE_SCHEMA",
    "HEARTBEAT_SCHEMA",
    "BYE_SCHEMA",
    "VAR_OFFER_SCHEMA",
    "EVENT_OFFER_SCHEMA",
    "FUNC_OFFER_SCHEMA",
    "FILE_OFFER_SCHEMA",
    "encode_announce",
    "decode_announce",
    "encode_heartbeat",
    "decode_heartbeat",
    "encode_bye",
    "decode_bye",
]
