"""Frame format.

Every datagram on the wire is one frame::

    0      2      3      4       5        7        11
    +------+------+------+-------+--------+---------+-----------+---------+
    | 'UA' | ver  | kind | flags | channel|   seq   | src-len+s | payload |
    +------+------+------+-------+--------+---------+-----------+---------+

- ``kind`` states the intent of the message (the Protocol subsystem's job
  per §6); one value per primitive interaction.
- ``channel`` scopes sequence numbers: each (source, channel) pair is an
  independent reliable stream.
- ``src`` is the sending container id, so receivers can demultiplex without
  trusting network addresses.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.util.errors import ProtocolError

MAGIC = b"UA"
VERSION = 1

_HEADER = struct.Struct("<2sBBBHI")  # magic, version, kind, flags, channel, seq
_SRC_LEN = struct.Struct("<B")
# The full fixed prefix (header + source length) packed/unpacked in one call.
_HEADER_SRC = struct.Struct("<2sBBBHIB")

#: Source ids are container ids — a handful of distinct strings per process —
#: so their UTF-8 encodings are cached instead of re-encoded per frame.
_SRC_CACHE: dict = {}


def _encode_source(source: str) -> bytes:
    raw = _SRC_CACHE.get(source)
    if raw is None:
        raw = source.encode("utf-8")
        if len(_SRC_CACHE) >= 1024:
            _SRC_CACHE.clear()
        _SRC_CACHE[source] = raw
    return raw


#: The decode-side mirror: received source-id bytes -> ``str``, so a frame
#: from a known peer skips the UTF-8 decode. Same bound and wholesale clear
#: as :data:`_SRC_CACHE` (the bytes come off the wire, so the table must not
#: grow with forged ids); only ids that decoded are ever inserted.
_SRC_DECODED: dict = {}


class MessageKind(enum.IntEnum):
    """Intent of a frame. Grouped by subsystem."""

    # Container control plane (announce/discovery, §3 "Name management").
    ANNOUNCE = 1
    HEARTBEAT = 2
    BYE = 3
    # Variables (§4.1).
    VAR_SAMPLE = 10
    VAR_INITIAL_REQUEST = 11
    VAR_INITIAL_RESPONSE = 12
    # Events (§4.2).
    EVENT = 20
    EVENT_SUBSCRIBE = 21
    EVENT_UNSUBSCRIBE = 22
    # Remote invocation (§4.3).
    RPC_REQUEST = 30
    RPC_RESPONSE = 31
    # File transmission (§4.4) — announce/transfer/completion phases.
    FILE_ANNOUNCE = 40
    FILE_SUBSCRIBE = 41
    FILE_CHUNK = 42
    FILE_STATUS_REQUEST = 43
    FILE_COMPLETION_ACK = 44
    FILE_COMPLETION_NACK = 45
    FILE_DONE = 46
    # Generic reliability and fragmentation support.
    ACK = 50
    FRAGMENT = 51
    #: Several small frames to the same destination packed in one datagram.
    BATCH = 52
    #: Negative ack: explicit retransmit request for the listed seqs.
    NACK = 53
    # Fleet-scale discovery (gossip dissemination + hierarchical federation).
    #: A batch of control-plane rumors (announce/heartbeat/bye payloads with
    #: per-origin versions) forwarded peer-to-peer instead of multicast.
    GOSSIP = 54
    #: A relay's aggregate view of its zone, published on the backbone.
    ZONE_SUMMARY = 55
    # TCP-like baseline stream (experiment E5 only).
    STREAM_SYN = 60
    STREAM_SYNACK = 61
    STREAM_SEGMENT = 62
    STREAM_ACK = 63


# Plain dict lookup; MessageKind(value) pays for enum __call__ on every frame.
_KIND_BY_VALUE = {int(k): k for k in MessageKind}


class FrameFlags(enum.IntFlag):
    NONE = 0
    #: Sender requests reliable (acked) delivery of this frame.
    RELIABLE = 1
    #: This frame is a retransmission.
    RETRANSMIT = 2


@dataclass
class Frame:
    """One protocol frame, the unit the Transport layer moves."""

    kind: MessageKind
    source: str  # container id
    payload: bytes = b""
    channel: int = 0
    seq: int = 0
    flags: int = 0
    version: int = field(default=VERSION)

    MAX_SOURCE_LEN = 255

    def encode(self) -> bytes:
        src = _encode_source(self.source)
        if len(src) > self.MAX_SOURCE_LEN:
            raise ProtocolError(f"source id too long: {self.source!r}")
        return (
            _HEADER_SRC.pack(
                MAGIC,
                self.version,
                int(self.kind),
                int(self.flags),
                self.channel & 0xFFFF,
                self.seq & 0xFFFFFFFF,
                len(src),
            )
            + src
            + self.payload
        )

    def encode_views(self) -> list:
        """Encode as a scatter/gather buffer list: ``[header_prefix, payload]``.

        The payload buffer is returned as-is — no join, no copy — so a
        scatter-capable transport (``socket.sendmsg``) can put the frame on
        the wire without ever materializing the contiguous datagram.
        ``b"".join(encode_views())`` equals :meth:`encode` by construction.
        """
        src = _encode_source(self.source)
        if len(src) > self.MAX_SOURCE_LEN:
            raise ProtocolError(f"source id too long: {self.source!r}")
        prefix = (
            _HEADER_SRC.pack(
                MAGIC,
                self.version,
                int(self.kind),
                int(self.flags),
                self.channel & 0xFFFF,
                self.seq & 0xFFFFFFFF,
                len(src),
            )
            + src
        )
        if self.payload:
            return [prefix, self.payload]
        return [prefix]

    @classmethod
    def decode(cls, data: bytes, start: int = 0, stop: Optional[int] = None) -> "Frame":
        """Decode the frame in ``data[start:stop]`` (the whole buffer by
        default). The bounds let a batch decode its inner frames in place:
        the payload is the one slice taken."""
        if stop is None:
            stop = len(data)
        if stop - start < _HEADER_SRC.size:
            raise ProtocolError(f"frame too short: {stop - start} bytes")
        magic, version, kind, flags, channel, seq, src_len = _HEADER_SRC.unpack_from(
            data, start
        )
        if magic != MAGIC:
            raise ProtocolError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ProtocolError(f"unsupported protocol version {version}")
        kind_enum = _KIND_BY_VALUE.get(kind)
        if kind_enum is None:
            raise ProtocolError(f"unknown message kind {kind}")
        offset = start + _HEADER_SRC.size
        end = offset + src_len
        if stop < end:
            raise ProtocolError("frame truncated inside source id")
        raw = data[offset:end]
        source = _SRC_DECODED.get(raw)
        if source is None:
            try:
                source = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ProtocolError("source id is not UTF-8") from None
            if len(_SRC_DECODED) >= 1024:
                _SRC_DECODED.clear()
            _SRC_DECODED[raw] = source
        return cls(kind_enum, source, data[end:stop], channel, seq, flags, version)

    @property
    def header_size(self) -> int:
        return _HEADER.size + _SRC_LEN.size + len(_encode_source(self.source))

    def __repr__(self) -> str:
        return (
            f"<Frame {self.kind.name} src={self.source} ch={self.channel} "
            f"seq={self.seq} {len(self.payload)}B>"
        )


def header_fingerprint() -> str:
    """Wire-compatibility fingerprint of the frame *header* layout.

    Locked in ``schemas.lock.json`` alongside the per-kind payload
    fingerprints (checked by ``tests/unit/test_schema_lock.py``): any
    change to the magic, version, or the packed header format is a
    protocol break every peer must agree on.
    """
    import hashlib

    text = f"{MAGIC!r}|v{VERSION}|{_HEADER.format}|{_SRC_LEN.format}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


__all__ = ["Frame", "MessageKind", "FrameFlags", "MAGIC", "VERSION", "header_fingerprint"]
