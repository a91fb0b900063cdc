"""Fragmentation and reassembly.

The Transport layer has an MTU; any frame whose encoding exceeds it is
wrapped in numbered FRAGMENT frames and reassembled on the far side. Used by
remote invocation (arbitrary parameter sizes) and variable initial-value
responses; the file primitive sizes its own chunks below the MTU instead.

Fragment payload layout::

    uint32 message_id | uint16 index | uint16 total | chunk bytes
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.protocol.frames import Frame, MessageKind
from repro.util.errors import ProtocolError

_FRAG_HEADER = struct.Struct("<IHH")

#: Reassembly buffers older than this many seconds are discarded.
REASSEMBLY_TIMEOUT = 5.0

#: Bytes of partial messages held for one source id, and for all sources
#: together. The largest fragmented message any test, example or benchmark
#: sends is 64 KiB (an RPC argument, the reassembly probe); one source may
#: hold sixteen of those at once. Reassembly runs before admission, so
#: these bounds are what stands between a fragment flood and the heap.
MAX_REASSEMBLY_BYTES_PER_SOURCE = 1 << 20
MAX_REASSEMBLY_BYTES = 8 << 20

#: What holding one chunk costs besides its bytes (its dict slot and bytes
#: object), charged so that a flood of empty chunks is bounded too.
_CHUNK_COST = 96


class Fragmenter:
    """Splits oversized encoded frames into FRAGMENT frames."""

    def __init__(self, source: str, mtu: int):
        # Leave room for the fragment frame's own header and the 8-byte
        # fragment payload header.
        overhead = Frame(kind=MessageKind.FRAGMENT, source=source).header_size
        self._chunk_size = mtu - overhead - _FRAG_HEADER.size
        if self._chunk_size <= 0:
            raise ProtocolError(f"MTU {mtu} too small to carry fragments")
        self._source = source
        self._next_message_id = 1

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    def needs_fragmentation(self, encoded_frame: bytes, mtu: int) -> bool:
        return len(encoded_frame) > mtu

    def fragment(self, encoded_frame: bytes) -> list:
        """Wrap an encoded frame into a list of FRAGMENT frames."""
        message_id = self._next_message_id
        self._next_message_id += 1
        # Chunk through a memoryview so each byte is copied once (into the
        # fragment payload), not twice via intermediate slices.
        view = memoryview(encoded_frame)
        chunks = [
            view[i : i + self._chunk_size]
            for i in range(0, len(encoded_frame), self._chunk_size)
        ] or [b""]
        total = len(chunks)
        if total > 0xFFFF:
            raise ProtocolError(f"message needs {total} fragments; limit is 65535")
        return [
            Frame(
                kind=MessageKind.FRAGMENT,
                source=self._source,
                payload=b"".join((_FRAG_HEADER.pack(message_id, index, total), chunk)),
            )
            for index, chunk in enumerate(chunks)
        ]


@dataclass
class _PartialMessage:
    total: int
    chunks: Dict[int, bytes] = field(default_factory=dict)
    first_seen: float = 0.0
    held: int = 0  # bytes charged for the chunks, _CHUNK_COST each included


class Reassembler:
    """Rebuilds encoded frames from FRAGMENT frames.

    Keyed by (source, message_id); incomplete messages expire after
    :data:`REASSEMBLY_TIMEOUT` (fragments ride best-effort transports, so a
    lost fragment must not leak a buffer forever). What is held is bounded
    by bytes, per source and in total: a fragment whose declared total
    cannot fit the per-source bound is rejected, a source over its bound
    loses its oldest partial messages to make room, and a fragment that
    still does not fit is rejected. A rejection raises
    :class:`ProtocolError`; an eviction is counted in ``evicted_messages``.
    """

    def __init__(self, timeout: float = REASSEMBLY_TIMEOUT):
        self._timeout = timeout
        self._max_source_bytes = MAX_REASSEMBLY_BYTES_PER_SOURCE
        self._max_bytes = MAX_REASSEMBLY_BYTES
        # source -> message id -> partial, oldest first.
        self._partial: Dict[str, Dict[int, _PartialMessage]] = {}
        self._held: Dict[str, int] = {}
        self.held_bytes = 0
        self.expired_messages = 0
        self.evicted_messages = 0
        self.rejected_fragments = 0

    def on_fragment(self, frame: Frame, now: float) -> Optional[bytes]:
        """Feed one FRAGMENT frame; returns the full encoded frame when the
        last piece arrives, else None."""
        if frame.kind != MessageKind.FRAGMENT:
            raise ProtocolError(f"not a fragment: {frame!r}")
        if len(frame.payload) < _FRAG_HEADER.size:
            raise ProtocolError("fragment payload too short")
        message_id, index, total = _FRAG_HEADER.unpack_from(frame.payload)
        if total == 0 or index >= total:
            raise ProtocolError(f"bad fragment index {index}/{total}")
        chunk = frame.payload[_FRAG_HEADER.size :]
        cost = len(chunk) + _CHUNK_COST
        # Every fragment but the last carries a full chunk, so it tells how
        # large the whole message is.
        if index < total - 1 and total * cost > self._max_source_bytes:
            self.rejected_fragments += 1
            raise ProtocolError(
                f"fragment declares {total} chunks of {len(chunk)} bytes, "
                f"over the {self._max_source_bytes}-byte reassembly bound"
            )
        source = frame.source
        messages = self._partial.setdefault(source, {})
        partial = messages.get(message_id)
        if partial is not None and partial.total != total:
            raise ProtocolError(
                f"fragment {(source, message_id)} disagrees on total "
                f"({total} != {partial.total})"
            )
        old = partial.chunks.get(index) if partial is not None else None
        delta = cost if old is None else len(chunk) - len(old)
        while self._held.get(source, 0) + delta > self._max_source_bytes:
            victim = next((mid for mid in messages if mid != message_id), None)
            if victim is None:
                break
            self._drop(source, victim)
            self.evicted_messages += 1
        if (
            self._held.get(source, 0) + delta > self._max_source_bytes
            or self.held_bytes + delta > self._max_bytes
        ):
            if not messages:
                del self._partial[source]
            self.rejected_fragments += 1
            raise ProtocolError(
                f"fragment of {len(chunk)} bytes from {source!r} does not fit "
                f"the reassembly bounds"
            )
        if partial is None:
            partial = messages[message_id] = _PartialMessage(total=total, first_seen=now)
        partial.chunks[index] = chunk
        partial.held += delta
        self._held[source] = self._held.get(source, 0) + delta
        self.held_bytes += delta
        if len(partial.chunks) == total:
            self._drop(source, message_id)
            return b"".join(partial.chunks[i] for i in range(total))
        return None

    def _drop(self, source: str, message_id: int) -> None:
        messages = self._partial[source]
        partial = messages.pop(message_id)
        self.held_bytes -= partial.held
        held = self._held[source] - partial.held
        if messages:
            self._held[source] = held
        else:
            del self._partial[source]
            del self._held[source]

    def expire(self, now: float) -> int:
        """Drop incomplete messages older than the timeout; returns count."""
        stale = [
            (source, message_id)
            for source, messages in self._partial.items()
            for message_id, partial in messages.items()
            if now - partial.first_seen > self._timeout
        ]
        for source, message_id in stale:
            self._drop(source, message_id)
        self.expired_messages += len(stale)
        return len(stale)

    @property
    def pending(self) -> int:
        return sum(len(messages) for messages in self._partial.values())


__all__ = [
    "Fragmenter",
    "Reassembler",
    "REASSEMBLY_TIMEOUT",
    "MAX_REASSEMBLY_BYTES_PER_SOURCE",
    "MAX_REASSEMBLY_BYTES",
]
