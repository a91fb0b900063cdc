"""Adapter between Protocol-layer frames and a raw byte transport.

Encodes outbound :class:`Frame` objects, transparently fragmenting any that
exceed the transport MTU; decodes and reassembles inbound datagrams. This is
the seam between the PEPt Protocol and Transport subsystems, so swapping the
transport (sim / in-proc / UDP) never touches protocol code.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.protocol.batching import decode_batch_payload
from repro.protocol.fragmentation import Fragmenter, Reassembler
from repro.protocol.frames import Frame, MessageKind
from repro.simnet.addressing import Address
from repro.simnet.packet import Destination
from repro.transport.base import RawTransport
from repro.util.clock import Clock
from repro.util.errors import EncodingError, ProtocolError

#: Callback invoked with (frame, source_address) for each inbound frame.
FrameReceiver = Callable[[Frame, Address], None]


class FrameTransport:
    """Frame-level send/receive over any :class:`RawTransport`."""

    def __init__(
        self,
        raw: RawTransport,
        clock: Clock,
        source: str,
        on_protocol_error: Optional[Callable[[Exception, Address], None]] = None,
    ):
        self._raw = raw
        self._clock = clock
        # Scatter/gather fast path: a transport that can put a buffer list
        # on the wire directly (socket.sendmsg) skips the datagram join.
        self._send_buffers = getattr(raw, "send_buffers", None)
        self._fragmenter = Fragmenter(source, raw.mtu)
        self._reassembler = Reassembler()
        self._receiver: Optional[FrameReceiver] = None
        self._on_protocol_error = on_protocol_error
        self.fragmented_messages = 0
        self.malformed_datagrams = 0
        self.batched_datagrams = 0
        self.unbatched_frames = 0

    def set_protocol_error_handler(
        self, handler: Callable[[Exception, Address], None]
    ) -> None:
        """Register the malformed-datagram hook after construction — the
        container uses it to feed undecodable traffic into admission
        quarantine scoring."""
        self._on_protocol_error = handler

    # -- lifecycle -----------------------------------------------------------
    def open(self, port: int, receiver: FrameReceiver) -> Address:
        self._receiver = receiver
        return self._raw.open(port, self._on_datagram)

    def close(self) -> None:
        self._raw.close()

    @property
    def node(self) -> str:
        return self._raw.node

    @property
    def mtu(self) -> int:
        return self._raw.mtu

    @property
    def supports_scatter(self) -> bool:
        """Whether the raw transport accepts scatter/gather buffer lists —
        the signal for upstream stages to keep datagrams unjoined."""
        return self._send_buffers is not None

    # -- sending ---------------------------------------------------------------
    def send(self, destination: Destination, frame: Frame) -> None:
        if self._send_buffers is not None:
            views = frame.encode_views()
            total = sum(map(len, views))
            if total <= self._raw.mtu:
                self._send_buffers(destination, views)
                return
            encoded = b"".join(views)
        else:
            encoded = frame.encode()
            if len(encoded) <= self._raw.mtu:
                self._raw.send_bytes(destination, encoded)
                return
        self.fragmented_messages += 1
        for fragment in self._fragmenter.fragment(encoded):
            self._raw.send_bytes(destination, fragment.encode())

    def join(self, group) -> None:
        self._raw.join(group)

    def leave(self, group) -> None:
        self._raw.leave(group)

    # -- housekeeping ------------------------------------------------------------
    def on_tick(self, now: Optional[float] = None) -> None:
        """Expire stale partial reassemblies; call periodically."""
        self._reassembler.expire(self._clock.now() if now is None else now)

    # -- receive path ---------------------------------------------------------
    def _on_datagram(self, payload: bytes, source: Address) -> None:
        try:
            frame = Frame.decode(payload)
            if frame.kind == MessageKind.FRAGMENT:
                complete = self._reassembler.on_fragment(frame, self._clock.now())
                if complete is None:
                    return
                frame = Frame.decode(complete)
            if frame.kind == MessageKind.BATCH:
                # Transparent unbatching: each inner frame enters the normal
                # dispatch path exactly as if it had arrived alone.
                inner_frames = decode_batch_payload(frame.payload)
                self.batched_datagrams += 1
                self.unbatched_frames += len(inner_frames)
                if self._receiver is not None:
                    for inner in inner_frames:
                        self._receiver(inner, source)
                return
        except (ProtocolError, EncodingError) as exc:
            self.malformed_datagrams += 1
            if self._on_protocol_error is not None:
                self._on_protocol_error(exc, source)
            return
        if self._receiver is not None:
            self._receiver(frame, source)


__all__ = ["FrameTransport", "FrameReceiver"]
