"""Datagram batching — amortizing per-packet overhead on the data plane.

The simulated medium (like the real stacks it stands in for) charges a
fixed per-datagram header cost (:data:`~repro.transport.addressing.WIRE_OVERHEAD_BYTES`),
so fan-out workloads that emit many small frames pay that cost linearly.
This module packs multiple small frames destined for the *same*
:class:`~repro.transport.addressing.Destination` into one ``BATCH`` datagram, up
to a configurable MTU budget. By default nothing waits for companions: what
one turn of the serialization domain produced leaves at the end of that
turn, so batching emerges under load and an idle link adds no delay. A
bandwidth-bound link can trade latency for fuller datagrams with a hold.

Wire format of a ``BATCH`` payload::

    uint16 count (>= 1)
    count x { uint32 length; length bytes = one complete encoded frame }

Inner frames are ordinary frames (header included), so the receive side
unbatches with :func:`Frame.decode`, in place, and hands the inner frames to
the container's one ingress path together, in wire order. Best-effort
``VAR_SAMPLE`` frames from one publisher repeat the same header bytes
(magic through source id); :func:`decode_batch` validates the first of them
with :func:`Frame.decode` and passes it and the identical ones after it on
as one :class:`SampleRun` — the header once, the payload bounds of each
sample — so a sample is never copied out of the datagram before it is
read. :func:`decode_batch_payload` is the same parser with every run
expanded into :class:`Frame` objects.
Nested batches and fragments inside a batch are illegal; the decoder
rejects them (a fragment is produced *below* the batching stage, a batch
never nests by construction).

Two invariants the property suite (``tests/property/test_batching_properties.py``)
pins down:

- **Single-frame parity**: a flush holding exactly one frame emits that
  frame raw, not wrapped — its datagram is byte-identical to the unbatched
  wire format. With batching disabled nothing here runs at all, so the
  wire stays byte-for-byte the seed format.
- **Band purity**: the batcher is keyed by (slot, priority band) — the
  slot is a unicast destination's peer, else the destination; a batch never
  spans bands (so batching composes with the egress shaper's
  strict-priority drain) or addresses. The one sanctioned exception is ACK
  piggybacking: tiny coalesced ACK frames may ride along in whatever batch
  is leaving for their peer anyway (see ``piggyback`` below).
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.protocol.frames import Frame, MessageKind
from repro.transport.addressing import Destination
from repro.util.clock import Clock
from repro.util.errors import EncodingError, ProtocolError

_COUNT = struct.Struct("<H")
_LEN = struct.Struct("<I")

#: Bytes one batch entry adds on top of the inner frame's own encoding.
ENTRY_OVERHEAD = _LEN.size

#: Byte budget of one batch datagram, outer frame and entry overhead
#: included (fits a 1500-byte Ethernet frame with IP/UDP headers to spare).
BATCH_MTU_BYTES = 1200

#: Inner kinds the decoder rejects: batches never nest, and fragmentation
#: happens below the batching stage.
_FORBIDDEN_INNER = (MessageKind.BATCH, MessageKind.FRAGMENT)

_VAR_SAMPLE = MessageKind.VAR_SAMPLE


def batch_header_size(source: str) -> int:
    """Encoded size of an *empty* batch frame from ``source`` (outer frame
    header plus the count word)."""
    return Frame(kind=MessageKind.BATCH, source=source).header_size + _COUNT.size


def encode_batch_payload(encoded_frames: List[bytes]) -> bytes:
    """Pack already-encoded frames into one BATCH payload."""
    if not encoded_frames:
        raise EncodingError("a batch must contain at least one frame")
    if len(encoded_frames) > 0xFFFF:
        raise EncodingError("too many frames in one batch")
    out = [_COUNT.pack(len(encoded_frames))]
    for raw in encoded_frames:
        out.append(_LEN.pack(len(raw)))
        out.append(raw)
    return b"".join(out)


class SampleRun:
    """Consecutive best-effort (channel 0) ``VAR_SAMPLE`` frames of one
    BATCH with byte-identical headers, held in place.

    The first frame of the run passed :func:`Frame.decode`; the others
    repeat its header bytes exactly, so they pass every check it makes and
    share its decoded fields. Sample ``i``'s payload is
    ``buf[starts[i]:stops[i]]``; nothing is sliced until a consumer asks.
    """

    __slots__ = ("kind", "source", "channel", "seq", "flags", "version",
                 "buf", "starts", "stops")

    def __init__(self, head: Frame, buf: bytes, start: int, stop: int) -> None:
        self.kind = head.kind
        self.source = head.source
        self.channel = head.channel
        self.seq = head.seq
        self.flags = head.flags
        self.version = head.version
        self.buf = buf
        self.starts = [start]
        self.stops = [stop]

    def __len__(self) -> int:
        return len(self.starts)

    def frame_at(self, start: int, stop: int) -> Frame:
        """The frame whose payload is ``buf[start:stop]``."""
        return Frame(self.kind, self.source, self.buf[start:stop], self.channel,
                     self.seq, self.flags, self.version)

    def frames(self) -> List[Frame]:
        """The run as the frames :func:`Frame.decode` gives for it."""
        return [self.frame_at(start, stop)
                for start, stop in zip(self.starts, self.stops)]

    def __repr__(self) -> str:
        return f"<SampleRun src={self.source} frames={len(self.starts)}>"


def decode_batch(payload: bytes) -> Tuple[List[Union[Frame, SampleRun]], int]:
    """Unpack a BATCH payload into its inner frames, in wire order, and
    their count: a run of best-effort samples as one :class:`SampleRun`,
    every other inner frame as a :class:`Frame`.

    Every malformation — truncated count, inner length overrunning the
    payload, trailing garbage, zero frames, nested batch/fragment, or an
    inner frame that fails :func:`Frame.decode` — raises a clean
    :class:`EncodingError`, never a different exception and never a silent
    partial result.
    """
    if len(payload) < _COUNT.size:
        raise EncodingError(
            f"batch payload truncated inside header: {len(payload)} bytes"
        )
    (count,) = _COUNT.unpack_from(payload)
    if count == 0:
        raise EncodingError("zero-frame batch")
    items: List[Union[Frame, SampleRun]] = []
    run: Optional[SampleRun] = None
    head = b""  # the open run's header bytes
    offset = _COUNT.size
    for index in range(count):
        if len(payload) < offset + _LEN.size:
            raise EncodingError(
                f"batch payload truncated in length prefix of frame {index}"
            )
        (length,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        stop = offset + length
        if len(payload) < stop:
            raise EncodingError(
                f"inner frame {index} overruns batch payload "
                f"({length} bytes declared, {len(payload) - offset} left)"
            )
        if run is not None and length >= len(head) and payload.startswith(head, offset):
            run.starts.append(offset + len(head))
            run.stops.append(stop)
            offset = stop
            continue
        try:
            frame = Frame.decode(payload, offset, stop)
        except ProtocolError as exc:
            raise EncodingError(f"inner frame {index} malformed: {exc}") from exc
        if frame.kind in _FORBIDDEN_INNER:
            raise EncodingError(
                f"inner frame {index} has illegal kind {frame.kind.name}"
            )
        if frame.kind is _VAR_SAMPLE and not frame.channel:
            body = stop - len(frame.payload)
            head = payload[offset:body]
            run = SampleRun(frame, payload, body, stop)
            items.append(run)
        else:
            run = None
            items.append(frame)
        offset = stop
    if offset != len(payload):
        raise EncodingError(
            f"{len(payload) - offset} trailing bytes after batch frames"
        )
    return items, count


def decode_batch_payload(payload: bytes) -> List[Frame]:
    """Unpack a BATCH payload into its inner frames, each a :class:`Frame`:
    :func:`decode_batch` with every run expanded. Raises what it raises."""
    frames: List[Frame] = []
    for item in decode_batch(payload)[0]:
        if item.__class__ is SampleRun:
            frames.extend(item.frames())
        else:
            frames.append(item)
    return frames


def make_batch_frame(source: str, encoded_frames: List[bytes]) -> Frame:
    """Build the outer BATCH frame around already-encoded inner frames."""
    return Frame(
        kind=MessageKind.BATCH,
        source=source,
        payload=encode_batch_payload(encoded_frames),
    )


def encode_batch_views(encoded_frames: List[bytes]) -> List[bytes]:
    """The BATCH payload as a scatter/gather buffer list — no join.

    ``b"".join(encode_batch_views(fs)) == encode_batch_payload(fs)`` by
    construction; the already-encoded inner frames are referenced, never
    copied.
    """
    if not encoded_frames:
        raise EncodingError("a batch must contain at least one frame")
    if len(encoded_frames) > 0xFFFF:
        raise EncodingError("too many frames in one batch")
    views: List[bytes] = [_COUNT.pack(len(encoded_frames))]
    for raw in encoded_frames:
        views.append(_LEN.pack(len(raw)))
        views.append(raw)
    return views


class WireDatagram:
    """A fully encoded outbound BATCH datagram held as a buffer list.

    The zero-copy twin of :func:`make_batch_frame`: instead of joining the
    inner frames into one contiguous payload, the datagram stays a
    scatter/gather list (outer header, count word, per-frame length
    prefixes, the encoded frames themselves) that ``socket.sendmsg`` can
    put on the wire directly. It quacks like a :class:`Frame` where the
    egress shaper and frame transport need it (``kind``/``source``/
    ``encode``/``encode_views``); ``encode()`` joins lazily, so any
    non-scatter transport downstream still sees byte-identical datagrams.
    """

    __slots__ = ("kind", "source", "channel", "seq", "flags", "views",
                 "wire_size", "frame_count")

    def __init__(self, source: str, views: List[bytes], frame_count: int):
        self.kind = MessageKind.BATCH
        self.source = source
        self.channel = 0
        self.seq = 0
        self.flags = 0
        self.views = views
        self.wire_size = sum(map(len, views))
        self.frame_count = frame_count

    def encode(self) -> bytes:
        return b"".join(self.views)

    def encode_views(self) -> List[bytes]:
        return self.views

    @property
    def payload(self) -> bytes:
        """The joined BATCH payload — normative fallback, rarely taken."""
        return b"".join(self.views[1:])

    def __repr__(self) -> str:
        return (
            f"<WireDatagram BATCH src={self.source} frames={self.frame_count} "
            f"{self.wire_size}B>"
        )


def make_wire_datagram(source: str, encoded_frames: List[bytes]) -> WireDatagram:
    """Assemble the zero-copy BATCH datagram around encoded inner frames."""
    outer = Frame(kind=MessageKind.BATCH, source=source)
    views = outer.encode_views()
    views.extend(encode_batch_views(encoded_frames))
    return WireDatagram(source, views, len(encoded_frames))


#: Emit callback: ``(destination, frame, band, slot)`` — either one raw
#: frame (single-frame flush) or one assembled BATCH frame (a
#: :class:`Frame`, or a :class:`WireDatagram` buffer list in zero-copy mode).
EmitFn = Callable[[Destination, Frame, int, object], None]
#: Piggyback hook: returns extra (ACK) frames to ride along. Called at flush
#: time with the slot being flushed.
PiggybackFn = Callable[[object], List[Frame]]

_BatchKey = Tuple[object, int]


class _PendingBatch:
    __slots__ = ("destination", "frames", "encoded", "size")

    def __init__(self, destination: Destination, size: int) -> None:
        self.destination = destination
        self.frames: List[Frame] = []
        self.encoded: List[bytes] = []
        self.size = size  # projected encoded size of the whole batch frame


class FrameBatcher:
    """Per-(slot, band) frame accumulator flushed once per turn.

    Sans-io: frames come in through :meth:`add`, batches (or raw single
    frames) leave through the ``emit`` callback. Frames are encoded at add
    time, so later mutation (e.g. the reliability layer setting the
    RETRANSMIT flag on a retransmission) cannot tear a batch entry.

    Parameters
    ----------
    mtu:
        Byte budget for one batch *datagram* (outer frame included). A
        frame whose own datagram already exceeds the budget bypasses
        batching entirely — it is emitted raw (and fragments downstream
        as before).
    flush_interval:
        The longest a frame may be held for companions
        (``ContainerConfig.batch_flush_interval`` owns the default). One
        timer serves all pending batches: it arms on the first add and
        flushes everything when it fires. At 0 that is the end of the
        current turn — the same virtual instant on the simulator, after
        the next iteration's I/O handlers on an event loop — so frames
        produced together (the responses to one received datagram, the
        sends an ACK releases) still share datagrams.
    piggyback:
        Optional hook returning pending coalesced-ACK frames for a slot;
        whatever fits the remaining budget joins the batch, the rest is
        emitted raw immediately after.
    zero_copy:
        When true, multi-frame flushes emit a :class:`WireDatagram`
        (scatter/gather buffer list, no payload join) instead of a joined
        BATCH :class:`Frame`. Wire bytes are identical either way; only
        set this when the transport underneath advertises scatter support,
        so the deferred join is never actually paid.
    """

    def __init__(
        self,
        clock: Clock,
        timers,
        source: str,
        emit: EmitFn,
        flush_interval: float,
        mtu: int = BATCH_MTU_BYTES,
        piggyback: Optional[PiggybackFn] = None,
        zero_copy: bool = False,
    ):
        if mtu < batch_header_size(source) + ENTRY_OVERHEAD + 1:
            raise EncodingError(f"batch mtu {mtu} cannot fit any frame")
        self._clock = clock
        self._timers = timers
        self._source = source
        self._emit = emit
        self._mtu = mtu
        self._flush_interval = flush_interval
        self._piggyback = piggyback
        self._zero_copy = zero_copy
        self._base = batch_header_size(source)
        self._pending: Dict[_BatchKey, _PendingBatch] = {}
        self._flush_timer = None
        # Telemetry (mirrored into the MetricsRegistry by the egress stage).
        self.batches_sent = 0
        self.batched_frames = 0
        self.single_flushes = 0
        self.oversize_bypasses = 0
        self.piggybacked_acks = 0

    @property
    def pending_frames(self) -> int:
        return sum(len(b.frames) for b in self._pending.values())

    # -- input ---------------------------------------------------------------
    def add(self, destination: Destination, frame: Frame, band: int = 0, slot=None) -> None:
        """Queue ``frame`` for ``destination``: a run of one (:meth:`add_run`)."""
        self.add_run(destination, (frame,), band, slot)

    def add_run(
        self, destination: Destination, frames: Sequence[Frame], band: int = 0, slot=None
    ) -> None:
        """Queue ``frames``, in order, for ``destination`` in the batch of
        (``slot`` — a unicast destination's peer, hashed by identity — else
        the destination, band), looked up once; flushes as needed to keep
        every batch datagram within the MTU budget and to one address."""
        key = (destination if slot is None else slot, band)
        pending = self._pending
        mtu, base = self._mtu, self._base
        batch = pending.get(key)
        if batch is not None and (
            batch.destination is not destination and batch.destination != destination
        ):
            self._flush_key(key)
            batch = None
        for frame in frames:
            raw = frame.encode()
            entry = ENTRY_OVERHEAD + len(raw)
            if base + entry > mtu:
                # Too big to share a datagram with anyone: flush what this
                # key has (order!) and send the frame raw.
                if batch is not None:
                    self._flush_key(key)
                    batch = None
                self.oversize_bypasses += 1
                self._emit(destination, frame, band, key[0])
                continue
            if batch is not None and batch.size + entry > mtu:
                self._flush_key(key)
                batch = None
            if batch is None:
                batch = pending[key] = _PendingBatch(destination, base)
            batch.frames.append(frame)
            batch.encoded.append(raw)
            batch.size += entry
            if self._flush_timer is None:
                self._arm_flush()

    # -- flushing ------------------------------------------------------------
    def flush(self) -> None:
        """Flush every pending batch immediately."""
        while self._pending:
            key = next(iter(self._pending))
            self._flush_key(key)
        if self._flush_timer is not None and hasattr(self._flush_timer, "cancel"):
            self._flush_timer.cancel()
        self._flush_timer = None

    def _arm_flush(self) -> None:
        if self._flush_timer is None:
            self._flush_timer = self._timers.schedule(
                self._flush_interval, self._on_flush_timer
            )

    def _on_flush_timer(self) -> None:
        self._flush_timer = None
        while self._pending:
            self._flush_key(next(iter(self._pending)))

    def _flush_key(self, key: _BatchKey) -> None:
        batch = self._pending.pop(key)
        destination = batch.destination
        slot, band = key
        overflow: List[Frame] = []
        if self._piggyback is not None:
            for extra in self._piggyback(slot):
                raw = extra.encode()
                entry = ENTRY_OVERHEAD + len(raw)
                if batch.size + entry <= self._mtu:
                    batch.frames.append(extra)
                    batch.encoded.append(raw)
                    batch.size += entry
                    self.piggybacked_acks += 1
                else:
                    overflow.append(extra)
        if len(batch.frames) == 1:
            # Single-frame parity: no wrapper, byte-identical to the
            # unbatched wire format.
            self.single_flushes += 1
            self._emit(destination, batch.frames[0], band, slot)
        else:
            self.batches_sent += 1
            self.batched_frames += len(batch.frames)
            assembled = (
                make_wire_datagram(self._source, batch.encoded)
                if self._zero_copy
                else make_batch_frame(self._source, batch.encoded)
            )
            self._emit(destination, assembled, band, slot)
        for extra in overflow:
            self._emit(destination, extra, band, slot)


__all__ = [
    "FrameBatcher",
    "SampleRun",
    "WireDatagram",
    "encode_batch_payload",
    "encode_batch_views",
    "decode_batch",
    "decode_batch_payload",
    "make_batch_frame",
    "make_wire_datagram",
    "batch_header_size",
    "ENTRY_OVERHEAD",
    "BATCH_MTU_BYTES",
]
