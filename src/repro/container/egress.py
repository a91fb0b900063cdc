"""Priority egress shaping and data-plane scaling — the §4.2/§7 extension.

The paper notes that for events "reservation of time slots in both the
processor and the network will ensure this critical constraint" and defers
real-time support to future work. The processor half is the scheduler's
fixed priorities; this module is the network half, a three-stage outbound
pipeline:

1. **Batching** (optional): small frames to the same destination are packed
   into one ``BATCH`` datagram per priority band, amortizing the fixed
   per-packet wire overhead (see :mod:`repro.protocol.batching`). Frames
   leave at the end of the turn that produced them unless a hold is
   configured; a batch never spans bands.
2. **Bounded queues** (optional): when shaping backs traffic up, each
   (slot, band) queue (``_SlotKey``) is capped at ``queue_limit`` frames. A
   full queue sheds its oldest frame to admit the new one (drop-oldest, the
   right policy for fresh-or-worthless variables), so a slow subscriber can
   no longer grow queues without bound.
3. **Token bucket + strict priority** (optional): classifies outbound
   frames into priority bands and drains them through a token bucket, so a
   saturating file transfer cannot queue hundreds of chunks ahead of an
   event on the node's uplink.

Everything is disabled by default (``ContainerConfig.egress_rate_bps =
None``, ``batching_enabled = False``, ``egress_queue_limit = None``):
frames pass straight through and the wire stays byte-for-byte the paper's
baseline format. All shedding and batching activity is surfaced as labeled
counters in the container's :class:`~repro.observability.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.observability.metrics import Gauge
from repro.protocol.batching import BATCH_MTU_BYTES, FrameBatcher, PiggybackFn
from repro.protocol.bands import BANDS, FALLBACK_BAND, NUM_BANDS
from repro.protocol.frames import Frame
from repro.transport.addressing import WIRE_OVERHEAD_BYTES, Destination
from repro.util.clock import Clock
from repro.util.errors import ConfigurationError

SendFn = Callable[[Destination, Frame], None]
#: Overflow callback: (destination, band, shed frame).
OverflowFn = Callable[[Destination, int, Frame], None]
#: (slot, band): a unicast frame's peer, hashed by identity, else its destination.
_SlotKey = Tuple[object, int]


class EgressShaper:
    """Batching + bounded-queue + token-bucket egress stage.

    Parameters
    ----------
    rate_bps:
        Token refill rate in bits/second — set this slightly *below* the
        physical uplink rate so the queue forms here (where priorities
        apply) instead of in the NIC (where they don't). ``None`` disables
        shaping entirely.
    burst_bytes:
        Bucket depth; one MTU by default so a single frame never stalls.
    batching / batch_mtu / batch_flush_interval / source / piggyback:
        Datagram batching stage (see :class:`FrameBatcher`). ``source`` is
        the container id stamped on assembled BATCH frames; it and the
        hold (``ContainerConfig`` owns the default) are required when
        batching is on.
    zero_copy:
        Assemble multi-frame batches as scatter/gather
        :class:`~repro.protocol.batching.WireDatagram` buffer lists instead
        of joined BATCH frames — set when the transport underneath supports
        ``send_buffers`` (byte-identical on the wire either way).
    queue_limit:
        Per-(slot, band) cap on queued frames while shaping; a full queue
        drops its oldest frame. ``None`` keeps the seed's unbounded queues.
    on_overflow:
        Called once per shed frame — the container's backpressure signal.
    metrics:
        A :class:`MetricsRegistry`; batching and shedding counters land
        here labeled by band/kind.
    """

    def __init__(
        self,
        clock: Clock,
        timers,
        send: SendFn,
        rate_bps: Optional[float] = None,
        burst_bytes: int = 1600,
        batching: bool = False,
        batch_mtu: int = BATCH_MTU_BYTES,
        batch_flush_interval: Optional[float] = None,
        source: str = "",
        piggyback: Optional[PiggybackFn] = None,
        queue_limit: Optional[int] = None,
        on_overflow: Optional[OverflowFn] = None,
        metrics=None,
        zero_copy: bool = False,
    ):
        self._clock = clock
        self._timers = timers
        self._send = send
        self._rate_bps = rate_bps
        self._burst = float(burst_bytes)
        #: Per band: (destination, frame, size, slot key), oldest first.
        self._queues: List[Deque[Tuple[Destination, Frame, int, _SlotKey]]] = [
            deque() for _ in range(NUM_BANDS)
        ]
        self._tokens = self._burst
        self._last_refill = clock.now()
        self._drain_timer = None
        self._metrics = metrics
        # Bounded queues.
        self._queue_limit = queue_limit
        self._on_overflow = on_overflow
        self._depth: Dict[_SlotKey, int] = {}
        # Batching stage.
        self._batcher: Optional[FrameBatcher] = None
        if batching:
            if batch_flush_interval is None:
                raise ConfigurationError("batching needs a batch_flush_interval")
            self._batcher = FrameBatcher(
                clock=clock,
                timers=timers,
                source=source,
                emit=self._submit,
                mtu=batch_mtu,
                flush_interval=batch_flush_interval,
                piggyback=piggyback,
                zero_copy=zero_copy,
            )
        # Telemetry.
        self.shaped_frames = 0
        self.passthrough_frames = 0
        self.max_queue_depth = 0
        self.dropped_frames = 0

    @property
    def enabled(self) -> bool:
        return self._rate_bps is not None

    @property
    def batching_enabled(self) -> bool:
        return self._batcher is not None

    @property
    def batcher(self) -> Optional[FrameBatcher]:
        return self._batcher

    #: Tolerance for float rounding in token arithmetic (bytes).
    _EPSILON = 1e-9

    def send(self, destination: Destination, frame: Frame, slot=None) -> None:
        """Entry point: classify into a band, batch if enabled, then shape.
        ``slot`` is the peer a unicast ``destination`` belongs to."""
        band = BANDS.get(frame.kind, FALLBACK_BAND)
        if self._batcher is not None:
            self._batcher.add(destination, frame, band, slot)
            return
        self._submit(destination, frame, band, slot)

    def flush(self) -> None:
        """Flush any pending batches (e.g. just before container stop)."""
        if self._batcher is not None:
            self._batcher.flush()

    def _submit(self, destination: Destination, frame: Frame, band: int, slot=None) -> None:
        """Send now if tokens allow, else queue by priority band.

        Frames larger than the burst use deficit accounting: they send once
        the bucket is full and drive it negative, so the long-run rate
        stays exact and oversized frames still make progress.
        """
        if self._batcher is not None and self._metrics is not None:
            self._note_batch_stats()
        if not self.enabled:
            self.passthrough_frames += 1
            self._send(destination, frame)
            return
        size = self._frame_size(frame)
        self._refill()
        if self._tokens + self._EPSILON >= min(size, self._burst) and not self._pending():
            self._tokens -= size
            self._send(destination, frame)
            return
        self._enqueue(destination, frame, band, size, slot)

    def _enqueue(self, destination: Destination, frame: Frame, band: int, size: int, slot) -> None:
        key = (destination if slot is None else slot, band)
        if (
            self._queue_limit is not None
            and self._depth.get(key, 0) >= self._queue_limit
        ):
            evicted = self._pop_oldest(key)
            if evicted is not None:
                # The fresh frame takes the freed slot.
                self.dropped_frames += 1
                self._note_overflow(destination, band, evicted)
        self._queues[band].append((destination, frame, size, key))
        self._depth[key] = self._depth.get(key, 0) + 1
        self.shaped_frames += 1
        self.max_queue_depth = max(self.max_queue_depth, self._pending())
        self._arm_drain()

    @property
    def queued(self) -> int:
        return self._pending()

    def queued_to(self, slot, band: int) -> int:
        """Current queue depth for one (slot, band) — the bounded
        quantity."""
        return self._depth.get((slot, band), 0)

    # -- internals -----------------------------------------------------------
    def _pending(self) -> int:
        return sum(len(q) for q in self._queues)

    def _pop_oldest(self, key: _SlotKey) -> Optional[Frame]:
        queue = self._queues[key[1]]
        for i, (_destination, frame, _size, queued) in enumerate(queue):
            if queued == key:
                del queue[i]
                self._dec_depth(key)
                return frame
        return None

    def _dec_depth(self, key: _SlotKey) -> None:
        depth = self._depth.get(key, 0) - 1
        if depth <= 0:
            self._depth.pop(key, None)
        else:
            self._depth[key] = depth

    def _note_overflow(self, destination: Destination, band: int, frame: Frame) -> None:
        if self._metrics is not None:
            # ``policy`` keeps the series' labels stable for its readers.
            self._metrics.counter(
                "egress_overflow",
                band=str(band),
                policy="drop-oldest",
                kind=frame.kind.name,
            ).inc()
        if self._on_overflow is not None:
            self._on_overflow(destination, band, frame)

    @cached_property
    def _batch_gauges(self) -> Tuple[Gauge, Gauge, Gauge, Gauge]:
        """Where the batcher's tallies are mirrored; resolved at the first
        emit, like every per-frame instrument, not per datagram."""
        gauge = self._metrics.gauge
        return (
            gauge("egress_batches"),
            gauge("egress_batched_frames"),
            gauge("egress_single_flushes"),
            gauge("egress_piggybacked_acks"),
        )

    def _note_batch_stats(self) -> None:
        """Mirror the batcher's tallies into the metrics registry (cheap:
        counters are set-on-read gauges of monotonic ints)."""
        b = self._batcher
        batches, batched_frames, single_flushes, piggybacked = self._batch_gauges
        batches.set(b.batches_sent)
        batched_frames.set(b.batched_frames)
        single_flushes.set(b.single_flushes)
        piggybacked.set(b.piggybacked_acks)

    def _frame_size(self, frame: Frame) -> int:
        # A zero-copy WireDatagram knows its wire size without joining its
        # buffers; a plain Frame is sized from header + payload as before.
        wire = getattr(frame, "wire_size", None)
        if wire is not None:
            return wire + WIRE_OVERHEAD_BYTES
        return frame.header_size + len(frame.payload) + WIRE_OVERHEAD_BYTES

    def _refill(self) -> None:
        now = self._clock.now()
        elapsed = now - self._last_refill
        self._last_refill = now
        if elapsed > 0:
            self._tokens = min(
                self._burst, self._tokens + elapsed * self._rate_bps / 8.0
            )

    def _arm_drain(self) -> None:
        if self._drain_timer is not None:
            return
        # Time until enough tokens exist for the most urgent queued frame.
        head = next(
            (q[0] for q in self._queues if q), None
        )
        if head is None:
            return
        required = min(head[2], self._burst)
        needed = max(0.0, required - self._tokens)
        if needed <= self._EPSILON:
            delay = 0.0
        else:
            # Floor the delay so float rounding can never produce a timer
            # that fires without advancing tokens (a zero-progress spin).
            delay = max(needed * 8.0 / self._rate_bps, 1e-6)
        self._drain_timer = self._timers.schedule(delay, self._drain)

    def _drain(self) -> None:
        self._drain_timer = None
        self._refill()
        while True:
            queue = next((q for q in self._queues if q), None)
            if queue is None:
                return
            destination, frame, size, key = queue[0]
            if self._tokens + self._EPSILON < min(size, self._burst):
                self._arm_drain()
                return
            queue.popleft()
            self._dec_depth(key)
            self._tokens -= size
            self._send(destination, frame)


__all__ = ["EgressShaper"]
