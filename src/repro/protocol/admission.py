"""Ingress admission control — the container's defense-in-depth front door.

The container is the single network choke point for all four primitives
(§3), which makes it the right — and only — place to decide whether a
frame deserves any further work. This module is that decision, three
mechanisms deep and sans-io. It is **off by default**: the wire and the
dispatch path stay byte/behavior-identical to the seed until a container
is armed, and then all three apply at the fixed budgets below:

1. **Token-bucket rate limiting**, per remote source and per (source,
   priority band). A flooding peer exhausts its own buckets and its frames
   are dropped before links, primitives or the scheduler ever see them;
   every other source keeps its independent budget, so a Variables-band
   firehose cannot consume the Events/RPC admission capacity of anyone.
2. **Per-source quarantine with decay.** Sources that repeatedly send
   malformed or unparseable traffic (the fuzz-decoder rejection paths:
   ``Frame.decode``, BATCH unbatching, wire-schema payload decodes) accrue
   a misbehavior score. Past the threshold the source is quarantined —
   every frame dropped unexamined — for a window that grows exponentially
   on repeat offenses; the score decays with time so an isolated glitch is
   forgiven. Unparseable datagrams carry no trustworthy source id, so
   quarantine also keys on the network address.
3. **Band-weighted ingress scheduling** (:class:`IngressScheduler`): the
   ingress twin of the egress shaper's per-band queues. Admitted data
   frames are queued per priority band and drained in weighted rounds, so
   even admitted low-priority floods cannot starve Events/RPC dispatch,
   and each bounded band queue sheds (oldest-first) under sustained
   pressure instead of growing without bound.

Every drop is *counted* — ``admission_drops{source,band,reason}``,
``quarantines{source}``, ``malformed_frames{source}``,
``ingress_overflow{band}`` in the container's MetricsRegistry, with
state-transition events in the FlightRecorder — never silent (rule REP005
exists to keep it that way).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.protocol.bands import NUM_BANDS
from repro.protocol.frames import Frame, MessageKind
from repro.protocol.peers import Peer, Peers

# The budgets of an armed controller. Fixed: no deployment tunes them, and
# a test that needs a small budget patches the constant.

#: Aggregate frames/second admitted per remote source (all bands), and the
#: burst of that bucket.
SOURCE_RATE = 2000.0
SOURCE_BURST = 256.0
#: Per-(source, band) frames/second. Band 0 (control plane:
#: ANNOUNCE/HEARTBEAT/BYE/ACK) deliberately has no per-band bucket —
#: failure detection must never be starved by its own defenses — but
#: control frames still debit the per-source aggregate, so a heartbeat
#: flood is caught there.
BAND_RATES = {
    1: 500.0,  # events
    2: 1000.0,  # variables
    3: 500.0,  # invocations / streams
    4: 2000.0,  # bulk transfer (chunk trains are legitimately dense)
}
BAND_BURST = 64.0
#: Misbehavior score that triggers quarantine, and its decay per second.
QUARANTINE_THRESHOLD = 5.0
QUARANTINE_DECAY = 1.0
#: First quarantine window; each repeat offense multiplies it by the
#: backoff, up to the cap.
QUARANTINE_DURATION = 2.0
QUARANTINE_BACKOFF = 2.0
QUARANTINE_MAX_DURATION = 30.0
#: Frames delivered per band per drain round of the ingress scheduler.
#: Events and invocations outweigh variables; bulk gets the leftovers.
INGRESS_WEIGHTS = (16, 8, 2, 6, 1)
#: Bound on each band queue of the ingress scheduler.
INGRESS_QUEUE_LIMIT = 512

#: Armed: what ``SimRuntime.enable_admission()`` (and so ``repro.cli
#: attack``) configures every :class:`AdmissionController` with. There is
#: one armed configuration: every defense above, ingress scheduling
#: included.
HARDENED_ADMISSION = True


class TokenBucket:
    """A minimal token bucket: ``rate`` tokens/second up to ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = now

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        """Debit ``amount`` tokens if available; refills lazily."""
        elapsed = now - self.stamp
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.stamp = now
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


class _SourceState:
    __slots__ = (
        "bucket",
        "band_buckets",
        "score",
        "score_stamp",
        "quarantined_until",
        "quarantine_count",
        "last_drop_logged",
    )

    def __init__(self) -> None:
        self.bucket: Optional[TokenBucket] = None
        self.band_buckets: Dict[int, TokenBucket] = {}
        self.score = 0.0
        self.score_stamp = 0.0
        self.quarantined_until = 0.0
        self.quarantine_count = 0
        self.last_drop_logged = -1.0


ClassifyFn = Callable[[MessageKind], int]


class AdmissionController:
    """The admission decision at frame ingress: inert until armed, then
    every defense at the budgets above.

    Owned by the container; consulted in ``_on_frames`` before any control
    handling, reliability processing or primitive dispatch. ``admit``
    answers "does this frame deserve further work?"; ``note_malformed`` is
    the quarantine trigger fed by every decode-rejection path.

    Parameters
    ----------
    clock:
        Time source (virtual or wall).
    classify:
        ``MessageKind -> priority band``; the container passes
        :func:`~repro.protocol.bands.band_of`, the table egress shapes by.
    policy:
        True (:data:`HARDENED_ADMISSION`) arms the controller at
        construction; the default leaves it inert until :meth:`configure`.
    metrics / recorder:
        Where drops, quarantines and malformed counts are surfaced.

    Per-source state lives on each source's :class:`Peer`
    (``peer.admission``), an ``@host:port`` key being a stranger like any
    unannounced id, in :attr:`peers`: a table of its own, which a container
    replaces with its directory.
    """

    def __init__(
        self,
        clock,
        classify: ClassifyFn,
        policy: bool = False,
        metrics=None,
        recorder=None,
    ):
        self._clock = clock
        self._classify = classify
        self._metrics = metrics
        self._recorder = recorder
        self.peers = Peers()
        self.admitted = 0
        self.dropped = 0
        self.configure(policy)

    # -- configuration ---------------------------------------------------------
    def configure(self, armed: bool) -> None:
        """Arm or disarm at runtime (``SimRuntime.enable_admission``).

        Source state is kept: an already-quarantined offender does not get
        a clean slate by a disarm and re-arm."""
        #: Read by the container once per run of received frames: it calls
        #: :meth:`admit` per frame only while armed, and queues admitted
        #: data frames on its :class:`IngressScheduler`.
        self.enabled = bool(armed)

    # -- the admission decision ------------------------------------------------
    def admit(self, frame: Frame, address=None) -> bool:
        """True when ``frame`` may proceed to dispatch.

        Drops are counted under ``admission_drops{source,band,reason}``;
        the caller simply discards the frame on False.
        """
        if not self.enabled:
            return True
        now = self._clock.now()
        band = self._classify(frame.kind)
        peers = self.peers
        peer = peers.known.get(frame.source) or peers.peer(frame.source)
        state = peer.admission
        via = peers.find(f"@{address}") if address is not None else None
        for offender in (state, via and via.admission):
            if offender is not None and offender.quarantined_until > now:
                self.dropped += 1
                self._note_drop(peer, band, "quarantine", now)
                return False
        if state is None:
            state = peer.admission = _SourceState()
        if state.bucket is None:
            state.bucket = TokenBucket(SOURCE_RATE, SOURCE_BURST, now)
        if not state.bucket.try_take(now):
            self.dropped += 1
            self._note_drop(peer, band, "source-rate", now)
            return False
        rate = BAND_RATES.get(band)
        if rate is not None:
            bucket = state.band_buckets.get(band)
            if bucket is None:
                bucket = state.band_buckets[band] = TokenBucket(rate, BAND_BURST, now)
            if not bucket.try_take(now):
                self.dropped += 1
                self._note_drop(peer, band, "band-rate", now)
                return False
        self.admitted += 1
        return True

    # -- quarantine ------------------------------------------------------------
    def note_malformed(self, source_key: str) -> None:
        """One malformed/unparseable frame attributed to ``source_key``
        (a container id, or an address key for undecodable datagrams).

        Always counted; scores and quarantines only while enabled.
        """
        if self._metrics is not None:
            self._metrics.counter("malformed_frames", source=source_key).inc()
        if not self.enabled:
            return
        now = self._clock.now()
        peer = self.peers.peer(source_key)
        state = peer.admission
        if state is None:
            state = peer.admission = _SourceState()
        if state.quarantined_until > now:
            # Already serving a quarantine; don't stack new windows for
            # traffic the quarantine is there to absorb.
            return
        elapsed = now - state.score_stamp
        if elapsed > 0:
            state.score = max(0.0, state.score - elapsed * QUARANTINE_DECAY)
        state.score_stamp = now
        state.score += 1.0
        if state.score < QUARANTINE_THRESHOLD:
            return
        state.score = 0.0
        state.quarantine_count += 1
        duration = min(
            QUARANTINE_DURATION * QUARANTINE_BACKOFF ** (state.quarantine_count - 1),
            QUARANTINE_MAX_DURATION,
        )
        state.quarantined_until = now + duration
        if self._metrics is not None:
            self._metrics.counter("quarantines", source=source_key).inc()
        if self._recorder is not None:
            self._recorder.record(
                "admission",
                action="quarantine",
                source=source_key,
                until=round(state.quarantined_until, 6),
                offense=state.quarantine_count,
            )

    def note_malformed_address(self, address) -> None:
        """Quarantine trigger for datagrams whose source id is unreadable —
        the only identity we have is the network address."""
        self.note_malformed(f"@{address}")

    def quarantined_sources(self) -> List[str]:
        """Source keys currently serving a quarantine window."""
        return sorted(peer.id for peer in self.peers.peers() if self._serving(peer))

    def is_quarantined(self, source_key: str) -> bool:
        return self._serving(self.peers.find(source_key))

    # -- internals -------------------------------------------------------------
    def _serving(self, peer: Optional[Peer]) -> bool:
        state = peer.admission if peer is not None else None
        return state is not None and state.quarantined_until > self._clock.now()

    def _note_drop(self, peer: Peer, band: int, reason: str, now: float) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "admission_drops", source=peer.id, band=str(band), reason=reason
            ).inc()
        if self._recorder is None:
            return
        # The counters carry the volume; the flight recorder gets at most
        # one entry per source per second so a flood cannot churn the ring.
        state = peer.admission
        if state is None:
            state = peer.admission = _SourceState()
        if now - state.last_drop_logged < 1.0:
            return
        state.last_drop_logged = now
        self._recorder.record(
            "admission", action="drop", source=peer.id, band=band, reason=reason
        )


DeliverFn = Callable[[Frame], None]


class IngressScheduler:
    """Band-weighted dispatch of admitted data frames.

    The ingress twin of the egress shaper's per-band queues: frames are
    queued per priority band and drained in rounds of at most
    ``INGRESS_WEIGHTS[band]`` frames per band, highest-priority band first, one
    round per zero-delay timer event. Within a band order is FIFO; across
    bands a backlog of low-priority frames can no longer dispatch ahead of
    a fresh event or invocation. Each band queue holds at most
    :data:`INGRESS_QUEUE_LIMIT` frames; overflow
    sheds the band's *oldest* frame (the flood is stale-first) and counts
    it under ``ingress_overflow{band}``.

    Control frames (band 0 kinds handled inline by the container) never
    enter this stage.
    """

    def __init__(self, timers, deliver: DeliverFn, metrics=None):
        self._timers = timers
        self._deliver = deliver
        self._metrics = metrics
        self._queues: List[Deque[Frame]] = [deque() for _ in range(NUM_BANDS)]
        self._drain_timer = None
        self.delivered = 0
        self.shed = 0

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._queues)

    def offer(self, frame: Frame, band: int) -> None:
        queue = self._queues[band]
        if len(queue) >= INGRESS_QUEUE_LIMIT:
            queue.popleft()
            self.shed += 1
            if self._metrics is not None:
                self._metrics.counter("ingress_overflow", band=str(band)).inc()
        queue.append(frame)
        self._arm()

    def _arm(self) -> None:
        if self._drain_timer is None:
            self._drain_timer = self._timers.schedule(0.0, self._drain_round)

    def _drain_round(self) -> None:
        self._drain_timer = None
        for queue, budget in zip(self._queues, INGRESS_WEIGHTS):
            while queue and budget > 0:
                frame = queue.popleft()
                budget -= 1
                self.delivered += 1
                self._deliver(frame)
        if self.pending:
            self._arm()


__all__ = [
    "TokenBucket",
    "AdmissionController",
    "IngressScheduler",
    "HARDENED_ADMISSION",
    "SOURCE_RATE",
    "SOURCE_BURST",
    "BAND_RATES",
    "BAND_BURST",
    "QUARANTINE_THRESHOLD",
    "QUARANTINE_DECAY",
    "QUARANTINE_DURATION",
    "QUARANTINE_BACKOFF",
    "QUARANTINE_MAX_DURATION",
    "INGRESS_WEIGHTS",
    "INGRESS_QUEUE_LIMIT",
]
