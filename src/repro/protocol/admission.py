"""Ingress admission control — the container's defense-in-depth front door.

The container is the single network choke point for all four primitives
(§3), which makes it the right — and only — place to decide whether a
frame deserves any further work. This module is that decision, three
mechanisms deep, all sans-io and all **off by default** (the wire and the
dispatch path stay byte/behavior-identical to the seed until a policy is
armed, the same bar batching and the sanitizers meet):

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

from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from collections import deque

from repro.protocol.frames import Frame, MessageKind
from repro.protocol.peers import Peer, Peers

#: Default per-(source, band) admission rates in frames/second. Band 0
#: (control plane: ANNOUNCE/HEARTBEAT/BYE/ACK) deliberately has no
#: per-band bucket — failure detection must never be starved by its own
#: defenses — but control frames still debit the per-source aggregate, so
#: a heartbeat flood is caught there.
DEFAULT_BAND_RATES: Dict[int, float] = {
    1: 500.0,  # events
    2: 1000.0,  # variables
    3: 500.0,  # invocations / streams
    4: 2000.0,  # bulk transfer (chunk trains are legitimately dense)
}

#: Frames delivered per band per drain round of the ingress scheduler.
#: Events and invocations outweigh variables; bulk gets the leftovers.
DEFAULT_INGRESS_WEIGHTS: Dict[int, int] = {0: 16, 1: 8, 2: 2, 3: 6, 4: 1}

_NUM_BANDS = 5


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


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs of the ingress admission layer.

    ``enabled=False`` (the default) keeps the whole layer inert: ``admit``
    returns True without touching any state and the wire/dispatch behavior
    is identical to the seed.
    """

    enabled: bool = False
    #: Aggregate frames/second admitted per remote source (all bands);
    #: ``None`` disables the aggregate bucket.
    source_rate: Optional[float] = 2000.0
    source_burst: float = 256.0
    #: Per-(source, band) frames/second; ``None`` uses
    #: :data:`DEFAULT_BAND_RATES`. A band absent from the mapping has no
    #: band bucket. ``{}`` disables per-band limiting entirely.
    band_rates: Optional[Mapping[int, float]] = None
    band_burst: float = 64.0
    #: Misbehavior score that triggers quarantine, and its decay/second.
    quarantine_threshold: float = 5.0
    quarantine_decay: float = 1.0
    #: First quarantine window; repeat offenses multiply by ``backoff`` up
    #: to ``max_duration``.
    quarantine_duration: float = 2.0
    quarantine_backoff: float = 2.0
    quarantine_max_duration: float = 30.0
    #: Band-weighted ingress dispatch (see :class:`IngressScheduler`).
    ingress_scheduling: bool = False
    ingress_weights: Optional[Mapping[int, int]] = None
    ingress_queue_limit: int = 512

    def __post_init__(self) -> None:
        if self.source_rate is not None and self.source_rate <= 0:
            raise ValueError("source_rate must be positive (or None)")
        if self.source_burst < 1 or self.band_burst < 1:
            raise ValueError("admission bursts must be >= 1")
        for band, rate in (self.band_rates or {}).items():
            if not (0 <= band < _NUM_BANDS) or rate <= 0:
                raise ValueError(f"invalid band rate {band}={rate}")
        if self.quarantine_threshold <= 0 or self.quarantine_decay < 0:
            raise ValueError("invalid quarantine threshold/decay")
        if (
            self.quarantine_duration <= 0
            or self.quarantine_backoff < 1.0
            or self.quarantine_max_duration < self.quarantine_duration
        ):
            raise ValueError("invalid quarantine durations")
        for band, weight in (self.ingress_weights or {}).items():
            if not (0 <= band < _NUM_BANDS) or weight < 1:
                raise ValueError(f"invalid ingress weight {band}={weight}")
        if self.ingress_queue_limit < 1:
            raise ValueError("ingress_queue_limit must be >= 1")


#: A policy with every defense armed at its defaults — what
#: ``SimRuntime.enable_admission()`` and ``repro.cli attack`` use.
HARDENED_ADMISSION = AdmissionPolicy(enabled=True, ingress_scheduling=True)


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
    """Evaluates the :class:`AdmissionPolicy` at frame ingress.

    Owned by the container; consulted in ``_on_frame`` before any control
    handling, reliability processing or primitive dispatch. ``admit``
    answers "does this frame deserve further work?"; ``note_malformed`` is
    the quarantine trigger fed by every decode-rejection path.

    Parameters
    ----------
    clock:
        Time source (virtual or wall).
    classify:
        ``MessageKind -> priority band``; the container passes the egress
        shaper's band map so ingress and egress agree on what a band is.
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
        policy: Optional[AdmissionPolicy] = None,
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
        self.configure(policy or AdmissionPolicy())

    # -- configuration ---------------------------------------------------------
    def configure(self, policy: AdmissionPolicy) -> None:
        """Swap the policy at runtime (``SimRuntime.enable_admission``).

        Source state is kept: an already-quarantined offender does not get
        a clean slate just because the knobs moved."""
        #: The live policy, and its ``enabled`` bit as a plain attribute: the
        #: container reads it once per received frame and calls
        #: :meth:`admit` only while a policy is armed.
        self.policy = policy
        self.enabled = policy.enabled

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
        policy = self.policy
        if policy.source_rate is not None:
            if state.bucket is None:
                state.bucket = TokenBucket(policy.source_rate, policy.source_burst, now)
            if not state.bucket.try_take(now):
                self.dropped += 1
                self._note_drop(peer, band, "source-rate", now)
                return False
        rates = DEFAULT_BAND_RATES if policy.band_rates is None else policy.band_rates
        rate = rates.get(band)
        if rate is not None:
            bucket = state.band_buckets.get(band)
            if bucket is None:
                bucket = state.band_buckets[band] = TokenBucket(
                    rate, policy.band_burst, now
                )
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
        policy = self.policy
        elapsed = now - state.score_stamp
        if elapsed > 0:
            state.score = max(0.0, state.score - elapsed * policy.quarantine_decay)
        state.score_stamp = now
        state.score += 1.0
        if state.score < policy.quarantine_threshold:
            return
        state.score = 0.0
        state.quarantine_count += 1
        duration = min(
            policy.quarantine_duration
            * policy.quarantine_backoff ** (state.quarantine_count - 1),
            policy.quarantine_max_duration,
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
    ``weights[band]`` frames per band, highest-priority band first, one
    round per zero-delay timer event. Within a band order is FIFO; across
    bands a backlog of low-priority frames can no longer dispatch ahead of
    a fresh event or invocation. Each band queue is bounded; overflow
    sheds the band's *oldest* frame (the flood is stale-first) and counts
    it under ``ingress_overflow{band}``.

    Control frames (band 0 kinds handled inline by the container) never
    enter this stage.
    """

    def __init__(
        self,
        timers,
        deliver: DeliverFn,
        weights: Optional[Mapping[int, int]] = None,
        queue_limit: int = 512,
        metrics=None,
    ):
        self._timers = timers
        self._deliver = deliver
        merged = dict(DEFAULT_INGRESS_WEIGHTS)
        merged.update(weights or {})
        self._weights = [merged.get(band, 1) for band in range(_NUM_BANDS)]
        self._queue_limit = queue_limit
        self._metrics = metrics
        self._queues: List[Deque[Frame]] = [deque() for _ in range(_NUM_BANDS)]
        self._drain_timer = None
        self.delivered = 0
        self.shed = 0

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._queues)

    def offer(self, frame: Frame, band: int) -> None:
        queue = self._queues[band]
        if len(queue) >= self._queue_limit:
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
        for band, queue in enumerate(self._queues):
            budget = self._weights[band]
            while queue and budget > 0:
                frame = queue.popleft()
                budget -= 1
                self.delivered += 1
                self._deliver(frame)
        if self.pending:
            self._arm()


__all__ = [
    "TokenBucket",
    "AdmissionPolicy",
    "AdmissionController",
    "IngressScheduler",
    "HARDENED_ADMISSION",
    "DEFAULT_BAND_RATES",
    "DEFAULT_INGRESS_WEIGHTS",
]
