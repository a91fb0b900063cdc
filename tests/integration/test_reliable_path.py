"""The acknowledged plane, counted.

Reliable streams and remote calls resolve once — when a stream opens, when a
function is provided, at a call's first use of a provider — everything the
per-frame path used to re-derive: the stream's emit callables and wake-up,
the receiver's hardening test and ACK path, the args names and the result
decoder. Python-level calls per delivered reliable event and per completed
RPC are the counts that regress when a lookup, a wrapper or a throw-away
object creeps back in; exact and repeatable on ``SimRuntime``, unlike a
wall-clock rate.

Same file: the one-call ACK codec against the per-seq form it replaced, the
bound receiver against the per-frame one (transcribed below as the
reference), and the bound on streams opened by sources nobody announced.
"""

import struct
import sys
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Service, SimRuntime
from repro.container.links import RELIABLE_CHANNEL
from repro.encoding.types import FLOAT64, INT64
from repro.primitives import wire
from repro.protocol.frames import Frame, FrameFlags, MessageKind
from repro.protocol import reliability
from repro.protocol.peers import MAX_STRANGERS
from repro.protocol.reliability import ReliableReceiver, _Bucket, decode_ack, encode_ack
from repro.sim import Simulator
from repro.transport.addressing import Address
from repro.util.errors import ProtocolError
from repro.util.wakeup import Wakeup
from tests.helpers import ProbeService

#: The suite's one configuration (benchmarks/suite/conditions.py FAST_PLANE).
FAST_PLANE = dict(
    codec="compiled", batching_enabled=True,
    ack_coalesce_delay=0.002,
)
SUBSCRIBERS = 4
BURST = 1000
RPC_WIDTH = 16
RPCS = 2000

#: Python-level calls per delivered reliable event and per completed RPC,
#: measured by the two tests below on the parent of the change that made
#: each peer one object (the parent resolved every unicast frame's address
#: through ``Directory.address_of`` and hashed the address per batch slot;
#: the change reads 48.1 and 121.2). Earlier: 63.4 and 172.6 before the
#: acknowledged plane was bound when a stream opens. Per event 35.51 once a
#: datagram's reliable frames crossed the receiver as one run, 27.20 once a
#: reliable stream sent by the run; ``MAX_CALLS_PER_EVENT`` sits midway
#: between those two.
PARENT_CALLS_PER_EVENT = 50.71
PARENT_CALLS_PER_RPC = 126.08
MAX_CALLS_PER_EVENT = 31.4
MAX_CALLS_PER_RPC = 122.0


def _no_address_lookups(calls):
    """A send reads its peer's resolved address; nothing maps a container
    id to an address, or an address back to an id, per frame."""
    assert _called(calls, "container/directory.py", "address_of") == 0
    assert _called(calls, "container/directory.py", "container_at") == 0
    assert _called(calls, "<string>", "__hash__") == 0  # Address's, generated


def _counted(run):
    """Run ``run()`` under a profile hook; -> (Counter of (file, function)
    -> calls, what ``run`` returned)."""
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename, code.co_name)] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


def _called(calls, suffix, name):
    return sum(
        n for (filename, fn), n in calls.items() if filename.endswith(suffix) and fn == name
    )


def _busiest(calls, ops):
    return "\n".join(
        f"  {n / ops:6.2f}  {name}  ({filename})"
        for (filename, name), n in calls.most_common(12)
    )


def _event_fanout(datatype=FLOAT64, value=float):
    """1 publisher -> 4 subscriber containers on the fast plane, subscribed
    to one event of ``datatype`` whose ``i``-th value is ``value(i)``, the
    path warm. -> (runtime, publication, the values delivered since)."""
    runtime = SimRuntime(seed=1)
    services = {}
    for name in ["pub"] + [f"sub{i}" for i in range(SUBSCRIBERS)]:
        container = runtime.add_container(name, **FAST_PLANE)
        services[name] = Service(name)
        container.install_service(services[name])
    runtime.start()
    runtime.settle()
    publication = services["pub"].ctx.provide_event("bench.event", datatype)
    delivered = []
    for i in range(SUBSCRIBERS):
        services[f"sub{i}"].ctx.subscribe_event(
            "bench.event", lambda value, _t: delivered.append(value)
        )
    assert runtime.run_until(lambda: len(publication.subscribers) == SUBSCRIBERS, timeout=5.0)
    for i in range(10):
        publication.raise_event(value(i))
    runtime.run_for(0.5)
    assert len(delivered) == 10 * SUBSCRIBERS
    del delivered[:]
    return runtime, publication, delivered


class _RpcLoop:
    """``bench.increment`` on ``server``, called from ``client`` ``width``
    calls wide, each result issuing the next call, as a service would."""

    FUNCTION = "bench.increment"

    def __init__(self):
        self.runtime = SimRuntime(seed=1)
        client = self.runtime.add_container("client", **FAST_PLANE)
        server = self.runtime.add_container("server", **FAST_PLANE)
        self.client, provider = Service("client"), Service("server")
        client.install_service(self.client)
        server.install_service(provider)
        self.runtime.start()
        self.runtime.settle()
        provider.ctx.provide_function(
            self.FUNCTION, lambda x: x + 1, params=[INT64], result=INT64
        )
        assert self.runtime.run_until(
            lambda: not self.client.ctx.check_required_functions([self.FUNCTION]),
            timeout=5.0,
        )
        self.issued = self.completed = self.wrong = 0
        self.limit = 0

    def _issue(self):
        arg = self.issued
        self.issued += 1
        self.client.ctx.call(self.FUNCTION, (arg,), on_result=lambda r: self._done(r, arg))

    def _done(self, result, arg):
        self.completed += 1
        self.wrong += result != arg + 1
        if self.issued < self.limit:
            self._issue()

    def run(self, calls, width=RPC_WIDTH):
        """Complete ``calls`` more calls, ``width`` in flight."""
        target = self.completed + calls
        self.limit = self.issued + calls
        for _ in range(width):
            self._issue()
        assert self.runtime.run_until(lambda: self.completed >= target, timeout=20.0, poll=0.01)
        assert self.wrong == 0
        return calls


class TestCallsPerDeliveredReliableEvent:
    def test_burst_of_1000_to_4_subscribers(self):
        runtime, publication, delivered = _event_fanout()

        def burst():
            for i in range(BURST):
                publication.raise_event(float(i))
            runtime.run_until(
                lambda: len(delivered) >= BURST * SUBSCRIBERS, timeout=5.0, poll=0.01
            )
            return len(delivered)

        calls, count = _counted(burst)
        assert count == BURST * SUBSCRIBERS
        per_event = sum(calls.values()) / count
        assert per_event <= MAX_CALLS_PER_EVENT, (
            f"{per_event:.1f} Python calls per delivered reliable event; the busiest:\n"
            + _busiest(calls, count)
        )
        # The ACK codec is one ``struct`` call per ACK, not a generator over
        # its seqs; an unhardened receiver never enters the hardened gate.
        assert _called(calls, "protocol/reliability.py", "<genexpr>") == 0
        assert _called(calls, "protocol/reliability.py", "_screened") == 0
        assert _called(calls, "sched/model.py", "cost_for") == 0
        _no_address_lookups(calls)


class TestCallsPerCompletedRpc:
    def test_2000_calls_16_wide(self):
        loop = _RpcLoop()
        loop.run(200)  # every binding made, every stream open
        calls, count = _counted(lambda: loop.run(RPCS))
        per_rpc = sum(calls.values()) / count
        assert per_rpc <= MAX_CALLS_PER_RPC, (
            f"{per_rpc:.1f} Python calls per completed RPC; the busiest:\n"
            + _busiest(calls, count)
        )
        # Untraced calls touch no trace context; the result decoder is bound
        # per provider, not parsed per response.
        assert _called(calls, "observability/trace.py", "context_of") == 0
        assert _called(calls, "observability/trace.py", "activate") == 0
        assert _called(calls, "encoding/schema.py", "parse_type") == 0
        assert _called(calls, "primitives/invocation.py", "<genexpr>") == 0
        assert _called(calls, "primitives/invocation.py", "<dictcomp>") == 0
        _no_address_lookups(calls)


# -- the ACK codec: one struct call per ACK, against the per-seq form ------------


def _per_seq_encode_ack(seqs):
    """The per-seq encoder the one-call form replaced."""
    if len(seqs) > 0xFFFF:
        raise ProtocolError("too many seqs in one ack")
    out = [struct.pack("<H", len(seqs))]
    out.extend(struct.pack("<I", s) for s in seqs)
    return b"".join(out)


def _per_seq_decode_ack(payload):
    """The per-seq decoder the one-call form replaced."""
    if len(payload) < 2:
        raise ProtocolError("ack payload too short")
    (count,) = struct.unpack_from("<H", payload)
    expected = 2 + count * 4
    if len(payload) != expected:
        raise ProtocolError(f"ack payload wrong size: {len(payload)} != {expected}")
    return [struct.unpack_from("<I", payload, 2 + i * 4)[0] for i in range(count)]


def _outcome(fn, arg):
    try:
        return "ok", fn(arg)
    except (ProtocolError, struct.error) as exc:
        return type(exc).__name__, str(exc) if isinstance(exc, ProtocolError) else ""


class TestAckCodecAgainstThePerSeqForm:
    @settings(max_examples=200, deadline=None)
    @given(seqs=st.lists(st.integers(0, 0xFFFFFFFF), max_size=80))
    def test_same_bytes_and_same_outcome_for_every_cut(self, seqs):
        payload = encode_ack(seqs)
        assert payload == _per_seq_encode_ack(seqs)
        assert decode_ack(payload) == _per_seq_decode_ack(payload) == seqs
        for cut in range(len(payload)):
            assert _outcome(decode_ack, payload[:cut]) == _outcome(
                _per_seq_decode_ack, payload[:cut]
            )
        for tail in (b"\x00", b"\x00" * 4, b"\x00" * 5):
            assert _outcome(decode_ack, payload + tail) == _outcome(
                _per_seq_decode_ack, payload + tail
            )

    @settings(max_examples=300, deadline=None)
    @given(payload=st.binary(max_size=64))
    def test_arbitrary_bytes_decode_alike(self, payload):
        assert _outcome(decode_ack, payload) == _outcome(_per_seq_decode_ack, payload)

    def test_zero_seqs(self):
        assert encode_ack([]) == _per_seq_encode_ack([]) == b"\x00\x00"
        assert decode_ack(b"\x00\x00") == [] and isinstance(decode_ack(b"\x00\x00"), list)

    def test_the_0xffff_cap(self):
        full = list(range(0xFFFF))
        payload = encode_ack(full)
        assert payload == _per_seq_encode_ack(full)
        assert decode_ack(payload) == full
        for codec in (encode_ack, _per_seq_encode_ack):
            with pytest.raises(ProtocolError, match="too many seqs"):
                codec(full + [0])
        # A count field of 0xFFFF over a body too short for it, and a body
        # longer than any count field can declare.
        for payload in (b"\xff\xff" + b"\x00" * 8, b"\x00\x00" + b"\x00" * 4 * 0x10000):
            assert _outcome(decode_ack, payload) == _outcome(_per_seq_decode_ack, payload)

    def test_unencodable_seqs_raise_alike(self):
        for seqs in ([-1], [1 << 32], [1, 2, 1 << 40]):
            assert _outcome(encode_ack, seqs)[0] == _outcome(_per_seq_encode_ack, seqs)[0]


# -- the bound receiver against the per-frame one -----------------------------------


class _PerFrameReceiver:
    """The receive side as it was before the stream's state was bound once
    (``_hardened()`` per frame, an ``_ack([seq])`` list, a ``_seen`` set
    touched by every in-order seq, ``_deliver_in_order``, per-seq ACK
    encoding), transcribed as the reference."""

    def __init__(self, emit_ack, deliver, ordered, ack_delay, timers, max_pending_acks,
                 clock, hardened, on_abuse):
        self._source, self._channel = "tx", RELIABLE_CHANNEL
        self._emit_ack, self._deliver, self._ordered = emit_ack, deliver, ordered
        self._ack_delay, self._max_pending_acks = ack_delay, max_pending_acks
        self._clock, self._hardened, self._on_abuse = clock, hardened, on_abuse
        self._dup_ack_bucket = None
        self._pending_acks = set()
        self._ack_due = None
        self._ack_clock = clock
        self._ack_wakeup = Wakeup(clock, timers, self._flush_due)
        self._expected = 1
        self._pending = {}
        self._seen = set()
        self.delivered_frames = self.duplicate_frames = 0
        self.coalesced_acks = self.ack_frames_sent = 0
        self.replayed_frames = self.horizon_drops = self.suppressed_dup_acks = 0

    def on_frame(self, frame):
        seq = frame.seq
        if self._hardened:
            window = reliability.REPLAY_WINDOW
            if seq < self._expected - window:
                self.replayed_frames += 1
                self._on_abuse("replay")
                return
            if seq >= self._expected + window:
                self.horizon_drops += 1
                self._on_abuse("horizon")
                return
            if seq < self._expected or seq in self._seen:
                if self._dup_ack_bucket is None:
                    self._dup_ack_bucket = _Bucket(
                        reliability.DUP_ACK_RATE, reliability.DUP_ACK_BURST,
                        self._clock.now(),
                    )
                if self._dup_ack_bucket.try_take(self._clock.now()):
                    self._ack([seq])
                else:
                    self.suppressed_dup_acks += 1
                    self._on_abuse("dup-ack")
                self.duplicate_frames += 1
                return
        self._ack([seq])
        if seq < self._expected or seq in self._seen:
            self.duplicate_frames += 1
            return
        self._seen.add(seq)
        if not self._ordered:
            self.delivered_frames += 1
            self._deliver(frame)
            if seq == self._expected:
                self._seen.discard(self._expected)
                self._expected += 1
                while self._expected in self._seen:
                    self._seen.discard(self._expected)
                    self._expected += 1
            return
        if seq == self._expected:
            self._deliver_in_order(frame)
            while self._expected in self._pending:
                self._deliver_in_order(self._pending.pop(self._expected))
        else:
            self._pending[seq] = frame

    def _deliver_in_order(self, frame):
        self.delivered_frames += 1
        self._deliver(frame)
        self._seen.discard(frame.seq)
        self._expected = frame.seq + 1

    def _ack(self, seqs):
        if self._ack_delay <= 0:
            self._emit_ack(self._make_ack(seqs))
            return
        self._pending_acks.update(seqs)
        self.coalesced_acks += len(seqs)
        if len(self._pending_acks) >= self._max_pending_acks:
            self.flush_acks()
        elif self._ack_due is None:
            self._ack_due = self._ack_clock.now() + self._ack_delay
            self._ack_wakeup.need(self._ack_due)

    def _make_ack(self, seqs):
        self.ack_frames_sent += 1
        return Frame(
            kind=MessageKind.ACK, source="rx", payload=_per_seq_encode_ack(seqs),
            channel=self._channel,
        )

    def _flush_due(self, now):
        if self._ack_due is not None and self._ack_due <= now:
            self.flush_acks()
        return self._ack_due

    def flush_acks(self):
        for ack in self.take_pending_acks():
            self._emit_ack(ack)

    def take_pending_acks(self):
        self._ack_due = None
        if not self._pending_acks:
            return []
        seqs = sorted(self._pending_acks)
        self._pending_acks.clear()
        return [self._make_ack(seqs)]


_COUNTERS = (
    "delivered_frames", "duplicate_frames", "coalesced_acks", "ack_frames_sent",
    "replayed_frames", "horizon_drops", "suppressed_dup_acks",
)

#: A stream's life as the receiver sees it: data frames (seqs from a small
#: range, so duplicates and gaps are common), time passing, piggyback drains.
STREAM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("frame"), st.integers(1, 40)),
        st.tuples(st.just("frame"), st.integers(1, 40)),
        st.tuples(st.just("frame"), st.integers(1, 40)),
        st.tuples(st.just("wait"), st.integers(1, 30)),
        st.just(("drain",)),
    ),
    max_size=120,
)
#: ``None``: an unhardened stream. Else a hardened one, under these values
#: of the module's constants — small, so that the replay window, the
#: horizon and the re-ACK budget are all reached by seqs 1..40.
HARDENING = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "REPLAY_WINDOW": st.integers(1, 12),
        "DUP_ACK_RATE": st.sampled_from([1.0, 50.0]),
        "DUP_ACK_BURST": st.sampled_from([1.0, 2.0, 16.0]),
    }),
)


def _run_stream(make, ops, ordered, ack_delay, max_pending, hardening):
    """Drive one receiver through ``ops``, hardened under the constants
    ``hardening`` names (unhardened when None); -> (event log, counters)."""
    if hardening is None:
        return _drive(make, ops, ordered, ack_delay, max_pending, False)
    with patch.multiple(reliability, **hardening):
        return _drive(make, ops, ordered, ack_delay, max_pending, True)


def _drive(make, ops, ordered, ack_delay, max_pending, hardened):
    sim = Simulator()
    log = []
    receiver = make(
        emit_ack=lambda f: log.append(("ack", f.payload)),
        deliver=lambda f: log.append(("deliver", f.seq, f.payload)),
        ordered=ordered,
        ack_delay=ack_delay,
        timers=sim,
        max_pending_acks=max_pending,
        clock=sim,
        hardened=hardened,
        on_abuse=lambda reason: log.append(("abuse", reason)),
    )
    now = 0.0
    for op in ops:
        if op[0] == "frame":
            receiver.on_frame(Frame(
                MessageKind.EVENT, "tx", b"%d" % op[1], RELIABLE_CHANNEL, op[1],
                int(FrameFlags.RELIABLE),
            ))
        elif op[0] == "wait":
            now += op[1] / 1000
            sim.run(until=now)
        else:
            log.extend(("drained", f.payload) for f in receiver.take_pending_acks())
    sim.run(until=now + 1.0)
    return log, {name: getattr(receiver, name) for name in _COUNTERS}


def _bound(**kwargs):
    return ReliableReceiver(source="tx", channel=RELIABLE_CHANNEL, ack_source="rx", **kwargs)


class TestBoundReceiverAgainstThePerFrameOne:
    @settings(max_examples=400, deadline=None)
    @given(
        ops=STREAM_OPS,
        ordered=st.booleans(),
        ack_delay=st.sampled_from([0.0, 0.005]),
        max_pending=st.sampled_from([3, 64]),
        hardening=HARDENING,
    )
    def test_same_deliveries_acks_abuse_and_counters(
        self, ops, ordered, ack_delay, max_pending, hardening
    ):
        args = (ops, ordered, ack_delay, max_pending, hardening)
        assert _run_stream(_bound, *args) == _run_stream(_PerFrameReceiver, *args)

    def test_out_of_order_duplicate_and_hardened_streams(self):
        """The three shapes named explicitly, with every defense firing."""
        hardening = dict(REPLAY_WINDOW=4, DUP_ACK_RATE=1.0, DUP_ACK_BURST=2.0)
        frames = [("frame", s) for s in (2, 3, 1, 5, 4, 4, 1, 9, 30, 6, 7, 8, 1, 1, 1)]
        ops = frames + [("wait", 5), ("drain",)] + frames
        for ordered in (True, False):
            for ack_delay in (0.0, 0.005):
                for constants in (None, hardening):
                    args = (ops, ordered, ack_delay, 64, constants)
                    assert _run_stream(_bound, *args) == _run_stream(_PerFrameReceiver, *args)
        log, counters = _run_stream(_bound, ops, True, 0.0, 64, hardening)
        assert {"replay", "horizon", "dup-ack"} <= {e[1] for e in log if e[0] == "abuse"}
        assert [e[1] for e in log if e[0] == "deliver"] == list(range(1, 10))


# -- streams opened by sources nobody announced ------------------------------------

#: A well-formed EVENT for a name its (forged) source does not offer: the
#: stream is opened and ACKed, and the event is dropped and counted once in
#: ``unoffered_events``.
_UNOFFERED_EVENT = wire.encode(
    wire.EVENT_MESSAGE_SCHEMA, {"name": "mark", "timestamp": 0.0, "value": bytes(8)}
)


class TestStreamsFromUnknownSources:
    def test_ten_thousand_forged_ids_keep_the_table_bounded_and_a_peer_exact(self):
        """Every reliable-channel frame from a new source id opens a receiver
        and its ACK wake-up on that id's peer. 10,000 forged ids, interleaved
        with a known peer's events: at most ``MAX_STRANGERS`` strangers are
        held, the least recently used dropped first with its streams; the
        peer's stream is never touched and delivers every event once, in
        order. Fails before strangers were bounded (10,001 receivers)."""
        runtime = SimRuntime(seed=2)
        a = runtime.add_container("a", **FAST_PLANE)
        b = runtime.add_container("b", **FAST_PLANE)
        publisher, subscriber = Service("pub"), Service("sub")
        a.install_service(publisher)
        b.install_service(subscriber)
        runtime.start()
        runtime.settle()
        events = publisher.ctx.provide_event("mark", INT64)
        got = []
        subscriber.ctx.subscribe_event("mark", lambda value, _t: got.append(value))
        assert runtime.run_until(lambda: events.subscribers == {"b"}, timeout=5.0)
        events.raise_event(0)
        runtime.run_for(0.01)
        peer_stream = b.directory.peer("a").receiver
        forged_at = Address("nowhere", 1)
        for i in range(10_000):
            # The frame is ACKed (to no one — the directory has no
            # address) and its unoffered event dropped.
            b._on_frame(
                Frame(MessageKind.EVENT, f"forged-{i}", _UNOFFERED_EVENT, RELIABLE_CHANNEL, 1,
                      int(FrameFlags.RELIABLE)),
                forged_at,
            )
            if i == 0:
                first = b.directory.peer("forged-0").receiver
            if i % 100 == 99:
                events.raise_event(1 + i // 100)
                runtime.run_for(0.001)
            assert len(list(b.directory.peers())) <= 1 + MAX_STRANGERS
        runtime.run_for(1.0)
        assert got == list(range(101))
        assert b.directory.peer("a").receiver is peer_stream
        strangers = [p.id for p in b.directory.peers() if p.id.startswith("forged-")]
        assert strangers == [f"forged-{i}" for i in range(10_000 - MAX_STRANGERS, 10_000)]
        # The oldest stranger's stream was closed: its ACK wake-up is dead.
        assert first._ack_wakeup._at == float("-inf")

    def test_a_stranger_learned_since_is_kept(self):
        """A source whose announce arrives after its first frame is a peer
        from then on: it leaves the strangers' LRU with its stream, and no
        number of strangers after it closes that stream."""
        runtime = SimRuntime(seed=3)
        b = runtime.add_container("b", **FAST_PLANE)
        runtime.start()
        runtime.settle()
        directory = b.directory
        frame = dict(
            payload=_UNOFFERED_EVENT, channel=RELIABLE_CHANNEL, seq=1, flags=int(FrameFlags.RELIABLE)
        )
        b._on_frame(Frame(MessageKind.EVENT, "late", **frame), Address("n", 1))
        late = directory.peer("late").receiver
        assert "late" not in directory.known
        b.directory.handle_heartbeat({
            "container": "late", "node": "late", "port": 47001, "incarnation": 1,
            "load": 0, "restarts": 0,
        })
        for i in range(MAX_STRANGERS + 5):
            b._on_frame(Frame(MessageKind.EVENT, f"x{i}", **frame), Address("n", 1))
        assert directory.known["late"].receiver is late
        assert late._ack_wakeup._at != float("-inf")
        assert directory.find("x0") is None and directory.find("x5") is not None


# -- a peer that restarts before it is missed ----------------------------------------


class TestPeerRestartInsideLivenessTimeout:
    def test_events_after_the_restart_arrive_exactly_once_in_order(self):
        """The publisher goes silent, stops without a BYE reaching anyone
        and starts again — a new incarnation — before the subscriber's
        ``liveness_timeout`` could mark it dead. The subscriber learns of
        the new incarnation from its announce and starts the stream over
        (``_on_container_restart``); the publisher's streams started over
        with it. Events raised after the restart arrive exactly once, in
        order, over batched datagrams, so through the run path — also those
        raised right after ``provide``, before the subscriber has the new
        incarnation's offer: they are held until it arrives."""
        runtime = SimRuntime(seed=6)
        pub_container = runtime.add_container("pub", **FAST_PLANE)
        sub_container = runtime.add_container("sub", **FAST_PLANE)
        publisher = ProbeService(
            "pub", lambda s: setattr(s, "mark", s.ctx.provide_event("mark", INT64))
        )
        subscriber = ProbeService("sub", lambda s: s.watch_event("mark"))
        pub_container.install_service(publisher)
        sub_container.install_service(subscriber)
        runtime.start()
        runtime.settle()
        assert runtime.run_until(lambda: publisher.mark.subscribers == {"sub"}, timeout=5.0)
        for n in range(5):
            publisher.mark.raise_event(n)
        runtime.run_for(0.2)
        assert [value for _, value, _ in subscriber.events] == list(range(5))

        peer = sub_container.directory.peer("pub")
        epoch = peer.epoch
        downs = []
        sub_container.directory.on_container_down(lambda record: downs.append(record))
        stopped_at = runtime.sim.now()
        runtime.network.set_node_up("pub", False)  # the BYE never leaves
        pub_container.stop()
        runtime.run_for(0.1)
        runtime.network.set_node_up("pub", True)
        pub_container.start()
        pub_container.start_service("pub")  # provides "mark" again
        assert publisher.mark.subscribers == {"sub"}
        for n in range(5, 25):
            publisher.mark.raise_event(n)
        assert runtime.run_until(lambda: peer.epoch == epoch + 1, timeout=0.5)
        assert runtime.sim.now() - stopped_at < sub_container.config.liveness_timeout
        runtime.run_for(1.0)

        assert [value for _, value, _ in subscriber.events] == list(range(25))
        assert downs == []  # never missed: the restart hook, not liveness
        assert peer.epoch == epoch + 1
        assert sub_container.directory.record("pub").alive
        assert sub_container.metrics.counter_value("unoffered_events") == 0


class TestPeerRestartAsANewProcess:
    @pytest.mark.xfail(strict=True, reason=(
        "A container restarted as a new process announces incarnation 1 again, "
        "so its peers see no restart: they keep its old stream state and "
        "subscriptions. The mend is a boot id a new process cannot repeat (a "
        "random nonce in ANNOUNCE and HEARTBEAT); it moves wire bytes, so it "
        "waits for the golden break."
    ))
    def test_events_after_the_restart_arrive(self):
        """The publisher's process goes silent (no BYE) and a fresh
        ``ServiceContainer`` "pub" starts on the same node inside the
        subscriber's ``liveness_timeout``. Events it raises once it has
        announced reach the subscriber."""
        def provider():
            return ProbeService(
                "pub", lambda s: setattr(s, "mark", s.ctx.provide_event("mark", INT64))
            )

        runtime = SimRuntime(seed=6)
        old = runtime.add_container("pub", **FAST_PLANE)
        publisher = provider()
        old.install_service(publisher)
        sub_container = runtime.add_container("sub", **FAST_PLANE)
        subscriber = ProbeService("sub", lambda s: s.watch_event("mark"))
        sub_container.install_service(subscriber)
        runtime.start()
        runtime.settle()
        assert runtime.run_until(lambda: publisher.mark.subscribers == {"sub"}, timeout=5.0)
        for n in range(5):
            publisher.mark.raise_event(n)
        runtime.run_for(0.2)
        assert [value for _, value, _ in subscriber.events] == list(range(5))

        downs = []
        sub_container.directory.on_container_down(lambda record: downs.append(record))
        runtime.network.set_node_up("pub", False)  # the old process dies silently
        old.stop()
        del runtime.containers["pub"]
        runtime.run_for(0.1)
        runtime.network.set_node_up("pub", True)
        fresh = provider()
        runtime.add_container("pub", **FAST_PLANE).install_service(fresh)
        runtime.run_for(0.3)
        assert downs == []  # inside the liveness timeout
        for n in range(5, 25):
            fresh.mark.raise_event(n)
        runtime.run_for(1.0)
        assert [value for _, value, _ in subscriber.events] == list(range(25))


# -- a NACK, which no container sends ------------------------------------------------


@pytest.mark.parametrize("hardened", [False, True], ids=["unhardened", "hardened"])
@pytest.mark.parametrize("source", ["b", "stranger"], ids=["known-peer", "stranger"])
def test_a_nack_is_counted_and_ignored(hardened, source):
    """A reliable-channel NACK naming every frame in flight reaches no
    receiver, is not ACKed, consumes no seq, moves no deadline, makes no
    peer entry, reports no abuse and retransmits nothing: its one trace is
    ``frames_received{kind=NACK}``."""
    runtime = SimRuntime(seed=4)
    a = runtime.add_container("a", **FAST_PLANE)
    runtime.add_container("b", **FAST_PLANE)
    if hardened:
        runtime.harden_reliability()
    runtime.start()
    runtime.settle()
    for payload in (b"x", b"y"):
        a.send_reliable("b", MessageKind.EVENT, payload)
    peer = a.directory.peer("b")
    sender = peer.sender
    assert sender.hardened is hardened and sorted(sender._in_flight) == [1, 2]

    def state():
        return (
            dict(sender._in_flight),
            sender._next_seq,
            sender.wakeup._at,
            peer.receiver,
            sorted(p.id for p in a.directory.peers()),
            sorted(a.directory.known),
        )

    before, metrics = state(), a.metrics.snapshot()
    a._on_frame(
        Frame(MessageKind.NACK, source, encode_ack([1, 2]), RELIABLE_CHANNEL),
        Address("nowhere", 1),
    )
    assert state() == before
    assert peer.receiver is None and a.directory.find("stranger") is None
    assert sender.retransmitted_frames == 0
    assert a.metrics.snapshot() == {**metrics, "frames_received{kind=NACK}": 1}
