"""A reliable stream sends by the run.

``ReliableSender`` emits a backlog drain, and a poll's due retransmissions,
as one run each; the container routes, counts and records a run once, and
the egress stage and the batcher take it in one call. None of that may show:
against a twin whose sender emits every frame on its own (the sender as it
was, transcribed below), the container must put the same datagrams on the
wire (bytes, destination, order), count the same, record the same entries
(in the same order, but for the one move :func:`_runs_first` undoes),
report the same failures and overflows in the same order and hold the
stream's wake-up to the same deadline. The schedules mix sends of
several kinds, bands and sizes (some fill a datagram mid-run, some bypass
batching), ACKs in order, out of order and repeated, polls that retransmit
and give up, windows of 1-8, a bounded backlog, batching on and off,
coalesced ACKs waiting to piggyback and egress shaping with a queue limit.

A bare sender is also checked against the twin under a clock that may step
back between sends: only there can a frame be retransmitted ahead of one
that gives up in the same poll, which is when the run must leave before the
failure is reported.
"""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.container.config import ContainerConfig
from repro.container.container import ServiceContainer
from repro.container.links import RELIABLE_CHANNEL
from repro.observability.recorder import FlightRecorder
from repro.protocol.frames import Frame, FrameFlags, MessageKind
from repro.protocol.reliability import ReliableSender, RetransmitPolicy, encode_ack
from repro.sim import Simulator
from repro.transport.addressing import Address
from repro.transport.frame_transport import FrameTransport

_RELIABLE = int(FrameFlags.RELIABLE)
_RETRANSMIT = int(FrameFlags.RETRANSMIT)

#: Two kinds share band 1, so one batch takes runs of two kinds.
KINDS = (
    MessageKind.EVENT,
    MessageKind.EVENT_SUBSCRIBE,
    MessageKind.RPC_REQUEST,
    MessageKind.FILE_COMPLETION_ACK,
)
#: Payload sizes against the 1,200-byte batch budget: two 450-byte frames
#: fill a batch, a 1,300-byte one bypasses batching.
SIZES = (8, 200, 450, 1300)


class FrameByFrameSender(ReliableSender):
    """The sender before runs: each frame goes out on its own, as a run of
    one, from a per-frame ``_transmit``."""

    def send(self, kind, payload):
        policy = self._policy
        if len(self._in_flight) >= policy.window:
            return super().send(kind, payload)  # backlog or shed: nothing emitted
        seq = self._next_seq
        self._next_seq = seq + 1
        deadline = self._clock.now() + policy.initial_rto
        self._transmit(Frame(kind, self._source, payload, self._channel, seq, _RELIABLE), deadline)
        if self.wakeup is not None:
            self.wakeup.need(deadline)
        return seq

    def poll(self, now=None):
        if now is None:
            now = self._clock.now()
        in_flight = self._in_flight
        policy = self._policy
        expired = [(seq, st) for seq, st in in_flight.items() if st[1] <= now]
        for seq, (frame, _, rto, retries) in expired:
            if retries >= policy.max_retries:
                self.failed_frames += 1
                del in_flight[seq]
                if self._on_failure is not None:
                    self._on_failure(seq, frame)
                continue
            rto = min(rto * policy.backoff, policy.max_rto)
            in_flight[seq] = (frame, now + rto, rto, retries + 1)
            frame.flags |= _RETRANSMIT
            self.retransmitted_frames += 1
            self.retransmitted_bytes += len(frame.payload)
            self._emit((frame,))
        self._drain_backlog()

    def _transmit(self, frame, deadline):
        self._in_flight[frame.seq] = (frame, deadline, self._policy.initial_rto, 0)
        self.sent_frames += 1
        self._emit((frame,))

    def _drain_backlog(self):
        backlog, in_flight, window = self._backlog, self._in_flight, self._policy.window
        if not backlog or len(in_flight) >= window:
            return
        deadline = self._clock.now() + self._policy.initial_rto
        while backlog and len(in_flight) < window:
            self._transmit(backlog.popleft(), deadline)
        if self.wakeup is not None:
            self.wakeup.need(deadline)


_SENDER_COUNTERS = (
    "sent_frames", "retransmitted_frames", "retransmitted_bytes", "failed_frames",
    "shed_frames", "unacked",
)


def _payload(n, size):
    return n.to_bytes(4, "little") * (size // 4) + bytes(size % 4)


# -- the container, on a wire that records every datagram ------------------------

class RecordingWire:
    """A raw transport that writes each datagram into ``log``."""

    node = "node-a"
    mtu = 1500

    def __init__(self, log):
        self.log = log

    def open(self, port, receiver):
        return Address(self.node, port)

    def close(self):
        pass

    def join(self, group):
        pass

    def leave(self, group):
        pass

    def send_bytes(self, destination, data):
        self.log.append(("datagram", str(destination), bytes(data)))


class ScatterWire(RecordingWire):
    """The same, taking batches as buffer lists (the zero-copy egress)."""

    def send_buffers(self, destination, views):
        self.send_bytes(destination, b"".join(views))


B_ANNOUNCE = {
    "container": "b", "node": "node-b", "port": 47000, "incarnation": 1,
    "services": [], "variables": [], "events": [], "functions": [], "files": [],
}

CONTAINER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from(KINDS), st.sampled_from(SIZES)),
        st.tuples(st.just("send"), st.sampled_from(KINDS), st.sampled_from(SIZES)),
        st.tuples(st.just("burst"), st.sampled_from(KINDS), st.sampled_from(SIZES),
                  st.integers(2, 12)),
        st.tuples(st.just("ack"), st.lists(st.integers(1, 30), max_size=8)),
        st.tuples(st.just("recv"), st.integers(1, 4)),
        st.tuples(st.just("wait"), st.integers(1, 40)),
        st.just(("revive",)),
    ),
    max_size=30,
)
SETTINGS = st.fixed_dictionaries({
    "window": st.integers(1, 8),
    "max_backlog": st.one_of(st.none(), st.integers(1, 6)),
    "max_retries": st.integers(0, 3),
    "batching": st.booleans(),
    "scatter": st.booleans(),
    "ack_delay": st.sampled_from([0.0, 0.004]),
    "shaping": st.one_of(
        st.none(),
        st.tuples(st.sampled_from([200_000.0, 2_000_000.0]),
                  st.one_of(st.none(), st.integers(1, 4))),
    ),
})


def _drive_container(ops, options, sender_class):
    sim = Simulator()
    log = []
    wire = (ScatterWire if options["scatter"] else RecordingWire)(log)
    rate, queue_limit = options["shaping"] or (None, None)
    config = ContainerConfig(
        container_id="a",
        node=RecordingWire.node,
        liveness_timeout=3600.0,
        batching_enabled=options["batching"],
        ack_coalesce_delay=options["ack_delay"],
        egress_rate_bps=rate,
        egress_queue_limit=queue_limit,
        retransmit=RetransmitPolicy(
            initial_rto=0.01, max_rto=0.04, window=options["window"],
            max_retries=options["max_retries"], max_backlog=options["max_backlog"],
        ),
    )
    container = ServiceContainer(config, sim, sim, FrameTransport(wire, sim, "a"))
    # Every entry kept, so both runs' entries can be compared whole.
    container.recorder = FlightRecorder(sim, capacity=1 << 20)
    links = container.links
    failed, slow = links._on_peer_failure, links._on_peer_slow

    def on_failure(peer, frame):
        log.append(("failure", peer.id, frame.seq, frame.kind))
        failed(peer, frame)

    def on_slow(peer, frame):
        log.append(("overflow", peer.id, frame.kind, frame.payload))
        slow(peer, frame)

    links._on_peer_failure, links._on_peer_slow = on_failure, on_slow
    container.start()
    container.directory.handle_announce(dict(B_ANNOUNCE))
    peer = container.directory.peer("b")
    now = 0.0
    sent = b_seq = 0
    with patch("repro.container.links.ReliableSender", sender_class):
        for op in ops:
            if op[0] in ("send", "burst"):
                for _ in range(op[3] if op[0] == "burst" else 1):
                    sent += 1
                    container.send_reliable("b", op[1], _payload(sent, op[2]))
            elif op[0] == "ack":
                ack = Frame(MessageKind.ACK, "b", encode_ack(op[1]), RELIABLE_CHANNEL)
                links.on_frame(ack, peer)
            elif op[0] == "recv":
                frames = []
                for _ in range(op[1]):
                    b_seq += 1
                    frames.append(Frame(MessageKind.EVENT, "b", b"%d" % b_seq,
                                        RELIABLE_CHANNEL, b_seq, _RELIABLE))
                links.on_run(frames, peer, lambda frame: None)
            elif op[0] == "wait":
                now += op[1] / 1000
                sim.run(until=now)
            else:
                container.directory.handle_announce(dict(B_ANNOUNCE))
            sender = peer.sender
            log.append(("wakeup", None if sender is None else sender.wakeup._at))
        sim.run(until=now + 1.0)
    return {
        "log": log,
        "metrics": container.metrics.snapshot(),
        "entries": container.recorder.dump(),
    }


def _comparable(result):
    return dict(result, entries=_runs_first(result["entries"]))


def _is_data_tx(entry):
    return entry["category"] == "tx" and entry["kind"] != "ACK"


def _runs_first(entries):
    """The recorder's entries, with the one move sending by the run makes
    undone. A run's tx entries are written with one clock read before the
    run enters the egress stage, so the entries its egress causes (the tx
    entry of an ACK piggybacked on a batch the run fills, the
    egress-overflow entry of a frame shaping sheds) follow the whole run;
    frame by frame they sit among the run's entries. In each stretch of
    such entries at one instant the data tx entries are put first, each
    group keeping its order; every other entry stays where it is."""
    out, stretch = [], []

    def close():
        out.extend(entry for entry in stretch if _is_data_tx(entry))
        out.extend(entry for entry in stretch if not _is_data_tx(entry))
        stretch.clear()

    for entry in entries:
        movable = entry["category"] == "tx" or entry.get("action") == "egress-overflow"
        if not movable or (stretch and stretch[-1]["t"] != entry["t"]):
            close()
        (stretch if movable else out).append(entry)
    close()
    return out


@settings(max_examples=250, deadline=None)
@given(ops=CONTAINER_OPS, options=SETTINGS)
def test_a_container_sends_a_run_as_its_frames_one_at_a_time(ops, options):
    by_run = _drive_container(ops, options, ReliableSender)
    by_frame = _drive_container(ops, options, FrameByFrameSender)
    assert _comparable(by_run) == _comparable(by_frame)


def test_a_drain_fills_datagrams_to_the_budget_and_bypasses_the_oversize():
    """Eight small frames fill the window; the ACK for them drains seven
    more as one run, 450-byte frames around a 1,300-byte one: the run
    splits where frame-by-frame adds split it, around the bypass."""
    ops = [("burst", MessageKind.EVENT, 8, 8), ("burst", MessageKind.EVENT, 450, 3),
           ("send", MessageKind.EVENT, 1300), ("burst", MessageKind.EVENT, 450, 3),
           ("wait", 1), ("ack", list(range(1, 9))), ("wait", 1)]
    options = dict(window=8, max_backlog=None, max_retries=0, batching=True,
                   scatter=False, ack_delay=0.0, shaping=None)
    by_run = _drive_container(ops, options, ReliableSender)
    assert _comparable(by_run) == _comparable(_drive_container(ops, options, FrameByFrameSender))
    assert by_run["metrics"]["frames_sent{kind=EVENT}"] == 15
    # The drain's datagrams, in 400-byte units: two 450-byte frames, one,
    # the 1,300-byte bypass, two, one.
    to_b = [entry[2] for entry in by_run["log"] if entry[:2] == ("datagram", "node-b:47000")]
    assert [len(datagram) // 400 for datagram in to_b[-5:]] == [2, 1, 3, 2, 1]


@pytest.mark.parametrize("ops, options", [
    # Shaping with a queue limit of one sheds the second and third frames
    # of a four-frame drain.
    ([("burst", MessageKind.EVENT, 450, 12), ("wait", 1), ("ack", [1, 2, 3, 4]),
      ("wait", 1)],
     dict(window=4, max_backlog=None, max_retries=0, batching=False, scatter=False,
          ack_delay=0.0, shaping=(200_000.0, 1))),
    # A coalesced ACK is pending when the third 450-byte frame of a drain
    # flushes the batch the first two filled, and rides that batch.
    ([("burst", MessageKind.EVENT, 450, 8), ("wait", 1), ("recv", 2),
      ("ack", [1, 2, 3, 4]), ("wait", 10)],
     dict(window=4, max_backlog=None, max_retries=0, batching=True, scatter=False,
          ack_delay=0.004, shaping=None)),
])
def test_a_drain_is_recorded_before_what_its_egress_causes(ops, options):
    """The move :func:`_runs_first` undoes does happen, and is the only
    difference: the run's egress-overflow entries, or its piggybacked
    ACK's tx entry, follow all of its tx entries."""
    by_run = _drive_container(ops, options, ReliableSender)
    by_frame = _drive_container(ops, options, FrameByFrameSender)
    assert by_run["entries"] != by_frame["entries"]
    assert _comparable(by_run) == _comparable(by_frame)


# -- a bare sender, under a clock that may step back ----------------------------

class SteppingClock:
    """A clock the test sets to any time, earlier ones included."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


SENDER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from(KINDS)),
        st.tuples(st.just("send"), st.sampled_from(KINDS)),
        st.tuples(st.just("ack"), st.lists(st.integers(1, 20), max_size=6)),
        st.tuples(st.just("at"), st.integers(0, 200)),
        st.tuples(st.just("poll"), st.integers(0, 200)),
    ),
    max_size=40,
)


def _drive_sender(ops, policy, sender_class):
    clock = SteppingClock()
    log = []

    def emit(frames):
        # What the container counts a run by: one kind, and all first
        # transmissions or all retransmissions.
        assert len({(f.kind, f.flags & _RETRANSMIT) for f in frames}) == 1
        log.extend(("emit", f.seq, f.kind, f.flags) for f in frames)

    sender = sender_class(
        clock=clock, source="a", channel=RELIABLE_CHANNEL,
        emit=emit,
        on_failure=lambda seq, frame: log.append(("failure", seq)),
        policy=policy,
        on_overflow=lambda frame: log.append(("overflow", frame.kind)),
    )
    for n, op in enumerate(ops):
        if op[0] == "send":
            log.append(("seq", sender.send(op[1], b"%d" % n)))
        elif op[0] == "ack":
            sender.on_ack_frame(Frame(MessageKind.ACK, "b", encode_ack(op[1]), RELIABLE_CHANNEL))
        elif op[0] == "at":
            clock.t = op[1] / 1000
        else:
            clock.t = op[1] / 1000
            sender.poll()
        log.append(("next", sender.next_wakeup()))
    return log, {name: getattr(sender, name) for name in _SENDER_COUNTERS}


POLICIES = st.builds(
    RetransmitPolicy,
    initial_rto=st.just(0.01), max_rto=st.just(0.04),
    window=st.integers(1, 8), max_retries=st.integers(0, 3),
    max_backlog=st.one_of(st.none(), st.integers(1, 4)),
)


@settings(max_examples=400, deadline=None)
@given(ops=SENDER_OPS, policy=POLICIES)
@example(
    # Seq 2 goes out at 0 ms, before seq 1 (sent at 100 ms) in the clock's
    # eyes: at 111 ms seq 1 is retransmitted and seq 2 gives up, in that
    # order, so the retransmission must leave before the failure is told.
    ops=[("at", 100), ("send", MessageKind.EVENT), ("at", 0),
         ("send", MessageKind.EVENT), ("poll", 10), ("poll", 111)],
    policy=RetransmitPolicy(initial_rto=0.01, max_rto=0.04, window=8, max_retries=1),
)
def test_a_sender_emits_its_runs_in_the_order_of_its_frames(ops, policy):
    assert _drive_sender(ops, policy, ReliableSender) == _drive_sender(
        ops, policy, FrameByFrameSender
    )
