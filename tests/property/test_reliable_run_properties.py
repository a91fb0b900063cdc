"""A run of reliable frames crosses the receiver in one call.

``ReliableReceiver.on_run`` must be indistinguishable from feeding the same
frames one at a time through ``on_frame``: the same deliveries in the same
order, the same ACK frames at the same places among them, the same abuse
reports and the same counters — over duplicates, gaps, reorders, frames of
several kinds, handlers that reject their payload, ACK coalescing and
hardening each on and off, and any cut of the stream into runs.
"""

from contextlib import nullcontext
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container.links import RELIABLE_CHANNEL
from repro.protocol import reliability
from repro.protocol.frames import Frame, FrameFlags, MessageKind
from repro.protocol.reliability import ReliableReceiver
from repro.sim import Simulator
from repro.util.errors import ProtocolError
from tests.integration.test_reliable_path import _COUNTERS, HARDENING

KINDS = (MessageKind.EVENT, MessageKind.RPC_REQUEST, MessageKind.FILE_COMPLETION_NACK)
#: The payload every handler rejects.
BAD = b"bad"

FRAME = st.tuples(st.integers(1, 30), st.sampled_from(KINDS), st.booleans())
#: A stream's life as the receiver sees it: runs of data frames (seqs from a
#: small range, so duplicates and gaps are common; some payloads rejected),
#: time passing, piggyback drains.
RUN_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.lists(FRAME, min_size=1, max_size=8)),
        st.tuples(st.just("run"), st.lists(FRAME, min_size=1, max_size=8)),
        st.tuples(st.just("wait"), st.integers(1, 30)),
        st.just(("drain",)),
    ),
    max_size=40,
)


def _frame(seq, kind, bad):
    payload = BAD if bad else b"%d" % seq
    return Frame(kind, "tx", payload, RELIABLE_CHANNEL, seq, int(FrameFlags.RELIABLE))


def _dispatcher(log):
    """What the container hands the receiver: each frame to the handler of
    its own kind, a rejected payload reported there and then."""

    def handler(kind):
        def handle(frame):
            if frame.payload == BAD:
                raise ProtocolError("undecodable payload")
            log.append(("deliver", kind, frame.seq, frame.payload))

        return handle

    handlers = {kind: handler(kind) for kind in KINDS}

    def deliver(frame):
        try:
            handlers[frame.kind](frame)
        except ProtocolError:
            log.append(("malformed", frame.kind, frame.seq))

    return deliver


def _drive(ops, by_run, ordered, ack_delay, max_pending, hardened):
    sim = Simulator()
    log = []
    deliver = _dispatcher(log)
    receiver = ReliableReceiver(
        source="tx",
        channel=RELIABLE_CHANNEL,
        emit_ack=lambda f: log.append(("ack", f.payload)),
        deliver=deliver,
        ordered=ordered,
        ack_source="rx",
        ack_delay=ack_delay,
        timers=sim,
        max_pending_acks=max_pending,
        clock=sim,
        hardened=hardened,
        on_abuse=lambda reason: log.append(("abuse", reason)),
    )
    now = 0.0
    for op in ops:
        if op[0] == "run":
            frames = [_frame(*spec) for spec in op[1]]
            if by_run:
                receiver.on_run(frames, deliver)
            else:
                for frame in frames:
                    receiver.on_frame(frame)
        elif op[0] == "wait":
            now += op[1] / 1000
            sim.run(until=now)
        else:
            log.extend(("drained", f.payload) for f in receiver.take_pending_acks())
    sim.run(until=now + 1.0)
    return log, {name: getattr(receiver, name) for name in _COUNTERS}


def _both(ops, ordered, ack_delay, max_pending, hardening):
    """(by run, frame by frame), under the hardening constants named."""
    args = (ordered, ack_delay, max_pending, hardening is not None)
    with patch.multiple(reliability, **hardening) if hardening else nullcontext():
        return _drive(ops, True, *args), _drive(ops, False, *args)


@settings(max_examples=400, deadline=None)
@given(
    ops=RUN_OPS,
    ordered=st.booleans(),
    ack_delay=st.sampled_from([0.0, 0.005]),
    max_pending=st.sampled_from([3, 64]),
    hardening=HARDENING,
)
def test_a_run_is_its_frames_one_at_a_time(ops, ordered, ack_delay, max_pending, hardening):
    by_run, by_frame = _both(ops, ordered, ack_delay, max_pending, hardening)
    assert by_run == by_frame


def test_buffered_frames_of_other_kinds_reach_their_own_handlers():
    """A run of EVENTs releases an RPC request and two completion NACKs,
    one of them rejected, from the reorder buffer: each goes to its own
    kind's handler, the rejected one is reported once and its seq consumed,
    and every later frame arrives exactly once."""
    ops = [
        ("run", [(2, MessageKind.RPC_REQUEST, False)]),
        ("run", [(3, MessageKind.FILE_COMPLETION_NACK, True)]),
        ("run", [(4, MessageKind.FILE_COMPLETION_NACK, False)]),
        ("run", [(1, MessageKind.EVENT, False), (5, MessageKind.EVENT, False)]),
        ("run", [(3, MessageKind.FILE_COMPLETION_NACK, True), (6, MessageKind.EVENT, False)]),
    ]
    for ack_delay in (0.0, 0.005):
        by_run, by_frame = _both(ops, True, ack_delay, 64, None)
        assert by_run == by_frame
        log, counters = by_run
        assert [entry for entry in log if entry[0] != "ack"] == [
            ("deliver", MessageKind.EVENT, 1, b"1"),
            ("deliver", MessageKind.RPC_REQUEST, 2, b"2"),
            ("malformed", MessageKind.FILE_COMPLETION_NACK, 3),
            ("deliver", MessageKind.FILE_COMPLETION_NACK, 4, b"4"),
            ("deliver", MessageKind.EVENT, 5, b"5"),
            ("deliver", MessageKind.EVENT, 6, b"6"),
        ]
        assert (counters["delivered_frames"], counters["duplicate_frames"]) == (6, 1)
