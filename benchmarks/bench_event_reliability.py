"""Experiment E5 — §4.2: events "guarantee the reception of the sent
information to all the subscribed services", and the application-layer
UDP+ack mechanism "is more efficient for event messages than the generic
case provided by the TCP stack".

The two streams are compared directly, without containers: each arm is one
sender/receiver pair on a :class:`~repro.sim.Simulator`, joined in both
directions by the same seeded :class:`~repro.simnet.models.LinkModel`.

- UDP arm: :class:`ReliableSender`/:class:`ReliableReceiver`, opened as the
  container's ``ReliableLinks`` opens them (ordered, one ACK per frame), with
  ``RetransmitPolicy(initial_rto=0.02, max_retries=30)``.
- TCP arm: the TCP-behaviour model, :class:`TcpLikeSender`/
  :class:`TcpLikeReceiver` (handshake, cumulative ACKs, go-back-N).

Workload: 200 EVENT messages (``wire.encode_event_message``, a 64-byte
value), one every 20 ms, over a 1 ms ± 0.2 ms link at increasing loss.
Metrics: delivery ratio (must be 100% for both), wire bytes (each datagram's
encoded frame plus ``WIRE_OVERHEAD_BYTES``, both directions), retransmitted
payload bytes and p99 delivery latency.

Expected shape: both streams deliver everything; the UDP+ack stream moves
fewer bytes (selective vs go-back-N retransmission, no handshake, smaller
headers) and has lower latency tails under loss.

Run ``python benchmarks/bench_event_reliability.py`` to print the table.
"""

import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from exphelpers import fmt_ms, print_table, run_benchmark, summarize_latencies

from repro.container.links import RELIABLE_CHANNEL
from repro.primitives import wire
from repro.protocol.frames import Frame, MessageKind
from repro.protocol.reliability import ReliableReceiver, ReliableSender, RetransmitPolicy
from repro.protocol.tcp_like import TcpLikeReceiver, TcpLikeSender
from repro.sim import Simulator
from repro.simnet.models import LinkModel
from repro.transport.addressing import WIRE_OVERHEAD_BYTES
from repro.util.rng import SeededRng
from repro.util.wakeup import Wakeup

EVENTS = 200
PAYLOAD = 64
INTERVAL = 0.02
LOSS_RATES = [0.0, 0.01, 0.05, 0.10, 0.20]
SEED = 37
POLICY = RetransmitPolicy(initial_rto=0.02, max_retries=30)
#: The channel the TCP model's frames carry (any but the reliable one).
TCP_CHANNEL = 2


class _Link:
    """Both directions of one arm: every frame is one datagram, counted on
    the wire, then dropped or delivered (decoded) after the propagation
    delay, by the one seeded draw sequence."""

    def __init__(self, sim: Simulator, loss: float, seed: int):
        self.sim = sim
        self.model = LinkModel(latency=0.001, jitter=0.0002, loss=loss, bandwidth_bps=0.0)
        self.rng = SeededRng(seed)
        self.wire_bytes = 0

    def carry(self, receive, frames) -> None:
        for frame in frames:
            data = frame.encode()
            self.wire_bytes += len(data) + WIRE_OVERHEAD_BYTES
            if not self.model.drops(self.rng):
                delay = self.model.propagation_delay(self.rng)
                self.sim.schedule(delay, partial(receive, Frame.decode(data)))


def _polled(sim: Simulator, sender) -> Wakeup:
    """A stream's one wake-up: retransmit what is due, then sleep until the
    sender's earliest remaining deadline."""

    def due(now):
        sender.poll(now)
        return sender.next_wakeup()

    return Wakeup(sim, sim, due)


def _udp_arm(sim: Simulator, link: _Link, on_message):
    """-> (send, sender): the reliable stream, as ``ReliableLinks`` opens it."""
    receiver = ReliableReceiver(
        source="pub",
        channel=RELIABLE_CHANNEL,
        emit_ack=lambda frame: link.carry(sender.on_ack_frame, (frame,)),
        deliver=lambda frame: on_message(frame.payload),
        ordered=True,
        ack_source="sub",
        ack_delay=0.0,
        timers=sim,
        clock=sim,
    )
    sender = ReliableSender(
        clock=sim,
        source="pub",
        channel=RELIABLE_CHANNEL,
        emit=partial(link.carry, receiver.on_frame),
        policy=POLICY,
    )
    sender.wakeup = _polled(sim, sender)
    return partial(sender.send, MessageKind.EVENT), sender


def _tcp_arm(sim: Simulator, link: _Link, on_message):
    """-> (send, sender): the TCP model, its wake-up held to the sender's
    earliest deadline after every send and every frame it takes."""
    sender = TcpLikeSender(
        clock=sim,
        source="pub",
        channel=TCP_CHANNEL,
        emit=lambda frame: link.carry(receiver.on_frame, (frame,)),
    )
    receiver = TcpLikeReceiver(
        source="sub",
        channel=TCP_CHANNEL,
        emit=lambda frame: link.carry(to_sender, (frame,)),
        deliver=on_message,
    )
    wakeup = _polled(sim, sender)

    def reread():
        deadline = sender.next_wakeup()
        if deadline is not None:
            wakeup.need(deadline)

    def to_sender(frame):
        sender.on_frame(frame)
        reread()

    def send(payload):
        sender.send(payload)
        reread()

    return send, sender


ARMS = {"udp": _udp_arm, "tcp": _tcp_arm}


def run_arm(arm: str, loss: float, seed: int = SEED) -> dict:
    """One arm at one loss rate: :data:`EVENTS` messages, then run until
    the stream is quiet."""
    sim = Simulator()
    link = _Link(sim, loss, seed)
    deliveries = []  # (delivered at, raised at)

    def on_message(payload):
        doc, _trace = wire.decode_event_message(payload)
        deliveries.append((sim.now(), doc["timestamp"]))

    send, sender = ARMS[arm](sim, link, on_message)
    value = SeededRng(seed).bytes(PAYLOAD)
    for i in range(EVENTS):
        at = i * INTERVAL
        message = wire.encode_event_message(
            {"name": "bench.evt", "timestamp": at, "value": value}
        )
        sim.schedule_at(at, partial(send, message))
    sim.run()
    return {
        "delivered": len(deliveries),
        "wire_bytes": link.wire_bytes,
        "retx_bytes": sender.retransmitted_bytes,
        "latency": summarize_latencies(deliveries),
    }


def e5_table(seed: int = SEED) -> dict:
    """E5's table: loss rate -> {"udp": row, "tcp": row}."""
    return {
        loss: {arm: run_arm(arm, loss, seed) for arm in ARMS} for loss in LOSS_RATES
    }


def run_experiment():
    results = e5_table()
    rows = []
    for loss, arms in results.items():
        udp, tcp = arms["udp"], arms["tcp"]
        rows.append(
            [
                f"{loss * 100:.0f}%",
                f"{udp['delivered']}/{EVENTS}",
                f"{tcp['delivered']}/{EVENTS}",
                udp["wire_bytes"],
                tcp["wire_bytes"],
                udp["retx_bytes"],
                tcp["retx_bytes"],
                fmt_ms(udp["latency"]["p99"]),
                fmt_ms(tcp["latency"]["p99"]),
            ]
        )
    print_table(
        "E5: 200 events under loss — UDP+ack vs TCP-like stream",
        [
            "loss",
            "udp delivered",
            "tcp delivered",
            "udp wire B",
            "tcp wire B",
            "udp retx B",
            "tcp retx B",
            "udp p99 ms",
            "tcp p99 ms",
        ],
        rows,
    )
    return results


def test_event_reliability(benchmark):
    results = run_benchmark(benchmark, run_experiment)
    for loss, arms in results.items():
        udp, tcp = arms["udp"], arms["tcp"]
        # The §4.2 guarantee holds for both streams at every loss rate.
        assert udp["delivered"] == EVENTS
        assert tcp["delivered"] == EVENTS
        # The efficiency claim: fewer bytes on the wire with the
        # application-layer mechanism.
        assert udp["wire_bytes"] < tcp["wire_bytes"]
        if loss >= 0.05:
            # Selective retransmission beats go-back-N where it matters.
            assert udp["retx_bytes"] <= tcp["retx_bytes"]
    benchmark.extra_info["wire_bytes"] = {
        str(loss): {"udp_ack": arms["udp"]["wire_bytes"], "tcp": arms["tcp"]["wire_bytes"]}
        for loss, arms in results.items()
    }


if __name__ == "__main__":
    run_experiment()
