"""Experiment E5 — §4.2: events "guarantee the reception of the sent
information to all the subscribed services", and the application-layer
UDP+ack mechanism "is more efficient for event messages than the generic
case provided by the TCP stack".

Workload: 200 events (64 B payload) from one publisher to one subscriber
over a link with increasing loss, once per mapping (``udp_ack`` vs the
modelled ``tcp``). Metrics: delivery ratio (must be 100% for both), wire
bytes, retransmitted payload bytes, mean delivery latency.

Expected shape: both mappings deliver everything; the UDP+ack mapping moves
fewer bytes (selective vs go-back-N retransmission, no handshake, smaller
headers) and has lower latency tails.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from exphelpers import fmt_ms, print_table, run_benchmark, summarize_latencies

from repro import Service, SimRuntime
from repro.encoding.types import BYTES, StructType
from repro.protocol.reliability import RetransmitPolicy
from repro.simnet.models import LinkModel
from repro.util.rng import SeededRng

EVENTS = 200
PAYLOAD = 64
LOSS_RATES = [0.0, 0.01, 0.05, 0.10, 0.20]
SCHEMA = StructType("Evt", [("data", BYTES)])


class EventSource(Service):
    def __init__(self):
        super().__init__("source")

    def on_start(self):
        self.handle = self.ctx.provide_event("bench.evt", SCHEMA)


class EventSink(Service):
    def __init__(self):
        super().__init__("sink")
        self.deliveries = []  # (recv_now, publish_timestamp)

    def on_start(self):
        self.ctx.subscribe_event(
            "bench.evt", lambda v, t: self.deliveries.append((self.ctx.now(), t))
        )


def run_one(loss: float, mapping: str, seed: int = 37):
    link = LinkModel(latency=0.001, jitter=0.0002, loss=loss, bandwidth_bps=0.0)
    runtime = SimRuntime(seed=seed, default_link=link)
    common = dict(
        event_mapping=mapping,
        liveness_timeout=8.0,
        heartbeat_interval=0.5,
        retransmit=RetransmitPolicy(initial_rto=0.02, max_retries=30),
    )
    a = runtime.add_container("pub-node", **common)
    b = runtime.add_container("sub-node", **common)
    source = EventSource()
    sink = EventSink()
    a.install_service(source)
    b.install_service(sink)
    runtime.start()
    runtime.run_for(6.0)
    payload = SeededRng(seed).bytes(PAYLOAD)
    bytes_before = runtime.network.stats.emissions.bytes
    for _ in range(EVENTS):
        source.handle.raise_event({"data": payload})
        runtime.run_for(0.02)
    runtime.run_for(30.0)  # drain retransmissions
    wire_bytes = runtime.network.stats.emissions.bytes - bytes_before
    peer = a.directory.find("sub-node")
    sender = None
    if peer is not None:
        sender = peer.sender if mapping == "udp_ack" else peer.tcp_sender
    retx = sender.retransmitted_bytes if sender else 0
    return {
        "delivered": len(sink.deliveries),
        "wire_bytes": wire_bytes,
        "retx_bytes": retx,
        "latency": summarize_latencies(sink.deliveries),
    }


def run_experiment():
    rows = []
    results = {}
    for loss in LOSS_RATES:
        udp = run_one(loss, "udp_ack")
        tcp = run_one(loss, "tcp")
        results[loss] = (udp, tcp)
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
        "E5: 200 events under loss — UDP+ack vs TCP-like mapping",
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
    for loss, (udp, tcp) in results.items():
        # The §4.2 guarantee holds for both mappings at every loss rate.
        assert udp["delivered"] == EVENTS
        assert tcp["delivered"] == EVENTS
        # The efficiency claim: fewer bytes on the wire with the
        # application-layer mechanism.
        assert udp["wire_bytes"] < tcp["wire_bytes"]
        if loss >= 0.05:
            # Selective retransmission beats go-back-N where it matters.
            assert udp["retx_bytes"] <= tcp["retx_bytes"]
    benchmark.extra_info["wire_bytes"] = {
        str(loss): {"udp_ack": udp["wire_bytes"], "tcp": tcp["wire_bytes"]}
        for loss, (udp, tcp) in results.items()
    }


if __name__ == "__main__":
    run_experiment()
