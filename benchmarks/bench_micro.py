"""Micro-benchmarks: implementation throughput (wall-clock CPU costs).

Not a paper experiment — these measure whether this implementation is fast
enough to be usable as a library: frame codec throughput, simulation-kernel
event rate, and end-to-end simulated event throughput per wall second.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.protocol.frames import Frame, MessageKind
from repro.protocol.reliability import ReliableReceiver, ReliableSender
from repro.sim import Simulator
from repro.util import ManualClock

FRAME = Frame(
    kind=MessageKind.EVENT, source="container-1", payload=b"z" * 128,
    channel=1, seq=12345,
)
ENCODED = FRAME.encode()


def test_frame_encode(benchmark):
    result = benchmark(FRAME.encode)
    assert result == ENCODED


def test_frame_decode(benchmark):
    result = benchmark(Frame.decode, ENCODED)
    assert result.seq == 12345


def test_kernel_event_throughput(benchmark):
    """Schedule+run 10k no-op events; reports time per batch."""

    def run_batch():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(i * 0.001, lambda: None)
        sim.run()
        return sim.events_executed

    assert benchmark(run_batch) == 10_000


def test_reliable_channel_throughput(benchmark):
    """Send 1k messages through a lossless sender/receiver pair."""

    def run_batch():
        clock = ManualClock()
        delivered = []
        receiver = ReliableReceiver(
            "tx", 1,
            emit_ack=lambda f: sender.on_ack_frame(f),
            deliver=lambda f: delivered.append(f),
            ack_source="rx",
        )
        sender = ReliableSender(
            clock=clock, source="tx", channel=1,
            emit=lambda frames: receiver.on_run(frames, receiver._deliver),
        )
        for _ in range(1_000):
            sender.send(MessageKind.EVENT, b"payload")
        return len(delivered)

    assert benchmark(run_batch) == 1_000


def test_simulated_event_rate(benchmark):
    """Full-stack: how many middleware events cross the simulated network
    per wall second (discovery + reliable delivery included)."""
    from repro import SimRuntime, Service
    from repro.encoding.types import STRING

    class Pub(Service):
        def __init__(self):
            super().__init__("pub")

        def on_start(self):
            self.handle = self.ctx.provide_event("micro.evt", STRING)

    class Sub(Service):
        def __init__(self):
            super().__init__("sub")
            self.count = 0

        def on_start(self):
            self.ctx.subscribe_event("micro.evt", lambda v, t: self._bump())

        def _bump(self):
            self.count += 1

    def run_batch():
        runtime = SimRuntime(seed=1)
        a = runtime.add_container("a")
        b = runtime.add_container("b")
        pub, sub = Pub(), Sub()
        a.install_service(pub)
        b.install_service(sub)
        runtime.start()
        runtime.run_for(3.0)
        for _ in range(500):
            pub.handle.raise_event("x")
        runtime.run_for(5.0)
        return sub.count

    assert benchmark.pedantic(run_batch, rounds=1, iterations=1) == 500
