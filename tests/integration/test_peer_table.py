"""100,000 forged source ids against the one peer table, under tracemalloc.

A frame's source id is whatever the frame declares. Everything a container
keeps per peer — streams, admission buckets and quarantine, the abuse log,
the epoch, the resolved address — hangs off that id's one
:class:`~repro.protocol.peers.Peer`, and a stranger's Peer lives in an LRU of
at most ``MAX_STRANGERS``. So a flood of forged ids on the best-effort
(VAR_SAMPLE, channel 0), reliable (EVENT, channel 1) and TCP-modelled
(STREAM_SYN, channel 2) planes, with admission off and armed, must leave the
heap flat between the 10,000th and the 100,000th id. In the same run an
announced peer's events arrive once each, in order, and a stranger that
keeps sending — the LRU keeps what is used — and announces mid-flood keeps
its stream.

Measured before the peer table existed, on this harness (CPython 3.11): the
heap grew 25.1 MB from 10,000 to 100,000 ids with admission off — the TCP
streams' three per-peer dicts, which had no bound — and 76.3 MB armed, the
admission state of every id on top; the peer table measures 0.03 MB both
ways.

Out of scope: forged ANNOUNCE/HEARTBEAT beacons, which create directory
records (the spoofing limitation in docs/resilience.md), and malformed
payloads, whose ``malformed_frames{source=…}`` counter labels grow per id
(an instruments matter). Every frame here is well-formed.
"""

import gc
import tracemalloc

import pytest

from repro import Service, SimRuntime
from repro.container.links import RELIABLE_CHANNEL, TCP_CHANNEL
from repro.encoding.types import INT64
from repro.primitives import wire
from repro.protocol.admission import HARDENED_ADMISSION
from repro.protocol.frames import Frame, FrameFlags, MessageKind
from repro.protocol.peers import MAX_STRANGERS
from repro.protocol.tcp_like import TCP_EXTRA_HEADER
from repro.simnet.addressing import Address

FAST_PLANE = dict(
    codec="compiled", batching_enabled=True,
    ack_coalesce_delay=0.002, ack_coalesce_max_pending=64,
)
FORGED = 100_000
WARM = 10_000
#: Heap growth allowed from the 10,000th to the 100,000th forged id. The
#: table is full by the first mark, so each new stranger replaces an
#: evicted one.
MAX_GROWTH_BYTES = 1 << 20
#: "late" sends a reliable frame every ``LATE_EVERY`` ids from ``LATE_AT``:
#: fewer new strangers than the cap in between, and under every admission
#: budget at one virtual millisecond per hundred ids.
LATE_AT, LATE_EVERY, LATE_ANNOUNCES_AT = 3_000, 250, 50_000

_RELIABLE = int(FrameFlags.RELIABLE)
_SAMPLE = wire.encode_var_sample({"name": "nobody.var", "timestamp": 0.0, "value": b"\x01"})
_EVENT = wire.encode_event_message({"name": "nobody.event", "timestamp": 0.0, "value": b""})
_SYN = b"\x00" * TCP_EXTRA_HEADER


def _forged(i):
    """Well-formed frames from a new id each, the three planes in turn."""
    source = f"forged-{i}"
    if i % 3 == 0:
        return Frame(MessageKind.VAR_SAMPLE, source, _SAMPLE)
    if i % 3 == 1:
        return Frame(MessageKind.EVENT, source, _EVENT, RELIABLE_CHANNEL, 1, _RELIABLE)
    return Frame(MessageKind.STREAM_SYN, source, _SYN, TCP_CHANNEL)


class _Flood:
    def __init__(self, admission):
        self.runtime = SimRuntime(seed=4)
        self.a = self.runtime.add_container("a", **FAST_PLANE)
        self.b = self.runtime.add_container("b", **FAST_PLANE)
        publisher, subscriber = Service("pub"), Service("sub")
        self.a.install_service(publisher)
        self.b.install_service(subscriber)
        self.runtime.start()
        self.runtime.settle()
        if admission:
            self.runtime.enable_admission(HARDENED_ADMISSION)
        self.events = publisher.ctx.provide_event("mark", INT64)
        self.got = []
        subscriber.ctx.subscribe_event("mark", lambda value, _t: self.got.append(value))
        assert self.runtime.run_until(lambda: self.events.subscribers == {"b"}, timeout=5.0)
        self.events.raise_event(0)
        self.runtime.run_for(0.01)
        self.late_sent = 0

    def _from_late(self, at):
        self.late_sent += 1
        self.b._on_frame(
            Frame(MessageKind.EVENT, "late", _EVENT, RELIABLE_CHANNEL, self.late_sent, _RELIABLE),
            at,
        )

    def run(self):
        """-> (heap growth in bytes, the top ``compare_to`` line)."""
        b, at = self.b, Address("nowhere", 1)
        tracemalloc.start()
        try:
            for i in range(FORGED):
                if i == WARM:
                    gc.collect()
                    before = tracemalloc.take_snapshot()
                if i == LATE_AT:
                    self._from_late(at)
                    self.runtime.run_for(0.0001)
                    self.late = b.directory.peer("late").receiver
                elif i > LATE_AT and i % LATE_EVERY == 0:
                    self._from_late(at)
                if i == LATE_ANNOUNCES_AT:
                    b.directory.handle_heartbeat({
                        "container": "late", "node": "late", "port": 47001,
                        "incarnation": 1, "load": 0, "restarts": 0,
                    })
                b._on_frame(_forged(i), at)
                if i % 100 == 99:
                    self.runtime.run_for(0.001)
                if i % 1000 == 999:
                    self.events.raise_event(1 + i // 1000)
            self.runtime.run_for(0.0001)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = after.compare_to(before, "lineno")
        return sum(stat.size_diff for stat in stats), str(stats[0])


@pytest.mark.parametrize("admission", [False, True], ids=["admission-off", "admission-armed"])
def test_forged_ids_leave_the_heap_flat(admission):
    flood = _Flood(admission)
    growth, top = flood.run()
    assert growth < MAX_GROWTH_BYTES, (
        f"{growth / 1e6:.2f} MB grown over {FORGED - WARM:,} forged ids; top: {top}"
    )
    b = flood.b
    peers = list(b.directory.peers())
    strangers = [peer for peer in peers if peer.id.startswith("forged-")]
    assert len(strangers) == MAX_STRANGERS and len(peers) <= MAX_STRANGERS + 2
    # The strangers held are the newest: two thirds of the ids (all, armed)
    # opened one.
    assert min(int(peer.id[len("forged-"):]) for peer in strangers) > FORGED - 2 * MAX_STRANGERS
    if admission:
        assert b.admission.admitted > FORGED and b.admission.dropped == 0
    # The stranger that announced mid-flood: promoted, its stream intact.
    late = b.directory.known["late"]
    assert late.receiver is flood.late
    assert late.receiver.delivered_frames == flood.late_sent > 300
    assert late.receiver._ack_wakeup._at != float("-inf")
    # The announced peer: every event once, in order, on its one stream.
    flood.runtime.run_for(1.0)
    assert flood.got == list(range(1 + FORGED // 1000))
