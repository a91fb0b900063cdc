"""Fragmentation/reassembly tests."""

import pytest

from repro.protocol import Fragmenter, Reassembler
from repro.protocol.frames import Frame, MessageKind
from repro.util.errors import ProtocolError


def big_frame(size):
    return Frame(kind=MessageKind.RPC_REQUEST, source="c1", payload=b"z" * size).encode()


class TestFragmenter:
    def test_small_message_single_fragment(self):
        frag = Fragmenter("c1", mtu=1400)
        frames = frag.fragment(b"hello")
        assert len(frames) == 1
        assert frames[0].kind == MessageKind.FRAGMENT

    def test_split_sizes_respect_mtu(self):
        frag = Fragmenter("c1", mtu=200)
        encoded = big_frame(1000)
        frames = frag.fragment(encoded)
        assert len(frames) > 1
        for frame in frames:
            assert len(frame.encode()) <= 200

    def test_mtu_too_small_rejected(self):
        with pytest.raises(ProtocolError):
            Fragmenter("c1", mtu=10)

    def test_message_ids_differ(self):
        frag = Fragmenter("c1", mtu=200)
        a = frag.fragment(big_frame(500))
        b = frag.fragment(big_frame(500))
        assert a[0].payload[:4] != b[0].payload[:4]


class TestReassembler:
    def round_trip(self, mtu, size, shuffle=None):
        frag = Fragmenter("c1", mtu=mtu)
        encoded = big_frame(size)
        frames = frag.fragment(encoded)
        if shuffle:
            shuffle(frames)
        reasm = Reassembler()
        results = [reasm.on_fragment(f, now=0.0) for f in frames]
        completed = [r for r in results if r is not None]
        assert len(completed) == 1
        assert completed[0] == encoded
        inner = Frame.decode(completed[0])
        assert inner.payload == b"z" * size

    def test_in_order_reassembly(self):
        self.round_trip(mtu=200, size=1000)

    def test_out_of_order_reassembly(self):
        self.round_trip(mtu=200, size=1000, shuffle=lambda fs: fs.reverse())

    def test_interleaved_messages(self):
        frag = Fragmenter("c1", mtu=200)
        m1, m2 = big_frame(400), big_frame(500)
        f1, f2 = frag.fragment(m1), frag.fragment(m2)
        reasm = Reassembler()
        done = []
        for pair in zip(f1, f2):
            for frame in pair:
                result = reasm.on_fragment(frame, now=0.0)
                if result:
                    done.append(result)
        for leftover in f2[len(f1):]:
            result = reasm.on_fragment(leftover, now=0.0)
            if result:
                done.append(result)
        assert sorted(done, key=len) == sorted([m1, m2], key=len)

    def test_duplicate_fragment_is_harmless(self):
        frag = Fragmenter("c1", mtu=200)
        frames = frag.fragment(big_frame(500))
        reasm = Reassembler()
        reasm.on_fragment(frames[0], now=0.0)
        reasm.on_fragment(frames[0], now=0.0)
        result = None
        for frame in frames[1:]:
            result = reasm.on_fragment(frame, now=0.0) or result
        assert result is not None

    def test_expiry_drops_incomplete(self):
        frag = Fragmenter("c1", mtu=200)
        frames = frag.fragment(big_frame(1000))
        reasm = Reassembler(timeout=1.0)
        reasm.on_fragment(frames[0], now=0.0)
        assert reasm.pending == 1
        assert reasm.expire(now=2.0) == 1
        assert reasm.pending == 0
        assert reasm.expired_messages == 1

    def test_expiry_keeps_fresh(self):
        frag = Fragmenter("c1", mtu=200)
        frames = frag.fragment(big_frame(1000))
        reasm = Reassembler(timeout=1.0)
        reasm.on_fragment(frames[0], now=5.0)
        assert reasm.expire(now=5.5) == 0
        assert reasm.pending == 1

    def test_bad_fragments_rejected(self):
        reasm = Reassembler()
        with pytest.raises(ProtocolError):
            reasm.on_fragment(
                Frame(kind=MessageKind.EVENT, source="c1", payload=b""), now=0.0
            )
        with pytest.raises(ProtocolError):
            reasm.on_fragment(
                Frame(kind=MessageKind.FRAGMENT, source="c1", payload=b"xx"), now=0.0
            )

    def test_total_mismatch_rejected(self):
        import struct

        header_a = struct.pack("<IHH", 1, 0, 3)
        header_b = struct.pack("<IHH", 1, 1, 4)
        reasm = Reassembler()
        reasm.on_fragment(
            Frame(kind=MessageKind.FRAGMENT, source="c1", payload=header_a + b"a"),
            now=0.0,
        )
        with pytest.raises(ProtocolError, match="total"):
            reasm.on_fragment(
                Frame(kind=MessageKind.FRAGMENT, source="c1", payload=header_b + b"b"),
                now=0.0,
            )


class TestReassemblyBounds:
    """Reassembly runs before admission, so its own bounds are all that
    limits a fragment flood: bytes held per source and in total, a declared
    total that cannot fit rejected outright, a source over its bound losing
    its oldest partial. Rejections and evictions count as malformed."""

    FLOOD = 20_000
    CHUNK = b"x" * 1_100

    @staticmethod
    def forged(message_id, index, total, chunk, source="evil"):
        import struct

        return Frame(
            kind=MessageKind.FRAGMENT,
            source=source,
            payload=struct.pack("<IHH", message_id, index, total) + chunk,
        )

    def flood(self, reasm, frames):
        import tracemalloc

        rejected = 0
        tracemalloc.start()
        try:
            for frame in frames:
                try:
                    assert reasm.on_fragment(frame, now=0.0) is None
                except ProtocolError:
                    rejected += 1
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return rejected, held

    def test_distinct_ids_flood_is_bounded_by_evicting_the_oldest(self):
        from repro.protocol.fragmentation import MAX_REASSEMBLY_BYTES_PER_SOURCE

        reasm = Reassembler()
        frames = (self.forged(i, 0, 2, self.CHUNK) for i in range(self.FLOOD))
        rejected, held = self.flood(reasm, frames)
        assert rejected == 0
        assert reasm.held_bytes <= MAX_REASSEMBLY_BYTES_PER_SOURCE
        # Unbounded, these pinned 29.9 MB until they expired.
        assert held < 2 * MAX_REASSEMBLY_BYTES_PER_SOURCE
        assert reasm.evicted_messages == self.FLOOD - reasm.pending
        assert reasm.pending > 0  # the newest partials are the ones kept

    def test_one_id_declaring_65535_fragments_is_rejected(self):
        reasm = Reassembler()
        frames = (self.forged(7, i, 0xFFFF, self.CHUNK) for i in range(self.FLOOD))
        rejected, held = self.flood(reasm, frames)
        # Unbounded, these pinned 22.8 MB, and that one id could hold 72 MB.
        assert rejected == self.FLOOD
        assert reasm.pending == 0 and reasm.held_bytes == 0
        assert held < 1 << 20

    def test_sources_share_a_total_bound(self, monkeypatch):
        from repro.protocol import fragmentation

        monkeypatch.setattr(fragmentation, "MAX_REASSEMBLY_BYTES_PER_SOURCE", 4_000)
        monkeypatch.setattr(fragmentation, "MAX_REASSEMBLY_BYTES", 4_000)
        reasm = Reassembler()
        reasm.on_fragment(self.forged(1, 0, 2, self.CHUNK, source="a"), now=0.0)
        reasm.on_fragment(self.forged(1, 0, 2, self.CHUNK, source="b"), now=0.0)
        reasm.on_fragment(self.forged(2, 0, 2, self.CHUNK, source="a"), now=0.0)
        with pytest.raises(ProtocolError, match="bounds"):
            reasm.on_fragment(self.forged(1, 0, 2, self.CHUNK, source="c"), now=0.0)
        assert reasm.pending == 3 and reasm.rejected_fragments == 1

    def test_an_honest_message_completes_beside_a_flood(self):
        encoded = big_frame(64 << 10)
        honest = Fragmenter("c1", mtu=1200).fragment(encoded)
        reasm = Reassembler()
        done = []
        for i, fragment in enumerate(honest):
            for j in range(20):
                reasm.on_fragment(self.forged(i * 20 + j, 0, 2, self.CHUNK), now=0.0)
            done.append(reasm.on_fragment(fragment, now=0.0))
        assert [d for d in done if d is not None] == [encoded]
        assert reasm.evicted_messages > 0

    def test_frame_transport_counts_rejections_and_evictions_as_malformed(self):
        from repro.sim import Simulator
        from repro.simnet import LinkModel, SimNetwork
        from repro.transport import FrameTransport
        from repro.transport.addressing import Address
        from repro.transport.sim import SimTransport
        from repro.util import SeededRng

        sim = Simulator()
        net = SimNetwork(sim, SeededRng(1), default_link=LinkModel(
            latency=0.001, jitter=0.0, loss=0.0, bandwidth_bps=0.0, mtu=1472))
        attacker = SimTransport(net, "a")
        target = FrameTransport(SimTransport(net, "b"), clock=sim, source="cb")
        errors = []
        target.set_protocol_error_handler(lambda exc, src: errors.append(src))
        target.open(5000, lambda frames, src: None)
        attacker.open(5000, lambda data, src: None)
        forged = [self.forged(i, 0, 2, self.CHUNK) for i in range(1_000)]
        forged += [self.forged(5_000, i, 0xFFFF, self.CHUNK) for i in range(10)]
        for frame in forged:
            attacker.send_bytes(Address("b", 5000), frame.encode())
        sim.run()
        reasm = target._reassembler
        assert reasm.rejected_fragments == 10
        assert reasm.evicted_messages > 0
        assert target.malformed_datagrams == 10 + reasm.evicted_messages
        assert errors and set(errors) == {Address("a", 5000)}
