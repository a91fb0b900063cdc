"""Unit tests for the priority egress shaper (§4.2/§7 extension)."""

import pytest

from repro.container.egress import DEFAULT_BANDS, EgressShaper
from repro.protocol.batching import FrameBatcher, decode_batch_payload
from repro.protocol.frames import Frame, MessageKind
from repro.sim import Simulator


def make_shaper(rate_bps=None, burst=1600):
    sim = Simulator()
    sent = []
    shaper = EgressShaper(
        clock=sim,
        timers=sim,
        send=lambda dest, frame: sent.append((sim.now(), frame)),
        rate_bps=rate_bps,
        burst_bytes=burst,
    )
    return sim, shaper, sent


def frame(kind, size=0):
    return Frame(kind=kind, source="c", payload=b"z" * size)


class TestPassthrough:
    def test_disabled_shaper_sends_inline(self):
        sim, shaper, sent = make_shaper(rate_bps=None)
        shaper.send("dest", frame(MessageKind.FILE_CHUNK, 1000))
        assert len(sent) == 1
        assert shaper.passthrough_frames == 1
        assert not shaper.enabled


class TestTokenBucket:
    def test_paces_to_rate(self):
        # 8000 bit/s = 1000 B/s; 485-B wire frames leave 0.485 s apart in
        # steady state (the first gap is shorter: leftover burst tokens).
        sim, shaper, sent = make_shaper(rate_bps=8000, burst=600)
        for _ in range(4):
            shaper.send("dest", frame(MessageKind.FILE_CHUNK, 430))
        sim.run()
        assert len(sent) == 4
        gaps = [b - a for (a, _), (b, _) in zip(sent, sent[1:])]
        for gap in gaps[1:]:
            assert gap == pytest.approx(0.485, rel=0.05)

    def test_burst_allows_immediate_first_frame(self):
        sim, shaper, sent = make_shaper(rate_bps=8000, burst=1600)
        shaper.send("dest", frame(MessageKind.EVENT, 100))
        assert sent and sent[0][0] == 0.0


class TestPriorityBands:
    def test_event_overtakes_queued_file_chunks(self):
        sim, shaper, sent = make_shaper(rate_bps=80_000, burst=600)
        # Saturate with bulk chunks, then send one event.
        for _ in range(10):
            shaper.send("dest", frame(MessageKind.FILE_CHUNK, 458))  # 500 B + hdr
        shaper.send("dest", frame(MessageKind.EVENT, 16))
        sim.run()
        kinds = [f.kind for _, f in sent]
        event_pos = kinds.index(MessageKind.EVENT)
        # The event left before most of the queued bulk.
        assert event_pos <= 2
        assert len(sent) == 11

    def test_control_overtakes_event(self):
        sim, shaper, sent = make_shaper(rate_bps=80_000, burst=100)
        shaper.send("dest", frame(MessageKind.EVENT, 400))
        shaper.send("dest", frame(MessageKind.EVENT, 400))
        shaper.send("dest", frame(MessageKind.HEARTBEAT, 40))
        sim.run()
        kinds = [f.kind for _, f in sent]
        assert kinds.index(MessageKind.HEARTBEAT) < kinds.index(MessageKind.EVENT) + 2

    def test_all_kinds_have_bands(self):
        for kind in MessageKind:
            assert kind in DEFAULT_BANDS

    def test_queue_depth_telemetry(self):
        sim, shaper, sent = make_shaper(rate_bps=8000, burst=100)
        for _ in range(5):
            shaper.send("dest", frame(MessageKind.FILE_CHUNK, 430))
        assert shaper.queued > 0
        assert shaper.max_queue_depth >= shaper.queued
        sim.run()
        assert shaper.queued == 0


class TestEndToEnd:
    def test_shaped_container_still_functions(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from helpers import ProbeService, settle, two_containers

        from repro.encoding.types import STRING

        runtime, a, b = two_containers(egress_rate_bps=10_000_000.0)
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("shaped.evt", STRING)
        ))
        sub = ProbeService("sub", lambda s: s.watch_event("shaped.evt"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        pub.handle.raise_event("through the shaper")
        runtime.run_for(1.0)
        assert sub.events_of("shaped.evt") == ["through the shaper"]


def make_bounded_shaper(policy="drop-oldest", limit=2, policies=None, **kwargs):
    from repro.observability.metrics import MetricsRegistry

    sim = Simulator()
    sent = []
    overflowed = []
    metrics = MetricsRegistry()
    shaper = EgressShaper(
        clock=sim,
        timers=sim,
        send=lambda dest, frame: sent.append((dest, frame)),
        rate_bps=8000,  # slow: queues form immediately after the burst
        burst_bytes=600,
        queue_limit=limit,
        overflow_policy=policy,
        overflow_policies=policies,
        on_overflow=lambda dest, band, pol, f: overflowed.append((dest, band, pol, f)),
        metrics=metrics,
        **kwargs,
    )
    return sim, shaper, sent, overflowed, metrics


class TestBoundedQueues:
    def payloads(self, sent):
        return [f.payload for _, f in sent]

    def test_drop_oldest_keeps_newest(self):
        sim, shaper, sent, overflowed, metrics = make_bounded_shaper("drop-oldest")
        # First frame leaves on burst tokens; queue admits 2; two oldest shed.
        for _ in range(5):
            shaper.send("dest", frame(MessageKind.FILE_CHUNK, 430))
        sim.run()
        assert shaper.dropped_frames == 2
        assert [pol for _, _, pol, _ in overflowed] == ["drop-oldest"] * 2
        assert len(sent) == 3
        assert metrics.counter_value(
            "egress_overflow", band="4", policy="drop-oldest", kind="FILE_CHUNK"
        ) == 2

    def test_drop_oldest_delivers_the_newest_frames(self):
        sim, shaper, sent, overflowed, _ = make_bounded_shaper("drop-oldest")
        frames = [Frame(kind=MessageKind.FILE_CHUNK, source="c", payload=bytes([i]) * 430)
                  for i in range(5)]
        for f in frames:
            shaper.send("dest", f)
        sim.run()
        # Burst sends frame 0 inline; the bounded queue kept the 2 newest.
        assert [f.payload[0] for _, f in sent] == [0, 3, 4]

    def test_drop_newest_refuses_fresh_frames(self):
        sim, shaper, sent, overflowed, _ = make_bounded_shaper("drop-newest")
        frames = [Frame(kind=MessageKind.FILE_CHUNK, source="c", payload=bytes([i]) * 430)
                  for i in range(5)]
        for f in frames:
            shaper.send("dest", f)
        sim.run()
        assert shaper.dropped_frames == 2
        assert [f.payload[0] for _, f in sent] == [0, 1, 2]

    def test_block_policy_signals_backpressure(self):
        sim, shaper, sent, overflowed, metrics = make_bounded_shaper("block")
        for _ in range(5):
            shaper.send("dest", frame(MessageKind.FILE_CHUNK, 430))
        sim.run()
        assert shaper.blocked_frames == 2
        assert shaper.dropped_frames == 0
        assert [pol for _, _, pol, _ in overflowed] == ["block"] * 2
        assert len(sent) == 3

    def test_per_band_policy_override(self):
        # Bulk band drops oldest, variable band blocks.
        sim, shaper, sent, overflowed, _ = make_bounded_shaper(
            "drop-oldest", policies={2: "block"}
        )
        for _ in range(5):
            shaper.send("dest", frame(MessageKind.VAR_SAMPLE, 430))
        sim.run()
        assert shaper.blocked_frames == 2

    def test_queues_are_bounded_per_destination(self):
        sim, shaper, sent, overflowed, _ = make_bounded_shaper("drop-oldest", limit=2)
        for _ in range(3):
            shaper.send("dest-a", frame(MessageKind.FILE_CHUNK, 430))
        for _ in range(2):
            shaper.send("dest-b", frame(MessageKind.FILE_CHUNK, 430))
        # dest-a: 1 inline + 2 queued; dest-b: 2 queued — no overflow yet.
        assert shaper.queued_to("dest-a", 4) == 2
        assert shaper.queued_to("dest-b", 4) == 2
        assert shaper.dropped_frames == 0
        shaper.send("dest-b", frame(MessageKind.FILE_CHUNK, 430))
        assert shaper.dropped_frames == 1
        sim.run()
        assert shaper.queued == 0

    def test_unlimited_by_default(self):
        sim, shaper, sent = make_shaper(rate_bps=8000, burst=600)
        for _ in range(50):
            shaper.send("dest", frame(MessageKind.FILE_CHUNK, 430))
        assert shaper.dropped_frames == 0
        assert shaper.queued == 49

    def test_bad_policy_rejected(self):
        from repro.util.errors import ConfigurationError

        sim = Simulator()
        with pytest.raises(ConfigurationError):
            EgressShaper(
                clock=sim, timers=sim, send=lambda d, f: None,
                overflow_policy="drop-random",
            )


class TestBatchingStage:
    def make_batching_shaper(self, **kwargs):
        sim = Simulator()
        sent = []
        kwargs.setdefault("batch_flush_interval", 0.002)
        shaper = EgressShaper(
            clock=sim,
            timers=sim,
            send=lambda dest, frame: sent.append((dest, frame)),
            batching=True,
            source="c",
            **kwargs,
        )
        return sim, shaper, sent

    def test_small_frames_share_one_datagram(self):
        sim, shaper, sent = self.make_batching_shaper()
        for i in range(5):
            shaper.send("dest", frame(MessageKind.VAR_SAMPLE, 20))
        assert sent == []  # held for the flush window
        sim.run(until=0.01)
        assert len(sent) == 1
        _, out = sent[0]
        assert out.kind == MessageKind.BATCH
        from repro.protocol.batching import decode_batch_payload

        assert len(decode_batch_payload(out.payload)) == 5

    def test_single_pending_frame_goes_raw(self):
        sim, shaper, sent = self.make_batching_shaper()
        f = frame(MessageKind.EVENT, 10)
        shaper.send("dest", f)
        sim.run(until=0.01)
        assert len(sent) == 1
        assert sent[0][1] is f

    def test_flush_drains_immediately(self):
        sim, shaper, sent = self.make_batching_shaper()
        for _ in range(3):
            shaper.send("dest", frame(MessageKind.VAR_SAMPLE, 20))
        shaper.flush()
        assert len(sent) == 1
        assert shaper.batcher.pending_frames == 0

    def test_batches_never_span_bands(self):
        sim, shaper, sent = self.make_batching_shaper()
        shaper.send("dest", frame(MessageKind.EVENT, 20))       # band 1
        shaper.send("dest", frame(MessageKind.VAR_SAMPLE, 20))  # band 2
        shaper.send("dest", frame(MessageKind.EVENT, 20))
        shaper.send("dest", frame(MessageKind.VAR_SAMPLE, 20))
        shaper.flush()
        assert len(sent) == 2  # one batch per band, none mixed
        from repro.protocol.batching import decode_batch_payload

        for _, out in sent:
            kinds = {f.kind for f in decode_batch_payload(out.payload)}
            assert len(kinds) == 1

    def test_batching_composes_with_shaping(self):
        sim, shaper, sent = self.make_batching_shaper(
            rate_bps=8000, burst_bytes=1600
        )
        for _ in range(4):
            shaper.send("dest", frame(MessageKind.VAR_SAMPLE, 20))
        sim.run(until=1.0)
        assert len(sent) == 1
        assert sent[0][1].kind == MessageKind.BATCH

    def test_batching_without_a_hold_is_a_configuration_error(self):
        from repro.util.errors import ConfigurationError

        sim = Simulator()
        with pytest.raises(ConfigurationError):
            EgressShaper(
                clock=sim, timers=sim, send=lambda d, f: None,
                batching=True, source="c",
            )


class TestBatchHold:
    """``flush_interval`` is the longest a frame waits for companions; at 0
    what one virtual instant produced leaves at the end of that instant."""

    def make_batcher(self, hold, mtu=1200):
        sim = Simulator()
        out = []  # (virtual time, emitted frame)
        batcher = FrameBatcher(
            clock=sim, timers=sim, source="c",
            emit=lambda dest, f, band, _slot: out.append((sim.now(), f)),
            flush_interval=hold, mtu=mtu,
        )
        return sim, batcher, out

    def test_hold_zero_flushes_within_the_instant(self):
        sim, batcher, out = self.make_batcher(hold=0.0)

        def burst():
            for _ in range(5):
                batcher.add("dest", frame(MessageKind.VAR_SAMPLE, 20))

        sim.schedule(1.0, burst)
        sim.schedule(1.0, burst)  # a second callback of the same instant
        sim.run()
        assert [t for t, _ in out] == [1.0]  # no virtual time was added
        assert out[0][1].kind == MessageKind.BATCH
        assert len(decode_batch_payload(out[0][1].payload)) == 10

    def test_hold_zero_respects_the_mtu(self):
        sim, batcher, out = self.make_batcher(hold=0.0, mtu=256)
        for _ in range(12):
            batcher.add("dest", frame(MessageKind.VAR_SAMPLE, 40))
        sim.run()
        assert len(out) > 1
        assert all(len(f.encode()) <= 256 for _, f in out)
        assert sum(len(decode_batch_payload(f.payload)) for _, f in out) == 12

    def test_hold_zero_next_instant_leaves_on_its_own(self):
        sim, batcher, out = self.make_batcher(hold=0.0)
        first = frame(MessageKind.EVENT, 10)
        second = frame(MessageKind.EVENT, 10)
        sim.schedule(1.0, lambda: batcher.add("dest", first))
        sim.schedule(1.0 + 1e-6, lambda: batcher.add("dest", second))
        sim.run()
        # Two raw frames (single-frame parity), each at its own instant.
        assert [(t, f) for t, f in out] == [(1.0, first), (1.0 + 1e-6, second)]

    def test_positive_hold_gathers_across_time(self):
        sim, batcher, out = self.make_batcher(hold=0.002)
        sim.schedule(1.0, lambda: batcher.add("dest", frame(MessageKind.EVENT, 10)))
        sim.schedule(1.001, lambda: batcher.add("dest", frame(MessageKind.EVENT, 10)))
        sim.run()
        assert [t for t, _ in out] == [1.002]  # armed by the first add
        assert len(decode_batch_payload(out[0][1].payload)) == 2
