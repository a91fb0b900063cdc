"""Integration tests for File-based Transmission (§4.4)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService, settle, two_containers

from repro import SimRuntime
from repro.simnet.models import LinkModel
from repro.util.rng import SeededRng


def payload(size, seed=1):
    return SeededRng(seed).bytes(size)


class TestBasicTransfer:
    def test_small_file_reaches_subscriber(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.watch_file("res.photo"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        data = payload(5000)
        pub.ctx.publish_file("res.photo", data)
        runtime.run_for(2.0)
        assert sub.files == [("res.photo", data, 1)]

    def test_multi_chunk_file(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.watch_file("res.big"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        data = payload(50_000)  # 49 chunks at 1 KiB
        pub.ctx.publish_file("res.big", data)
        runtime.run_for(3.0)
        assert len(sub.files) == 1
        assert sub.files[0][1] == data

    def test_empty_file(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.watch_file("res.empty"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        pub.ctx.publish_file("res.empty", b"")
        runtime.run_for(2.0)
        assert sub.files == [("res.empty", b"", 1)]

    def test_multiple_subscribers_one_multicast_stream(self):
        runtime, a, b = two_containers()
        c = runtime.add_container("c")
        pub = ProbeService("pub")
        sub_b = ProbeService("sub-b", lambda s: s.watch_file("res.x"))
        sub_c = ProbeService("sub-c", lambda s: s.watch_file("res.x"))
        a.install_service(pub)
        b.install_service(sub_b)
        c.install_service(sub_c)
        settle(runtime)
        data = payload(20_000)
        pub.ctx.publish_file("res.x", data)
        runtime.run_for(3.0)
        assert sub_b.files[0][1] == data
        assert sub_c.files[0][1] == data
        # Chunks were multicast: sent once, not once per subscriber.
        session = a.files._sessions["res.x"]
        assert session.chunks_sent <= 20_000 // 1024 + 2

    def test_subscriber_before_publication(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.watch_file("res.future"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        runtime.run_for(1.0)
        data = payload(3000)
        pub.ctx.publish_file("res.future", data)
        runtime.run_for(3.0)
        assert sub.files == [("res.future", data, 1)]

    def test_progress_callbacks(self):
        runtime, a, b = two_containers()
        progress = []
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.ctx.subscribe_file(
            "res.p",
            on_complete=lambda d, r: None,
            on_progress=lambda done, total: progress.append((done, total)),
        ))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        pub.ctx.publish_file("res.p", payload(10_000))
        runtime.run_for(2.0)
        assert progress
        done, total = progress[-1]
        assert done == total == 10


class TestLossRecovery:
    @pytest.mark.parametrize("loss", [0.02, 0.1, 0.25])
    def test_transfer_completes_under_loss(self, loss):
        link = LinkModel(latency=0.002, jitter=0.0005, loss=loss, bandwidth_bps=0.0)
        runtime, a, b = two_containers(seed=21, link=link, liveness_timeout=5.0)
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.watch_file("res.lossy"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime, 6.0)
        data = payload(30_000, seed=int(loss * 100))
        pub.ctx.publish_file("res.lossy", data)
        assert runtime.run_until(lambda: len(sub.files) == 1, timeout=60.0)
        assert sub.files[0][1] == data

    def test_retransmission_rounds_only_resend_missing(self):
        link = LinkModel(latency=0.002, jitter=0.0, loss=0.2, bandwidth_bps=0.0)
        runtime, a, b = two_containers(seed=31, link=link, liveness_timeout=5.0)
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.watch_file("res.r"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime, 6.0)
        data = payload(40_000)
        total_chunks = 40
        pub.ctx.publish_file("res.r", data)
        assert runtime.run_until(lambda: len(sub.files) == 1, timeout=60.0)
        session = a.files._sessions["res.r"]
        # Selective retransmission: far fewer emissions than a full resend
        # per round would need.
        assert session.chunks_sent < total_chunks * (session.round + 1)


class TestLateJoin:
    def test_late_subscriber_resumes_and_catches_up(self):
        # Slow the stream so the second subscriber arrives mid-transfer.
        runtime = SimRuntime(seed=5)
        a = runtime.add_container("a", file_chunk_interval=0.01)
        b = runtime.add_container("b", file_chunk_interval=0.01)
        c = runtime.add_container("c", file_chunk_interval=0.01)
        pub = ProbeService("pub")
        early = ProbeService("early", lambda s: s.watch_file("res.late"))
        a.install_service(pub)
        b.install_service(early)
        late = ProbeService("late")
        c.install_service(late)
        settle(runtime)
        data = payload(100_000)  # 98 chunks * 10 ms = ~1 s transfer
        pub.ctx.publish_file("res.late", data)
        runtime.run_for(0.5)  # mid-transfer
        session = a.files._sessions["res.late"]
        assert session.in_transfer  # still going
        late.watch_file("res.late")
        assert runtime.run_until(
            lambda: len(early.files) == 1 and len(late.files) == 1, timeout=30.0
        )
        assert early.files[0][1] == data
        assert late.files[0][1] == data


class TestRevisions:
    def test_new_revision_delivered(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.watch_file("res.v"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        pub.ctx.publish_file("res.v", b"first version")
        runtime.run_for(2.0)
        pub.ctx.publish_file("res.v", b"second version, longer")
        runtime.run_for(2.0)
        assert sub.files == [
            ("res.v", b"first version", 1),
            ("res.v", b"second version, longer", 2),
        ]

    def test_revision_must_increase(self):
        runtime, a, _ = two_containers()
        pub = ProbeService("pub")
        a.install_service(pub)
        settle(runtime)
        pub.ctx.publish_file("res.v", b"one", revision=5)
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            a.files.publish("res.v", b"two", revision=5)

    def test_on_revision_ignore_policy(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.ctx.subscribe_file(
            "res.v",
            on_complete=lambda d, r: s.files.append(("res.v", d, r)),
            on_revision=lambda rev: "ignore",
        ))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        pub.ctx.publish_file("res.v", b"keep this")
        runtime.run_for(2.0)
        pub.ctx.publish_file("res.v", b"ignored update")
        runtime.run_for(2.0)
        assert sub.files == [("res.v", b"keep this", 1)]


class TestBypass:
    def test_same_container_bypasses_network(self):
        runtime, a, _ = two_containers()
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.watch_file("res.local"))
        a.install_service(pub)
        a.install_service(sub)
        settle(runtime)
        data = payload(80_000)
        pub.ctx.publish_file("res.local", data)
        runtime.run_for(1.0)
        assert sub.files == [("res.local", data, 1)]
        assert a.files.bypassed_transfers == 1
        # No transfer session was ever created: not a single chunk was sent.
        assert "res.local" not in a.files._sessions

    def test_bypass_for_subscription_after_publish(self):
        runtime, a, _ = two_containers()
        pub = ProbeService("pub")
        a.install_service(pub)
        settle(runtime)
        data = payload(5000)
        pub.ctx.publish_file("res.local2", data)
        sub = ProbeService("sub", lambda s: s.watch_file("res.local2"))
        a.install_service(sub)
        runtime.run_for(0.5)
        assert sub.files == [("res.local2", data, 1)]
        assert a.files.bypassed_transfers == 1


class TestNackCompression:
    def test_ranges_round_trip(self):
        from repro.primitives.wire import indices_from_ranges, ranges_from_indices

        indices = [0, 1, 2, 7, 9, 10, 11, 40]
        ranges = ranges_from_indices(indices)
        assert ranges == [
            {"start": 0, "end": 2},
            {"start": 7, "end": 7},
            {"start": 9, "end": 11},
            {"start": 40, "end": 40},
        ]
        assert indices_from_ranges(ranges) == indices

    def test_empty_and_single(self):
        from repro.primitives.wire import indices_from_ranges, ranges_from_indices

        assert ranges_from_indices([]) == []
        assert indices_from_ranges([]) == []
        assert ranges_from_indices([5]) == [{"start": 5, "end": 5}]


class TestPacingTrace:
    """Deadline pacing is invisible in simulation: the clock stands still
    inside a callback, so one chunk leaves per interval, at the bit-exact
    virtual instants the timer-per-chunk implementation produced (recorded
    from it: a lossy link, two receivers, three rounds)."""

    RECORDED = [
        ("0x1.802471d79858fp+1", 0), ("0x1.802aff9053200p+1", 1),
        ("0x1.80318d490de71p+1", 2), ("0x1.80381b01c8ae2p+1", 3),
        ("0x1.803ea8ba83753p+1", 4), ("0x1.804536733e3c4p+1", 5),
        ("0x1.804bc42bf9035p+1", 6), ("0x1.805251e4b3ca6p+1", 7),
        ("0x1.8058df9d6e917p+1", 8), ("0x1.805f6d5629588p+1", 9),
        ("0x1.8065fb0ee41f9p+1", 10), ("0x1.806c88c79ee6ap+1", 11),
        ("0x1.8073168059adbp+1", "poll"),
        ("0x1.86d97ce6c0141p+1", 5), ("0x1.86e00a9f7adb2p+1", 6),
        ("0x1.86e6985835a23p+1", 7), ("0x1.86ed2610f0694p+1", 8),
        ("0x1.86f3b3c9ab305p+1", 9), ("0x1.86fa418265f76p+1", 10),
        ("0x1.8700cf3b20be7p+1", "poll"),
        ("0x1.8d6735a18724dp+1", 5), ("0x1.8d6dc35a41ebep+1", 8),
        ("0x1.8d745112fcb2fp+1", 10),
        ("0x1.8d7adecbb77a0p+1", "poll"),
    ]

    def test_sim_chunk_trace_is_unchanged(self):
        from repro.primitives import wire
        from repro.protocol.frames import MessageKind

        runtime = SimRuntime(seed=5, default_link=LinkModel(loss=0.2))
        a = runtime.add_container("a")
        receivers = []
        for name in ("b", "c"):
            probe = ProbeService("sub", lambda s: s.watch_file("res.t"))
            runtime.add_container(name).install_service(probe)
            receivers.append(probe)
        pub = ProbeService("pub")
        a.install_service(pub)
        trace = []
        send_group = a.send_group

        def tap(group, frame):
            if frame.kind == MessageKind.FILE_CHUNK:
                index = wire.decode(wire.FILE_CHUNK_SCHEMA, frame.payload)["index"]
                trace.append((runtime.sim.now().hex(), index))
            elif frame.kind == MessageKind.FILE_STATUS_REQUEST:
                trace.append((runtime.sim.now().hex(), "poll"))
            send_group(group, frame)

        a.send_group = tap
        settle(runtime)
        data = payload(12_000, seed=3)
        pub.ctx.publish_file("res.t", data)
        runtime.run_for(3.0)
        assert all(probe.files == [("res.t", data, 1)] for probe in receivers)
        assert trace == self.RECORDED
