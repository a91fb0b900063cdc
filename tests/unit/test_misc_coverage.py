"""Small behaviours not pinned elsewhere: codec registry, policy budgets,
CPU model, storage-of-logs, least-loaded tie-breaks, packet helpers."""


from repro.encoding.codec import available_codecs, get_codec, register_codec
from repro.sched.model import CpuModel, TaskRecord
from repro.sched.policies import DeadlinePolicy
from repro.simnet.packet import Packet
from repro.transport.addressing import WIRE_OVERHEAD_BYTES, Address


class TestCodecRegistry:
    def test_available_lists_builtins(self):
        names = available_codecs()
        assert "binary" in names and "json" in names

    def test_custom_codec_registration(self):
        class NullCodec:
            name = "null-test"

            def encode(self, datatype, value):
                return b""

            def decode(self, datatype, data):
                return None

        register_codec(NullCodec())
        assert get_codec("null-test").name == "null-test"
        assert "null-test" in available_codecs()


class TestDeadlinePolicy:
    def test_budgets_default_and_override(self):
        policy = DeadlinePolicy()
        assert policy.budget_for("event") == 0.005
        assert policy.budget_for("unknown-label") == policy.default_budget
        custom = DeadlinePolicy(budgets={"event": 0.001}, default_budget=9.0)
        assert custom.budget_for("event") == 0.001
        assert custom.budget_for("file") == 9.0


class TestCpuModel:
    def test_costs_and_default(self):
        model = CpuModel(costs={"event": 0.01}, default_cost=0.5)
        assert model.cost_for("event") == 0.01
        assert model.cost_for("other") == 0.5

    def test_task_record_derived_metrics(self):
        record = TaskRecord(
            label="event", enqueued_at=1.0, started_at=1.5, finished_at=2.5
        )
        assert record.queue_delay == 0.5
        assert record.response_time == 1.5


class TestPacketHelpers:
    def test_size_includes_overhead(self):
        packet = Packet(Address("a", 1), Address("b", 2), b"12345")
        assert packet.size == 5 + WIRE_OVERHEAD_BYTES

    def test_is_multicast(self):
        from repro.transport.addressing import GroupName

        unicast = Packet(Address("a", 1), Address("b", 2), b"")
        multicast = Packet(Address("a", 1), GroupName("mcast.x"), b"")
        assert not unicast.is_multicast
        assert multicast.is_multicast


class TestStorageLogDelete:
    def test_variable_log_listed_but_not_deletable_as_object(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from helpers import ProbeService

        from repro import SimRuntime
        from repro.services.storage import StorageService

        runtime = SimRuntime(seed=1)
        node = runtime.add_container("node")
        storage = StorageService()
        probe = ProbeService("probe")
        node.install_service(storage)
        node.install_service(probe)
        runtime.start()
        runtime.run_for(1.0)
        probe.call_recorded("storage.log_variable", ("some.var",))
        runtime.run_for(0.5)
        probe.call_recorded("storage.list")
        runtime.run_for(0.5)
        assert probe.results[-1] == ["some.var"]
        # delete() covers stored objects, not live logs.
        probe.call_recorded("storage.delete", ("some.var",))
        runtime.run_for(0.5)
        assert probe.results[-1] is False


class TestLeastLoadedTieBreak:
    def test_equal_load_breaks_by_container_id(self):
        from repro.primitives.invocation import InvocationManager
        from tests.unit.test_primitives_managers import FakeHost

        host = FakeHost()
        for name in ["zeta", "alpha"]:
            host.add_remote(
                name, functions=[{"name": "f", "params": [], "result": ""}]
            )
        mgr = InvocationManager(host)
        mgr.call("f", binding="least_loaded")
        peer, _, _ = host.reliables[0]
        assert peer == "alpha"  # deterministic tie-break


class TestFrameFlagsEnum:
    def test_flags_compose(self):
        from repro.protocol.frames import FrameFlags

        both = FrameFlags.RELIABLE | FrameFlags.RETRANSMIT
        assert both & FrameFlags.RELIABLE
        assert both & FrameFlags.RETRANSMIT
        assert int(FrameFlags.NONE) == 0
