"""Unit tests for the simulated network substrate."""

import pytest

from repro.sim import Simulator
from repro.simnet import LinkModel, Packet, SimNetwork
from repro.simnet.models import PERFECT_LINK, RADIO_LINK
from repro.transport.addressing import (
    CONTROL_GROUP,
    WIRE_OVERHEAD_BYTES,
    Address,
    GroupName,
    file_group,
    variable_group,
)
from repro.util import SeededRng, TransportError


def make_net(loss=0.0, latency=0.001, bandwidth=0.0, seed=1):
    sim = Simulator()
    link = LinkModel(latency=latency, jitter=0.0, loss=loss, bandwidth_bps=bandwidth)
    net = SimNetwork(sim, SeededRng(seed), default_link=link)
    return sim, net


class TestAddressing:
    def test_address_str(self):
        assert str(Address("node-a", 4000)) == "node-a:4000"

    def test_address_validation(self):
        with pytest.raises(ValueError):
            Address("", 1)
        with pytest.raises(ValueError):
            Address("a", 70000)

    def test_group_name_prefix_enforced(self):
        with pytest.raises(ValueError):
            GroupName("var.gps")
        assert variable_group("gps.position") == "mcast.var.gps.position"
        assert file_group("photo.1") == "mcast.file.photo.1"
        assert CONTROL_GROUP.startswith("mcast.")

    def test_addresses_are_hashable_and_ordered(self):
        a, b = Address("a", 1), Address("a", 2)
        assert a < b
        assert len({a, b, Address("a", 1)}) == 2


class TestUnicastDelivery:
    def test_packet_arrives_after_latency(self):
        sim, net = make_net(latency=0.01)
        a, b = net.attach("a"), net.attach("b")
        got = []
        b.set_receiver(lambda p: got.append((sim.now(), p.payload)))
        a.send(Packet(Address("a", 1), Address("b", 2), b"hello"))
        sim.run()
        assert got == [(pytest.approx(0.01), b"hello")]

    def test_unknown_destination_silently_dropped(self):
        sim, net = make_net()
        a = net.attach("a")
        a.send(Packet(Address("a", 1), Address("ghost", 2), b"x"))
        sim.run()
        assert net.stats.deliveries.packets == 0
        assert net.stats.drops_down.packets == 1

    def test_source_must_match_nic(self):
        _, net = make_net()
        a = net.attach("a")
        net.attach("b")
        with pytest.raises(TransportError):
            a.send(Packet(Address("b", 1), Address("a", 2), b"x"))

    def test_mtu_enforced(self):
        sim, net = make_net()
        a = net.attach("a")
        net.attach("b")
        with pytest.raises(TransportError):
            a.send(Packet(Address("a", 1), Address("b", 2), b"x" * 2000))

    def test_self_send_loops_back(self):
        sim, net = make_net(latency=0.01)
        a = net.attach("a")
        got = []
        a.set_receiver(lambda p: got.append(p.payload))
        a.send(Packet(Address("a", 1), Address("a", 2), b"self"))
        sim.run()
        assert got == [b"self"]


class TestMulticast:
    def test_group_members_all_receive(self):
        sim, net = make_net()
        group = GroupName("mcast.test")
        src = net.attach("src")
        got = {}
        for name in ["r1", "r2", "r3"]:
            nic = net.attach(name)
            nic.join(group)
            nic.set_receiver(lambda p, n=name: got.setdefault(n, p.payload))
        src.send(Packet(Address("src", 1), group, b"data"))
        sim.run()
        assert got == {"r1": b"data", "r2": b"data", "r3": b"data"}

    def test_multicast_counts_one_emission(self):
        sim, net = make_net()
        group = GroupName("mcast.test")
        src = net.attach("src")
        for name in ["r1", "r2", "r3", "r4"]:
            net.attach(name).join(group)
        src.send(Packet(Address("src", 1), group, b"data"))
        sim.run()
        assert net.stats.emissions.packets == 1
        assert net.stats.deliveries.packets == 4

    def test_sender_not_in_group_does_not_loop_back(self):
        sim, net = make_net()
        group = GroupName("mcast.test")
        src = net.attach("src")
        got = []
        src.set_receiver(lambda p: got.append(p))
        net.attach("r1").join(group)
        src.send(Packet(Address("src", 1), group, b"data"))
        sim.run()
        assert got == []

    def test_sender_in_group_hears_own_packets(self):
        sim, net = make_net()
        group = GroupName("mcast.test")
        src = net.attach("src")
        src.join(group)
        got = []
        src.set_receiver(lambda p: got.append(p.payload))
        src.send(Packet(Address("src", 1), group, b"data"))
        sim.run()
        assert got == [b"data"]

    def test_leave_stops_delivery(self):
        sim, net = make_net()
        group = GroupName("mcast.test")
        src, r1 = net.attach("src"), net.attach("r1")
        got = []
        r1.set_receiver(lambda p: got.append(p))
        r1.join(group)
        r1.leave(group)
        src.send(Packet(Address("src", 1), group, b"data"))
        sim.run()
        assert got == []
        assert net.stats.drops_nomember.packets == 1


class TestLossAndFaults:
    def test_total_loss_drops_everything(self):
        sim, net = make_net(loss=1.0)
        a, b = net.attach("a"), net.attach("b")
        got = []
        b.set_receiver(lambda p: got.append(p))
        for _ in range(10):
            a.send(Packet(Address("a", 1), Address("b", 2), b"x"))
        sim.run()
        assert got == []
        assert net.stats.drops_loss.packets == 10

    def test_partial_loss_is_roughly_calibrated(self):
        sim, net = make_net(loss=0.3, seed=11)
        a, b = net.attach("a"), net.attach("b")
        got = []
        b.set_receiver(lambda p: got.append(p))
        for _ in range(2000):
            a.send(Packet(Address("a", 1), Address("b", 2), b"x"))
        sim.run()
        assert 1250 < len(got) < 1550  # ~70% of 2000

    def test_down_node_receives_nothing(self):
        sim, net = make_net()
        a, b = net.attach("a"), net.attach("b")
        got = []
        b.set_receiver(lambda p: got.append(p))
        net.set_node_up("b", False)
        a.send(Packet(Address("a", 1), Address("b", 2), b"x"))
        sim.run()
        assert got == []
        net.set_node_up("b", True)
        a.send(Packet(Address("a", 1), Address("b", 2), b"y"))
        sim.run()
        assert [p.payload for p in got] == [b"y"]

    def test_down_node_cannot_send(self):
        sim, net = make_net()
        a, b = net.attach("a"), net.attach("b")
        got = []
        b.set_receiver(lambda p: got.append(p))
        net.set_node_up("a", False)
        a.send(Packet(Address("a", 1), Address("b", 2), b"x"))
        sim.run()
        assert got == []


class TestBandwidth:
    def test_serialization_delay_orders_back_to_back_sends(self):
        # 1000-byte payloads at 1 Mbit/s: (1000+42)*8 / 1e6 = ~8.3 ms each.
        sim, net = make_net(latency=0.0, bandwidth=1_000_000.0)
        a, b = net.attach("a"), net.attach("b")
        times = []
        b.set_receiver(lambda p: times.append(sim.now()))
        for _ in range(3):
            a.send(Packet(Address("a", 1), Address("b", 2), b"x" * 1000))
        sim.run()
        per_packet = (1000 + WIRE_OVERHEAD_BYTES) * 8 / 1_000_000.0
        assert times == [
            pytest.approx(per_packet),
            pytest.approx(2 * per_packet),
            pytest.approx(3 * per_packet),
        ]

    def test_infinite_bandwidth_means_no_serialization(self):
        sim, net = make_net(latency=0.0, bandwidth=0.0)
        a, b = net.attach("a"), net.attach("b")
        times = []
        b.set_receiver(lambda p: times.append(sim.now()))
        a.send(Packet(Address("a", 1), Address("b", 2), b"x" * 1000))
        sim.run()
        assert times == [0.0]


class TestLinkModels:
    def test_link_override_applies(self):
        sim, net = make_net(latency=0.001)
        a, b = net.attach("a"), net.attach("b")
        net.set_link("a", "b", LinkModel(latency=0.5, jitter=0.0, bandwidth_bps=0.0))
        times = []
        b.set_receiver(lambda p: times.append(sim.now()))
        a.send(Packet(Address("a", 1), Address("b", 2), b"x"))
        sim.run()
        assert times == [pytest.approx(0.5)]

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LinkModel(loss=1.5)
        with pytest.raises(ValueError):
            LinkModel(latency=-1)
        with pytest.raises(ValueError):
            LinkModel(mtu=0)

    def test_preset_links_are_sane(self):
        assert PERFECT_LINK.loss == 0.0
        assert RADIO_LINK.loss > 0.0
        assert RADIO_LINK.bandwidth_bps < PERFECT_LINK.mtu * 8 * 1000

    def test_deterministic_replay(self):
        def run(seed):
            sim, net = make_net(loss=0.2, seed=seed)
            a, b = net.attach("a"), net.attach("b")
            got = []
            b.set_receiver(lambda p: got.append(p.payload))
            for i in range(50):
                a.send(Packet(Address("a", 1), Address("b", 2), bytes([i])))
            sim.run()
            return got

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestTrace:
    def test_trace_records_deliveries(self):
        sim, net = make_net()
        a, b = net.attach("a"), net.attach("b")
        b.set_receiver(lambda p: None)
        trace = net.enable_trace()
        a.send(Packet(Address("a", 1), Address("b", 2), b"one"))
        a.send(Packet(Address("a", 1), Address("b", 2), b"two"))
        sim.run()
        assert [p.payload for p in trace] == [b"one", b"two"]
        assert all(p.delivered_at >= p.sent_at for p in trace)


class TestGroupMembershipSafety:
    def test_group_members_returns_a_copy(self):
        # Regression: group_members used to hand out the live set; a caller
        # mutating it corrupted membership (and now would desync the reach
        # cache as well).
        sim, net = make_net()
        a, b = net.attach("a"), net.attach("b")
        group = GroupName("mcast.var.x")
        a.join(group)
        b.join(group)
        members = net.group_members(group)
        members.clear()
        assert net.group_members(group) == {"a", "b"}

    def test_group_members_copy_is_independent_per_call(self):
        sim, net = make_net()
        net.attach("a").join(GroupName("mcast.var.x"))
        first = net.group_members(GroupName("mcast.var.x"))
        second = net.group_members(GroupName("mcast.var.x"))
        assert first == second and first is not second


class TestZones:
    def make_zoned(self, isolation=True):
        sim, net = make_net(latency=0.001)
        got = {}
        group = GroupName("mcast.control.zone-test")
        for node in ("a1", "a2", "b1", "free"):
            nic = net.attach(node)
            got[node] = []
            nic.set_receiver(lambda p, n=node: got[n].append(p.payload))
            nic.join(group)
        net.add_node_to_zone("a1", "za")
        net.add_node_to_zone("a2", "za")
        net.add_node_to_zone("b1", "zb")
        net.set_zone_isolation(isolation)
        return sim, net, got, group

    def test_isolation_scopes_multicast_to_shared_zones(self):
        sim, net, got, group = self.make_zoned()
        net.attach("a1").send(Packet(Address("a1", 1), group, b"hi"))
        sim.run()
        assert got["a2"] == [b"hi"]  # same zone
        assert got["b1"] == []  # different zone
        assert got["free"] == [b"hi"]  # unzoned hears everything

    def test_unzoned_sender_reaches_all(self):
        sim, net, got, group = self.make_zoned()
        net.attach("free").send(Packet(Address("free", 1), group, b"yo"))
        sim.run()
        assert got["a1"] == got["a2"] == got["b1"] == [b"yo"]

    def test_relay_bridges_two_zones(self):
        sim, net, got, group = self.make_zoned()
        net.add_node_to_zone("b1", "za")  # b1 becomes a relay into za
        net.attach("a1").send(Packet(Address("a1", 1), group, b"x"))
        sim.run()
        assert got["b1"] == [b"x"]
        assert net.node_zones("b1") == {"za", "zb"}

    def test_isolation_off_keeps_full_reach(self):
        sim, net, got, group = self.make_zoned(isolation=False)
        net.attach("a1").send(Packet(Address("a1", 1), group, b"hi"))
        sim.run()
        assert got["b1"] == [b"hi"]

    def test_unicast_never_zone_filtered(self):
        sim, net, got, group = self.make_zoned()
        net.attach("a1").send(Packet(Address("a1", 1), Address("b1", 2), b"uni"))
        sim.run()
        assert got["b1"] == [b"uni"]

    def test_zone_change_invalidates_reach_cache(self):
        sim, net, got, group = self.make_zoned()
        net.attach("a1").send(Packet(Address("a1", 1), group, b"one"))
        sim.run()
        assert got["b1"] == []
        net.add_node_to_zone("a1", "zb")  # now shares a zone with b1
        net.attach("a1").send(Packet(Address("a1", 1), group, b"two"))
        sim.run()
        assert got["b1"] == [b"two"]


class TestOptimizedPathParity:
    """The cached emission path (grouped deliveries, inline link draws)
    against ``SimNetwork(optimized=False)``, the per-receiver reference:
    same delivered packets in the same order at the same instants, same
    receiver callbacks and same counters."""

    @staticmethod
    def run(optimized, loss, jitter):
        sim = Simulator()
        link = LinkModel(latency=0.002, jitter=jitter, loss=loss)
        net = SimNetwork(sim, SeededRng(11), default_link=link, optimized=optimized)
        group = GroupName("mcast.var.y")
        heard = []
        for node in ("a", "b", "c", "d", "e", "f"):
            nic = net.attach(node)
            nic.set_receiver(
                lambda p, node=node: heard.append((node, p.payload, p.delivered_at))
            )
            if node != "f":
                nic.join(group)  # "a" hears its own multicast (loopback)
        # A slower, lossier link a <-> c overrides the default.
        net.set_link("a", "c", LinkModel(latency=0.004, jitter=jitter / 2,
                                         loss=min(1.0, loss * 2), bandwidth_bps=1e6))
        # a -> e: jitter wider than the latency, so some delays clamp at 0.
        net.set_link("a", "e", LinkModel(latency=jitter / 4, jitter=jitter, loss=loss),
                     symmetric=False)
        # Zones: d sits apart from a, b and c; e is unzoned.
        for node in ("a", "b", "c"):
            net.add_node_to_zone(node, "z1")
        net.add_node_to_zone("d", "z2")
        net.set_zone_isolation(True)
        trace = net.enable_trace()

        def send_round(i):
            net.attach("a").send(Packet(Address("a", 1), group, bytes([i])))
            net.attach("a").send(Packet(Address("a", 1), Address("c", 2), bytes([i])))
            net.attach("d").send(Packet(Address("d", 1), group, bytes([i, 1])))
            net.attach("b").send(Packet(Address("b", 1), Address("d", 2), bytes([i, 2])))

        for i in range(40):
            sim.schedule(i * 0.001, lambda i=i: send_round(i))
        # c goes down mid-run, with deliveries to it in flight, and returns.
        sim.schedule(0.0105, lambda: net.set_node_up("c", False))
        sim.schedule(0.0255, lambda: net.set_node_up("c", True))
        # b -> d loses everything for a while (no loss draw is made), then
        # the default link returns and draws again from the same stream.
        sim.schedule(0.0155, lambda: net.set_link("b", "d", LinkModel(loss=1.0)))
        sim.schedule(0.0305, lambda: net.set_link("b", "d", link))
        sim.run()
        packets = [
            (p.source, p.destination, p.payload, p.sent_at, p.delivered_at)
            for p in trace
        ]
        counters = dict(net.stats.snapshot())
        counters["by_node"] = {
            node: (c.packets, c.bytes)
            for node, c in sorted(net.stats.deliveries_by_node.items())
        }
        return packets, heard, counters

    def test_optimized_and_reference_traces_match(self):
        for loss in (0.0, 0.1, 1.0):
            for jitter in (0.0, 0.0005):
                case = f"loss={loss} jitter={jitter}"
                optimized = self.run(True, loss, jitter)
                assert optimized == self.run(False, loss, jitter), case
                _packets, heard, counters = optimized
                nodes = {node for node, _, _ in heard}
                assert ("a", bytes([0])) in [(n, data) for n, data, _ in heard], case
                if loss == 1.0:
                    assert nodes <= {"a", "d"}, case  # loopbacks only
                else:
                    assert nodes >= {"a", "b", "c", "d", "e"}, case
                    assert counters["drops_down"] > 0, case  # c was down a while
                assert counters["drops_loss"] > 0, case  # b -> d lost it all a while
