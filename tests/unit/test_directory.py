"""Unit tests for the name-management directory (§3)."""

import pytest

from repro.container.directory import Directory
from repro.container.gossip import decode_zone_summary, encode_zone_summary, peek_zone_summary
from repro.container.records import (
    decode_announce,
    decode_bye,
    decode_heartbeat,
    encode_announce,
    encode_bye,
    encode_heartbeat,
)
from repro.transport.addressing import Address
from repro.util import ManualClock
from repro.util.errors import ProtocolError


def announce_doc(container="remote", node="n1", port=47000, incarnation=1, **kw):
    doc = {
        "container": container,
        "node": node,
        "port": port,
        "incarnation": incarnation,
        "services": ["svc"],
        "failed_services": [],
        "variables": [],
        "events": [],
        "functions": [],
        "files": [],
    }
    doc.update(kw)
    return doc


def heartbeat_doc(container="remote", node="n1", port=47000, incarnation=1, load=0,
                  restarts=0):
    return {
        "container": container,
        "node": node,
        "port": port,
        "incarnation": incarnation,
        "load": load,
        "restarts": restarts,
    }


@pytest.fixture
def setup():
    clock = ManualClock()
    directory = Directory(clock, local_container="local", liveness_timeout=1.0)
    return clock, directory


class TestControlPlaneCodecs:
    def test_announce_round_trip(self):
        doc = announce_doc(
            variables=[{"name": "v", "datatype": "float64", "validity": 1.0, "period": 0.1}],
            events=[{"name": "e", "datatype": ""}],
            functions=[{"name": "f", "params": ["int32"], "result": "int32"}],
            files=[{"name": "r", "revision": 2, "size": 100, "chunk_size": 64}],
        )
        assert decode_announce(encode_announce(doc)) == doc

    def test_heartbeat_round_trip(self):
        doc = heartbeat_doc(load=17)
        assert decode_heartbeat(encode_heartbeat(doc)) == doc

    def test_bye_round_trip(self):
        assert decode_bye(encode_bye("c9")) == "c9"

    def test_an_empty_node_id_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="empty node id"):
            decode_announce(encode_announce(announce_doc(node="")))
        with pytest.raises(ProtocolError, match="empty node id"):
            decode_heartbeat(encode_heartbeat(heartbeat_doc(node="")))


class TestAnnounceHandling:
    def test_first_announce_fires_up(self, setup):
        clock, directory = setup
        ups = []
        directory.on_container_up(lambda r: ups.append(r.container))
        directory.handle_announce(announce_doc())
        assert ups == ["remote"]
        assert directory.address_of("remote") == Address("n1", 47000)

    def test_own_announce_ignored(self, setup):
        _, directory = setup
        assert directory.handle_announce(announce_doc(container="local")) is None
        assert directory.record("local") is None

    def test_repeat_announce_is_quiet(self, setup):
        _, directory = setup
        ups, changes = [], []
        directory.on_container_up(lambda r: ups.append(r.container))
        directory.on_offers_changed(lambda r: changes.append(r.container))
        directory.handle_announce(announce_doc())
        directory.handle_announce(announce_doc())
        assert ups == ["remote"]
        assert changes == []

    def test_offer_change_fires_changed(self, setup):
        _, directory = setup
        changes = []
        directory.on_offers_changed(lambda r: changes.append(r.container))
        directory.handle_announce(announce_doc())
        directory.handle_announce(
            announce_doc(events=[{"name": "new.evt", "datatype": ""}])
        )
        assert changes == ["remote"]

    def test_incarnation_change_fires_restart(self, setup):
        _, directory = setup
        restarts = []
        directory.on_container_restart(lambda r: restarts.append(r.incarnation))
        directory.handle_announce(announce_doc(incarnation=1))
        directory.handle_announce(announce_doc(incarnation=2))
        assert restarts == [2]


class TestHeartbeatHandling:
    def test_heartbeat_refreshes_last_seen(self, setup):
        clock, directory = setup
        directory.handle_announce(announce_doc())
        clock.advance(0.9)
        directory.handle_heartbeat(heartbeat_doc(load=3))
        assert directory.check_liveness() == []
        assert directory.record("remote").load == 3

    def test_heartbeat_before_announce_creates_minimal_record(self, setup):
        _, directory = setup
        ups = []
        directory.on_container_up(lambda r: ups.append(r.container))
        directory.handle_heartbeat(heartbeat_doc())
        assert ups == ["remote"]
        assert directory.record("remote").events == {}

    def test_heartbeat_incarnation_change_fires_restart(self, setup):
        _, directory = setup
        restarts = []
        directory.on_container_restart(lambda r: restarts.append(r.incarnation))
        directory.handle_announce(announce_doc(incarnation=1))
        directory.handle_heartbeat(heartbeat_doc(incarnation=2))
        assert restarts == [2]


class TestFailureDetection:
    def test_liveness_timeout_marks_dead(self, setup):
        clock, directory = setup
        downs = []
        directory.on_container_down(lambda r: downs.append(r.container))
        directory.handle_announce(announce_doc())
        clock.advance(1.5)
        dead = directory.check_liveness()
        assert [r.container for r in dead] == ["remote"]
        assert downs == ["remote"]
        assert directory.address_of("remote") is None

    def test_down_fires_once(self, setup):
        clock, directory = setup
        downs = []
        directory.on_container_down(lambda r: downs.append(r.container))
        directory.handle_announce(announce_doc())
        clock.advance(2.0)
        directory.check_liveness()
        clock.advance(2.0)
        directory.check_liveness()
        assert downs == ["remote"]

    def test_bye_marks_dead_immediately(self, setup):
        _, directory = setup
        downs = []
        directory.on_container_down(lambda r: downs.append(r.container))
        directory.handle_announce(announce_doc())
        directory.handle_bye("remote")
        assert downs == ["remote"]

    def test_stale_heartbeat_after_bye_ignored(self, setup):
        _, directory = setup
        directory.handle_announce(announce_doc())
        directory.handle_bye("remote")
        directory.handle_heartbeat(heartbeat_doc())  # same incarnation
        assert not directory.record("remote").alive

    def test_fresh_announce_after_bye_revives(self, setup):
        _, directory = setup
        ups = []
        directory.on_container_up(lambda r: ups.append(r.container))
        directory.handle_announce(announce_doc())
        directory.handle_bye("remote")
        directory.handle_announce(announce_doc())
        assert ups == ["remote", "remote"]
        assert directory.record("remote").alive


class TestProviderQueries:
    def test_providers_filtered_by_offer_and_liveness(self, setup):
        clock, directory = setup
        directory.handle_announce(
            announce_doc(
                container="p1",
                variables=[{"name": "v", "datatype": "float64", "validity": 0.0, "period": 0.0}],
                events=[{"name": "e", "datatype": ""}],
                functions=[{"name": "f", "params": [], "result": ""}],
                files=[{"name": "r", "revision": 1, "size": 0, "chunk_size": 1}],
            )
        )
        directory.handle_announce(announce_doc(container="p2"))
        assert [r.container for r in directory.providers_of_variable("v")] == ["p1"]
        assert [r.container for r in directory.providers_of_event("e")] == ["p1"]
        assert [r.container for r in directory.providers_of_function("f")] == ["p1"]
        assert [r.container for r in directory.providers_of_file("r")] == ["p1"]
        directory.handle_bye("p1")
        assert directory.providers_of_variable("v") == []

    def test_live_containers_sorted(self, setup):
        _, directory = setup
        for name in ["zeta", "alpha", "mid"]:
            directory.handle_announce(announce_doc(container=name))
        assert [r.container for r in directory.live_containers()] == [
            "alpha",
            "mid",
            "zeta",
        ]


class TestDeterministicOrderAndIndexes:
    def test_live_containers_sorted_by_id(self, setup):
        clock, directory = setup
        for name in ("zulu", "alpha", "mike", "bravo"):
            directory.handle_announce(announce_doc(container=name, node=name))
        names = [r.container for r in directory.live_containers()]
        assert names == ["alpha", "bravo", "mike", "zulu"]
        # Repeat reads (now served from the L1 cache) keep the order.
        assert [r.container for r in directory.live_containers()] == names

    def test_live_cache_invalidated_by_every_mutation(self, setup):
        clock, directory = setup
        directory.handle_announce(announce_doc(container="a", node="na"))
        directory.handle_announce(announce_doc(container="b", node="nb"))
        assert len(directory.live_containers()) == 2
        directory.handle_bye("a")
        assert [r.container for r in directory.live_containers()] == ["b"]
        # Re-announce replaces the record object; the cache must not hold
        # the stale one.
        directory.handle_announce(
            announce_doc(container="b", node="nb", services=["other"])
        )
        assert directory.live_containers()[0].services == ["other"]

    def test_providers_cache_tracks_offer_changes(self, setup):
        clock, directory = setup
        var = {"name": "gps", "datatype": "float64", "validity": 0.0, "period": 0.1}
        directory.handle_announce(announce_doc(container="a", node="na",
                                               variables=[var]))
        assert [r.container for r in directory.providers_of_variable("gps")] == ["a"]
        directory.handle_announce(announce_doc(container="a", node="na",
                                               variables=[]))
        assert directory.providers_of_variable("gps") == []

    @staticmethod
    def address(directory, peer):
        """A send's read of the peer's address (``ServiceContainer``)."""
        if peer.routed == directory.revision:
            return peer.address
        return directory.route(peer)

    def test_peer_route_follows_an_address_change(self, setup):
        clock, directory = setup
        directory.handle_announce(announce_doc(container="a", node="n1"))
        peer = directory.peer("a")
        assert self.address(directory, peer) == Address("n1", 47000)
        assert peer.routed == directory.revision  # held until the next change
        # The container moves nodes, by announce and then by heartbeat (a
        # restart seen before its announce): the old address stops at once.
        directory.handle_announce(announce_doc(container="a", node="n2",
                                               incarnation=2))
        assert self.address(directory, peer) == Address("n2", 47000)
        directory.handle_heartbeat(heartbeat_doc(container="a", node="n3",
                                                 incarnation=3))
        assert self.address(directory, peer) == Address("n3", 47000)
        assert directory.peer("a") is peer

    def test_peer_route_of_a_dead_record_is_none(self, setup):
        clock, directory = setup
        directory.handle_announce(announce_doc(container="a", node="n1"))
        peer = directory.peer("a")
        assert self.address(directory, peer) == Address("n1", 47000)
        directory.handle_bye("a")
        assert self.address(directory, peer) is None
        assert directory.known["a"] is peer  # a dead record still knows it


class TestStrictLivenessReads:
    @pytest.fixture
    def strict(self):
        clock = ManualClock()
        directory = Directory(clock, local_container="local",
                              liveness_timeout=1.0, strict_liveness_reads=True)
        return clock, directory

    def test_reads_never_serve_past_timeout(self, strict):
        clock, directory = strict
        var = {"name": "gps", "datatype": "float64", "validity": 0.0, "period": 0.1}
        directory.handle_announce(announce_doc(variables=[var]))
        assert directory.address_of("remote") is not None
        # Time passes; no heartbeat, and crucially no housekeeping sweep.
        clock.advance(1.5)
        assert directory.address_of("remote") is None
        assert directory.live_containers() == []
        assert directory.providers_of_variable("gps") == []
        # The record itself still exists (the sweep owns the down callback).
        assert directory.record("remote") is not None

    def test_heartbeat_revives_strict_reads(self, strict):
        clock, directory = strict
        directory.handle_announce(announce_doc())
        clock.advance(1.5)
        assert directory.address_of("remote") is None
        directory.handle_heartbeat(heartbeat_doc())
        assert directory.address_of("remote") == Address("n1", 47000)

    def test_default_mode_trusts_the_sweep(self, setup):
        clock, directory = setup
        directory.handle_announce(announce_doc())
        clock.advance(5.0)
        # Seed behavior: between sweeps, reads still serve the record.
        assert directory.address_of("remote") is not None
        directory.check_liveness()
        assert directory.address_of("remote") is None


class TestZoneSummaries:
    def summary(self, zone="zb", origin="relay-b", version=1, members=()):
        return {
            "zone": zone,
            "origin": origin,
            "version": version,
            "members": list(members),
        }

    def member(self, container, node=None, port=47000, alive=1):
        return {
            "container": container,
            "node": node or container,
            "port": port,
            "incarnation": 1,
            "alive": alive,
        }

    def apply(self, directory, **summary):
        """Hand the directory a summary the way the coordinator does: the
        peeked header fields plus the member section still in wire form."""
        payload = encode_zone_summary(self.summary(**summary))
        zone, origin, version, offset = peek_zone_summary(payload)
        return directory.apply_zone_summary(zone, origin, version, payload[offset:])

    def test_an_alive_member_with_an_empty_node_id_is_malformed(self):
        # Stored, it would make address_of() raise for every well-formed member.
        good = self.member("good")
        bad = dict(self.member("bad"), node="")
        with pytest.raises(ProtocolError, match="empty node id"):
            decode_zone_summary(encode_zone_summary(self.summary(members=[good, bad])))
        dead = dict(bad, alive=0)  # never becomes an address
        document = decode_zone_summary(encode_zone_summary(self.summary(members=[good, dead])))
        assert document["members"] == [good, dead]

    def test_apply_and_address_fallback(self, setup):
        clock, directory = setup
        assert self.apply(directory, members=[self.member("uav-b1")])
        assert directory.known_zones() == ["zb"]
        # No full record, but the summary still routes.
        assert directory.record("uav-b1") is None
        assert directory.address_of("uav-b1") == Address("uav-b1", 47000)

    def test_stale_versions_rejected(self, setup):
        clock, directory = setup
        assert self.apply(directory, version=3, members=[self.member("uav-b1")])
        assert not self.apply(directory, version=2, members=[self.member("uav-b2")])
        assert directory.address_of("uav-b2") is None

    def test_newer_summary_replaces_membership(self, setup):
        clock, directory = setup
        self.apply(directory, version=1, members=[self.member("uav-b1")])
        self.apply(directory, version=2, members=[self.member("uav-b2")])
        assert directory.address_of("uav-b1") is None
        assert directory.address_of("uav-b2") is not None

    def test_dead_members_do_not_route(self, setup):
        clock, directory = setup
        self.apply(directory, members=[self.member("uav-b1", alive=0)])
        assert directory.address_of("uav-b1") is None

    def test_full_record_wins_over_summary(self, setup):
        clock, directory = setup
        self.apply(directory, members=[self.member("remote", node="wrong")])
        directory.handle_announce(announce_doc())
        assert directory.address_of("remote") == Address("n1", 47000)

    def test_same_membership_refresh_keeps_the_built_index(self, setup):
        clock, directory = setup
        self.apply(directory, version=1, members=[self.member("uav-b1")])
        assert directory._summary_index is None  # nobody has asked yet
        assert directory.summary_address_of("uav-b1") == Address("uav-b1", 47000)
        index = directory._summary_index
        assert self.apply(directory, version=2, members=[self.member("uav-b1")])
        assert directory._summary_index is index
        assert directory.zone_summaries["zb"]["version"] == 2

    def test_membership_change_drops_the_index(self, setup):
        clock, directory = setup
        self.apply(directory, version=1, members=[self.member("uav-b1")])
        self.apply(directory, zone="zc", origin="relay-c", members=[self.member("uav-c1")])
        assert directory.address_of("uav-c1") is not None
        self.apply(
            directory, version=2, members=[self.member("uav-b1"), self.member("uav-b2")]
        )
        assert directory._summary_index is None
        # Rebuilt on the next cross-zone lookup, over every held zone.
        assert directory.address_of("uav-b2") == Address("uav-b2", 47000)
        assert directory.address_of("uav-c1") == Address("uav-c1", 47000)

    def test_zone_summaries_read_decodes_on_demand_into_fresh_documents(self, setup):
        clock, directory = setup
        doc = self.summary(members=[self.member("uav-b1")])
        self.apply(directory, members=doc["members"])
        first = directory.zone_summaries
        assert first == {"zb": doc}
        first["zb"]["members"].clear()
        del first["zb"]
        assert directory.zone_summaries == {"zb": doc}
        assert directory.address_of("uav-b1") == Address("uav-b1", 47000)
