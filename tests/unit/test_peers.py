"""The peer table: one Peer per id, strangers in one LRU with one cap."""

from repro.container.directory import Directory
from repro.container.gossip import encode_zone_summary, peek_zone_summary
from repro.protocol import admission
from repro.protocol.admission import HARDENED_ADMISSION, AdmissionController
from repro.protocol.frames import Frame, MessageKind
from repro.protocol.peers import MAX_STRANGERS, Peers
from repro.util import ManualClock


class _Stream:
    closed = False

    def close(self):
        self.closed = True


def test_the_least_recently_used_stranger_goes_first_with_its_streams():
    peers = Peers()
    first, stream = peers.peer("s0"), _Stream()
    first.receiver = stream
    for i in range(1, MAX_STRANGERS):
        peers.peer(f"s{i}")
    assert peers.find("s0") is first  # used: now the most recent
    peers.peer("one-more")
    assert peers.find("s1") is None and peers.find("s0") is first
    for i in range(MAX_STRANGERS):
        peers.peer(f"t{i}")
    assert peers.find("s0") is None and first.receiver is None and stream.closed
    assert len(list(peers.peers())) == MAX_STRANGERS


def test_a_stranger_routed_by_a_summary_since_is_promoted_not_dropped():
    directory = Directory(ManualClock(), local_container="me", liveness_timeout=1.0)
    early = directory.peer("uav-far")
    assert "uav-far" not in directory.known
    payload = encode_zone_summary({
        "zone": "zx", "origin": "relay-x", "version": 1,
        "members": [{"container": "uav-far", "node": "far", "port": 47000,
                     "incarnation": 1, "alive": 1}],
    })
    zone, origin, version, offset = peek_zone_summary(payload)
    directory.apply_zone_summary(zone, origin, version, payload[offset:])
    for i in range(MAX_STRANGERS):
        directory.peer(f"x{i}")
    assert directory.known["uav-far"] is early
    assert directory.peer("known-from-the-start") is not None
    assert "known-from-the-start" not in directory.known  # nobody routes it


def test_an_evicted_address_takes_its_quarantine_with_it(monkeypatch):
    monkeypatch.setattr(admission, "QUARANTINE_THRESHOLD", 1.0)
    ctl = AdmissionController(
        clock=ManualClock(), classify=lambda kind: 1, policy=HARDENED_ADMISSION
    )
    ctl.note_malformed_address("10.0.0.9:47666")
    assert ctl.is_quarantined("@10.0.0.9:47666")
    for i in range(MAX_STRANGERS):
        ctl.note_malformed(f"forged-{i}")
    assert not ctl.is_quarantined("@10.0.0.9:47666")
    assert len(ctl.quarantined_sources()) == MAX_STRANGERS


def test_rotating_ids_behind_a_quarantined_address_cannot_age_it_out(monkeypatch):
    monkeypatch.setattr(admission, "QUARANTINE_THRESHOLD", 1.0)
    ctl = AdmissionController(
        clock=ManualClock(), classify=lambda kind: 1, policy=HARDENED_ADMISSION
    )
    ctl.note_malformed_address("10.0.0.9:47666")
    for i in range(4 * MAX_STRANGERS):
        frame = Frame(MessageKind.EVENT, f"forged-{i}", b"x")
        assert not ctl.admit(frame, address="10.0.0.9:47666")
    assert ctl.is_quarantined("@10.0.0.9:47666")
