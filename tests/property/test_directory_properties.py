"""Property tests: the directory under arbitrary control-message sequences,
and decoder robustness against arbitrary bytes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container.directory import Directory
from repro.container.gossip import encode_zone_summary, peek_zone_summary
from repro.protocol.frames import Frame
from repro.util import ManualClock
from repro.util.errors import EncodingError, ProtocolError

_containers = st.sampled_from(["c1", "c2", "c3"])


def _announce(container, incarnation):
    return {
        "container": container,
        "node": container,
        "port": 47000,
        "incarnation": incarnation,
        "services": [],
        "variables": [],
        "events": [],
        "functions": [],
        "files": [],
    }


def _heartbeat(container, incarnation):
    return {
        "container": container,
        "node": container,
        "port": 47000,
        "incarnation": incarnation,
        "load": 0,
    }


_ops = st.lists(
    st.tuples(
        st.sampled_from(["announce", "heartbeat", "bye", "advance", "sweep"]),
        _containers,
        st.integers(1, 3),  # incarnation
        st.floats(0.0, 0.8),  # time advance
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(ops=_ops)
def test_directory_invariants_hold_under_any_sequence(ops):
    clock = ManualClock()
    directory = Directory(clock, local_container="local", liveness_timeout=1.0)
    ups, downs = [], []
    directory.on_container_up(lambda r: ups.append(r.container))
    directory.on_container_down(lambda r: downs.append(r.container))

    for op, container, incarnation, dt in ops:
        if op == "announce":
            directory.handle_announce(_announce(container, incarnation))
        elif op == "heartbeat":
            directory.handle_heartbeat(_heartbeat(container, incarnation))
        elif op == "bye":
            directory.handle_bye(container)
        elif op == "advance":
            clock.advance(dt)
        else:
            directory.check_liveness()
    directory.check_liveness()

    # Invariant 1: a live record was seen within the liveness timeout.
    for record in directory.live_containers():
        assert clock.now() - record.last_seen <= 1.0 + 1e-9
    # Invariant 2: a container can only go down after coming up, so per
    # container the down count never exceeds the up count.
    for name in ["c1", "c2", "c3"]:
        assert downs.count(name) <= ups.count(name)
        # And a record marked dead stays invisible to provider queries.
        record = directory.record(name)
        if record is not None and not record.alive:
            assert directory.address_of(name) is None
    # Invariant 3: the local container never appears.
    assert directory.record("local") is None
    assert "local" not in ups


def _moved(container, incarnation):
    """An incarnation's node: a restart may come back elsewhere."""
    return f"{container}-{incarnation % 2}"


def _summary(version, members):
    payload = encode_zone_summary({
        "zone": "zx", "origin": "relay-x", "version": version,
        "members": [
            {"container": c, "node": f"{c}-far", "port": 47000, "incarnation": 1,
             "alive": alive}
            for c, alive in members
        ],
    })
    zone, origin, version, offset = peek_zone_summary(payload)
    return zone, origin, version, payload[offset:]


_route_ops = st.lists(
    st.tuples(
        st.sampled_from(["announce", "heartbeat", "bye", "advance", "sweep", "summary"]),
        st.sampled_from(["c1", "c2", "c3", "c4"]),
        st.integers(1, 3),  # incarnation; also the summary's membership draw
        st.floats(0.0, 0.8),  # time advance
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(ops=_route_ops, strict=st.booleans())
def test_a_peer_address_follows_address_of_exactly(ops, strict):
    """What a send reads — the peer's address while its stamp matches the
    directory revision, else ``route`` — equals ``address_of`` after every
    operation: dead records, strict-staleness reads, summary routes, moves
    by announce and by heartbeat."""
    clock = ManualClock()
    directory = Directory(
        clock, local_container="local", liveness_timeout=1.0,
        strict_liveness_reads=strict,
    )
    peers = {name: directory.peer(name) for name in ["c1", "c2", "c3", "c4"]}
    version = 0
    for op, container, incarnation, dt in ops:
        if op == "announce":
            doc = _announce(container, incarnation)
            doc["node"] = _moved(container, incarnation)
            directory.handle_announce(doc)
        elif op == "heartbeat":
            doc = _heartbeat(container, incarnation)
            doc["node"] = _moved(container, incarnation)
            directory.handle_heartbeat(doc)
        elif op == "bye":
            directory.handle_bye(container)
        elif op == "advance":
            clock.advance(dt)
        elif op == "sweep":
            directory.check_liveness()
        else:
            version += 1
            members = [(c, (incarnation >> i) & 1) for i, c in enumerate(["c3", "c4"])]
            directory.apply_zone_summary(*_summary(version, members))
        for name, peer in peers.items():
            read = peer.address if peer.routed == directory.revision else directory.route(peer)
            assert read == directory.address_of(name)


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=300))
def test_frame_decode_never_crashes_unexpectedly(data):
    try:
        frame = Frame.decode(data)
    except ProtocolError:
        return  # the only acceptable failure mode
    # Anything that decodes must re-encode losslessly.
    assert Frame.decode(frame.encode()).payload == frame.payload


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=200))
def test_announce_decode_never_crashes_unexpectedly(data):
    from repro.container.records import decode_announce

    try:
        decode_announce(data)
    except EncodingError:
        pass  # malformed control payloads must fail cleanly


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=120))
def test_ack_decode_never_crashes_unexpectedly(data):
    from repro.protocol.reliability import decode_ack

    try:
        decode_ack(data)
    except ProtocolError:
        pass
