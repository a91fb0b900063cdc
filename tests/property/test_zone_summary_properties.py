"""Property tests for zone summaries held in wire form.

A receiver peeks ``zone, origin, version`` off the front of a ZONE_SUMMARY
payload and decodes the members only when their bytes differ from the copy
it already holds. Three contracts:

1. **The peek is the full decode's header.** For any summary document the
   peeked fields equal the decoded ones and the offset is where the member
   vector starts; a payload cut inside the header fails the peek with the
   same ``EncodingError`` the full decode raises.
2. **Nothing undecodable is ever held.** Whatever arrives as a ZONE_SUMMARY
   frame — truncated, bit-flipped, garbage — either the sender is scored as
   malformed or the directory holds exactly what applying the decoded
   document implies, and every later read works.
3. **Duplicates cost a peek.** Same-version and older-version copies are
   dropped before any member is decoded.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container import directory as directory_module
from repro.container import gossip
from repro.container.fleet import FleetConfig
from repro.container.gossip import (
    SUMMARY_MEMBER_SCHEMA,
    ZONE_SUMMARY_SCHEMA,
    decode_summary_members,
    decode_zone_summary,
    encode_zone_summary,
    peek_zone_summary,
)
from repro.encoding.binary import BinaryCodec
from repro.encoding.types import StructType, VectorType
from repro.protocol.frames import Frame, MessageKind
from repro.runtime.simruntime import SimRuntime
from repro.transport.addressing import Address
from repro.util.errors import EncodingError

#: The interpreted codec is the reference the compiled peek is held to.
REFERENCE = BinaryCodec()
HEADER = StructType("Header", ZONE_SUMMARY_SCHEMA.fields[:3])
MEMBERS = VectorType(SUMMARY_MEMBER_SCHEMA)

OWN_ZONE = "za"
SENDER = "relay-x"
CONTAINERS = ["u1", "u2", "u3", "relay-a"]  # "relay-a" is the receiver itself

_members = st.lists(
    st.fixed_dictionaries(
        {
            "container": st.sampled_from(CONTAINERS),
            "node": st.sampled_from(["n1", "n2"]),
            "port": st.integers(0, 65535),
            "incarnation": st.integers(0, 3),
            "alive": st.sampled_from([0, 1]),
        }
    ),
    max_size=4,
)

#: Few zones, origins and versions, so sequences hit refreshes, stale
#: versions, competing publishers and the receiver's own zone.
_docs = st.fixed_dictionaries(
    {
        "zone": st.sampled_from(["zb", "zc", OWN_ZONE]),
        "origin": st.sampled_from(["relay-b", "relay-c"]),
        "version": st.integers(1, 4),
        "members": _members,
    }
)

_mutations = st.one_of(
    st.none(),
    st.tuples(st.just("truncate"), st.integers(0, 400)),
    st.tuples(st.just("flip"), st.integers(0, 400), st.integers(1, 255)),
    st.tuples(st.just("garbage"), st.binary(max_size=40)),
)


def mutate(payload, mutation):
    if mutation is None:
        return payload
    if mutation[0] == "garbage":
        return mutation[1]
    at = mutation[1] % len(payload)
    if mutation[0] == "truncate":
        return payload[:at]
    return payload[:at] + bytes([payload[at] ^ mutation[2]]) + payload[at + 1 :]


# -- 1. the peek ---------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    zone=st.text(max_size=8),
    origin=st.text(max_size=8),
    version=st.integers(0, 2**32 - 1),
    members=_members,
    cut=st.integers(0, 400),
)
def test_peek_equals_the_full_decode_and_finds_the_member_vector(
    zone, origin, version, members, cut
):
    doc = {"zone": zone, "origin": origin, "version": version, "members": members}
    payload = encode_zone_summary(doc)
    *header, offset = peek_zone_summary(payload)
    decoded = decode_zone_summary(payload)
    assert tuple(header) == (decoded["zone"], decoded["origin"], decoded["version"])
    assert payload[offset:] == REFERENCE.encode(MEMBERS, members)
    assert decode_summary_members(payload[offset:]) == decoded["members"]
    # Cut inside the header: the peek refuses it like the full decode does.
    short = payload[: cut % offset]
    with pytest.raises(EncodingError):
        peek_zone_summary(short)
    with pytest.raises(EncodingError):
        decode_zone_summary(short)


# -- 2. what may be retained -----------------------------------------------------


def build_receiver():
    """A started relay of OWN_ZONE with its forwards and malformed-sender
    scores observable."""
    runtime = SimRuntime(seed=3, zone_isolation=True)
    container = runtime.add_container(
        "relay-a", fleet=FleetConfig(zone=OWN_ZONE, role="relay")
    )
    runtime.start()
    forwarded = []
    send_group = container.send_group

    def tap(group, frame):
        if frame.kind == MessageKind.ZONE_SUMMARY:
            forwarded.append(frame.payload)
        send_group(group, frame)

    container.send_group = tap
    return container, forwarded


def deliver(container, payload):
    """-> True when the container scored SENDER for a malformed frame."""
    before = container.metrics.counter_value("malformed_frames", source=SENDER)
    container._on_frame(
        Frame(kind=MessageKind.ZONE_SUMMARY, source=SENDER, payload=payload),
        Address(SENDER, 47000),
    )
    return container.metrics.counter_value("malformed_frames", source=SENDER) > before


class Model:
    """What the receiver must end up holding, from the reference codec and
    full decodes only: a document is applied when its header reads, names a
    foreign zone and a version not yet applied for its (zone, origin), and
    the whole payload decodes; it replaces the zone's view when its
    (version, origin) orders after the held one."""

    def __init__(self):
        self.applied = {}
        self.zones = {}

    def offer(self, payload):
        """-> "malformed" | "dropped" | "applied"."""
        try:
            header, _ = REFERENCE.decode_prefix(HEADER, payload)
        except EncodingError:
            return "malformed"
        key = (header["zone"], header["origin"])
        if header["zone"] == OWN_ZONE or header["version"] <= self.applied.get(key, 0):
            return "dropped"
        try:
            doc = REFERENCE.decode(ZONE_SUMMARY_SCHEMA, payload)
        except EncodingError:
            return "malformed"
        self.applied[key] = doc["version"]
        held = self.zones.get(doc["zone"])
        if held is None or (doc["version"], doc["origin"]) > (
            held["version"],
            held["origin"],
        ):
            self.zones[doc["zone"]] = doc
        return "applied"

    def addresses(self, local):
        table = {}
        for doc in self.zones.values():
            for member in doc["members"]:
                if member["alive"] and member["container"] != local:
                    table[member["container"]] = Address(member["node"], member["port"])
        return table


@settings(max_examples=150, deadline=None)
@given(arrivals=st.lists(st.tuples(_docs, _mutations), min_size=1, max_size=8))
def test_malformed_summaries_are_scored_or_the_directory_holds_the_decoded_document(
    arrivals,
):
    container, forwarded = build_receiver()
    directory = container.directory
    model = Model()
    for doc, mutation in arrivals:
        payload = mutate(encode_zone_summary(doc), mutation)
        scored = deliver(container, payload)
        assert scored == (model.offer(payload) == "malformed")
        # Every read works on whatever is held, and says what the model says
        # (which a malformed or dropped arrival leaves as it was).
        assert directory.zone_summaries == model.zones
        assert directory.known_zones() == sorted(model.zones)
        addresses = model.addresses(container.id)
        for cid in CONTAINERS:
            assert directory.summary_address_of(cid) == addresses.get(cid)
            assert directory.address_of(cid) == addresses.get(cid)
    # Nothing was relayed into the zone that does not pass the full decode.
    for payload in forwarded:
        decode_zone_summary(payload)


# -- 3. duplicates ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    first=_docs.filter(lambda d: d["zone"] != OWN_ZONE),
    older_by=st.integers(0, 3),
    other_members=_members,
    mutation=_mutations.filter(lambda m: m is None or m[0] != "garbage"),
)
def test_same_version_and_older_version_duplicates_are_dropped_after_the_peek_without_a_member_decode(
    first, older_by, other_members, mutation
):
    container, forwarded = build_receiver()
    assert not deliver(container, encode_zone_summary(first))
    held = container.directory.zone_summaries
    relayed = list(forwarded)

    duplicate = dict(
        first, version=max(0, first["version"] - older_by), members=other_members
    )
    payload = encode_zone_summary(duplicate)
    # Damage the member section only: the header must still read.
    offset = peek_zone_summary(payload)[3]
    payload = payload[:offset] + mutate(payload[offset:], mutation)

    calls = []
    with mock.patch.object(gossip, "decode_zone_summary", calls.append), \
            mock.patch.object(directory_module, "decode_summary_members", calls.append):
        scored = deliver(container, payload)
    assert calls == [] and not scored
    assert container.directory.zone_summaries == held
    assert forwarded == relayed
