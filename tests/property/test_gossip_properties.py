"""Property tests for the fleet-scale control plane.

Three contracts, each driven by hypothesis:

1. **Zone summaries round-trip** through their wire schema.
2. **Strict liveness reads** — a strict directory never serves a record
   whose last heartbeat is older than the liveness timeout, no matter the
   input sequence (the L1 cache must not change that).
3. **Differential trace identity** — with fleet mechanisms disabled (the
   default), missions are packet-trace-identical whether the network runs
   its optimized or reference emission path, and whether the fleet config
   is defaulted or passed explicitly disabled.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container.directory import Directory
from repro.container.fleet import FleetConfig
from repro.container.gossip import decode_zone_summary, encode_zone_summary
from repro.runtime.simruntime import SimRuntime
from repro.util import ManualClock
from repro.util.ids import reset_uid_counter

# -- wire schema roundtrips ---------------------------------------------------

_members = st.lists(
    st.fixed_dictionaries(
        {
            "container": st.text(alphabet="abcdef-", min_size=1, max_size=10),
            "node": st.text(alphabet="abcdef-", min_size=1, max_size=10),
            "port": st.integers(0, 65535),
            "incarnation": st.integers(0, 2**32 - 1),
            "alive": st.sampled_from([0, 1]),
        }
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    zone=st.text(alphabet="abc", min_size=1, max_size=6),
    origin=st.text(alphabet="abc-", min_size=1, max_size=8),
    version=st.integers(1, 2**32 - 1),
    members=_members,
)
def test_zone_summary_roundtrip(zone, origin, version, members):
    doc = {"zone": zone, "origin": origin, "version": version, "members": members}
    assert decode_zone_summary(encode_zone_summary(doc)) == doc


# -- strict liveness reads ----------------------------------------------------

_strict_ops = st.lists(
    st.tuples(
        st.sampled_from(["announce", "heartbeat", "bye", "advance", "sweep"]),
        st.sampled_from(["c1", "c2", "c3"]),
        st.floats(0.0, 0.9),
    ),
    max_size=50,
)


@settings(max_examples=100, deadline=None)
@given(ops=_strict_ops)
def test_strict_reads_never_serve_stale_records(ops):
    clock = ManualClock()
    directory = Directory(
        clock,
        local_container="local",
        liveness_timeout=1.0,
        strict_liveness_reads=True,
    )
    for op, container, dt in ops:
        if op == "announce":
            directory.handle_announce(
                {
                    "container": container,
                    "node": container,
                    "port": 47000,
                    "incarnation": 1,
                    "services": [],
                    "failed_services": [],
                    "variables": [
                        {
                            "name": "v",
                            "datatype": "float64",
                            "validity": 0.0,
                            "period": 0.1,
                        }
                    ],
                    "events": [],
                    "functions": [],
                    "files": [],
                }
            )
        elif op == "heartbeat":
            directory.handle_heartbeat(
                {
                    "container": container,
                    "node": container,
                    "port": 47000,
                    "incarnation": 1,
                    "load": 0,
                    "restarts": 0,
                }
            )
        elif op == "bye":
            directory.handle_bye(container)
        elif op == "advance":
            clock.advance(dt)
        else:
            directory.check_liveness()
        now = clock.now()
        for record in directory.live_containers():
            assert now - record.last_seen <= 1.0
        for record in directory.providers_of_variable("v"):
            assert now - record.last_seen <= 1.0
        for cid in ("c1", "c2", "c3"):
            address = directory.address_of(cid)
            if address is not None:
                record = directory.record(cid)
                assert record is not None
                assert now - record.last_seen <= 1.0


# -- differential: fleet off == seed ------------------------------------------


def _trace_mission(optimized, explicit_fleet):
    reset_uid_counter()
    runtime = SimRuntime(seed=77, optimized_network=optimized)
    trace = runtime.network.enable_trace()
    for i in range(4):
        if explicit_fleet:
            runtime.add_container(f"m{i}", fleet=FleetConfig())
        else:
            runtime.add_container(f"m{i}")
    runtime.start()
    runtime.run_for(2.0)
    runtime.containers["m3"].stop()
    runtime.run_for(1.0)
    return [
        (str(p.source), str(p.destination), p.payload, p.sent_at, p.delivered_at)
        for p in trace
    ]


@settings(max_examples=4, deadline=None)
@given(
    optimized=st.booleans(),
    explicit_fleet=st.booleans(),
)
def test_disabled_fleet_is_packet_trace_identical_to_seed(
    optimized, explicit_fleet
):
    baseline = _trace_mission(optimized=True, explicit_fleet=False)
    assert _trace_mission(optimized, explicit_fleet) == baseline
