"""The reliable plane end to end under one wake-up per stream, per
delayed-ACK receiver and per invocation manager: every retransmission, ACK
flush and call expiry at the virtual instant the timer-per-frame / per-ACK /
per-call implementation put it, for a fraction of the ``schedule`` calls."""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService, settle, two_containers

from repro import SimRuntime
from repro.encoding import compiled
from repro.encoding.types import INT64
from repro.faults import FaultInjector
from repro.simnet.models import LinkModel
from repro.util.ids import reset_uid_counter

COALESCED = dict(
    codec="compiled", batching_enabled=True,
    ack_coalesce_delay=0.002,
)

#: (packets, sha256 over source>destination@sent/delivered:payload with the
#: instants as hex floats) — recorded from the parent commit, where every
#: frame, delayed ACK and call armed and cancelled its own timer.
LOSSY_TRACE = (
    7462,
    "6aa6ebd9d49cdd4361109e0108c035abe7dc7a10f4fd983e5fdd440f5efeeddd",
)


def _incrementer(s):
    s.provision = s.ctx.provide_function(
        "inc", lambda x: x + 1, params=[INT64], result=INT64
    )


def test_lossy_fanout_with_a_redirected_call_matches_the_recorded_trace():
    """Lossy links, coalesced ACKs (timer flushes and piggyback drains), two
    event subscribers, and a call redirected by its deadline after the
    provider crashed. Passes at the parent — the digest was recorded there:
    this is the bit-identical-instants guard, not a test of the structure.

    The links have no serialization delay on purpose. Two streams that
    retransmit at the *same* instant now do so in the order their wake-ups
    were armed, where the parent's order was that of each stream's last
    send or ACK; on a shared finite-rate uplink that order (not any instant)
    decides which datagram is clocked out first, 3 us apart.
    """
    reset_uid_counter()
    runtime = SimRuntime(seed=11, default_link=LinkModel(loss=0.15, bandwidth_bps=0))
    trace = runtime.network.enable_trace()
    pub = ProbeService("pub", lambda s: setattr(s, "evt", s.ctx.provide_event("mark", INT64)))
    a = runtime.add_container("a", **COALESCED)
    a.install_service(pub)
    subs = [ProbeService("sub", lambda s: s.watch_event("mark")) for _ in range(2)]
    for name, sub in zip(("b", "c"), subs):
        runtime.add_container(name, **COALESCED).install_service(sub)
    for name in ("p1", "p2"):
        runtime.add_container(name, **COALESCED).install_service(
            ProbeService("inc", _incrementer)
        )
    settle(runtime)
    raised = []
    burst = pub.ctx.every(
        0.0007, lambda: (pub.evt.raise_event(len(raised)), raised.append(None))
    )
    runtime.run_for(0.25)
    call = pub.call_recorded("inc", (1,), timeout=0.4)
    FaultInjector(runtime).crash_container(0.0, call.provider)
    runtime.run_for(1.5)
    burst.cancel()
    runtime.run_for(2.0)
    assert (pub.results, pub.errors, call.redirects) == ([2], [], 1)
    assert a.metrics.counter("rpc_timeouts").value == 1  # redirected by its deadline
    for sub in subs:  # exactly once, in order, through 15 % loss each way
        assert sub.events_of("mark") == list(range(len(raised)))
    digest = hashlib.sha256()
    for p in trace:
        digest.update(
            f"{p.source}>{p.destination}@{p.sent_at.hex()}/{p.delivered_at.hex()}:".encode()
        )
        digest.update(p.payload)
    assert (len(trace), digest.hexdigest()) == LOSSY_TRACE


class _RpcPair:
    """Caller on ``a``, ``inc`` provider on ``b``; the caller issues its next
    call from the result callback, as a service would."""

    def __init__(self):
        self.runtime, a, b = two_containers(**COALESCED)
        self.caller = ProbeService("caller")
        self.provider = ProbeService("inc", _incrementer)
        a.install_service(self.caller)
        b.install_service(self.provider)
        settle(self.runtime)

    def call_serially(self, count):
        results = []

        def issue():
            self.caller.ctx.call("inc", (len(results),), on_result=done)

        def done(result):
            results.append(result)
            if len(results) < count:
                issue()

        issue()
        assert self.runtime.run_until(lambda: len(results) == count, timeout=2.0)
        assert results == [i + 1 for i in range(count)]


def test_serial_calls_cost_at_most_three_timers_each():
    """All-in — batcher flushes, heartbeats and housekeeping included. Fails
    at the parent (>= 9 per call: the call's timeout, a retransmit timer per
    frame and per ACK, a delayed-ACK timer per side, most also cancelled)."""
    pair = _RpcPair()
    sim, made = pair.runtime.sim, [0]
    schedule = sim.schedule

    def counting(delay, fn):
        made[0] += 1
        return schedule(delay, fn)

    sim.schedule = counting
    pair.call_serially(100)
    assert made[0] <= 300


def test_an_rpc_builds_no_throw_away_schema():
    """Fails at the parent: both sides built a fresh args struct per call,
    each one a miss in the compiled codec's identity-keyed cache and pinned
    there until the wholesale clear evicted every live schema with it."""
    pair = _RpcPair()
    pair.call_serially(1)
    after_first = len(compiled._BY_ID)
    pair.call_serially(200)
    assert len(compiled._BY_ID) == after_first
    provision = pair.provider.provision
    assert provision.args_schema is provision.args_schema
