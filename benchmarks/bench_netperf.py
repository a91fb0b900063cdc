"""Network data-plane throughput: raw sockets vs the async runtime.

Unlike the other benchmarks this one runs on the *wall clock* — it measures
the real I/O plane (UDP loopback sockets, syscalls, event loop), so virtual
time cannot stand in. Three measurements:

- **raw ceiling** — two plain UDP sockets blasting timestamped 64-byte
  datagrams through loopback with no middleware at all. This is what the
  interpreter + kernel can do with one ``sendto``/``recvfrom`` pair per
  message; no protocol stack can beat it.
- **telemetry fanout** — one best-effort float variable fanned out to
  ``SUBSCRIBERS`` containers. The classic avionics firehose: many small
  samples, no acks.
- **reliable events** — the same fanout with the acked event primitive.
- **rpc roundtrip** — one client calling an ``INT64 -> INT64`` function on
  one server, ``RPC_WIDTH`` calls in flight, each result issuing the next.

The fan-out workloads are driven closed-loop (bounded undelivered
backlog) so the plane runs at its *sustainable* rate — open-loop
overload just measures queue depth: best-effort latency tails explode and
the reliable plane degrades into retransmission pathology.

Each middleware workload runs on :class:`AsyncRuntime` with the batched
plane it was designed around — datagram batching plus coalesced ACKs,
scatter/gather ``sendmsg`` on the egress side and burst ``recvmsg_into``
draining on ingress, everything on one event-loop serialization domain
with zero cross-thread posts.

Events/sec counts *deliveries* (samples × subscribers reached); latency is
publisher ``perf_counter`` at publish to subscriber callback. Medians over
``--reps`` runs land in ``BENCH_netperf.json``. ``--smoke`` runs a small
configuration and asserts every offered message was delivered and every
call returned its argument plus one, that the reliable plane asked the loop
for at most ``MAX_SCHEDULE_CALLS_PER_DELIVERY`` timers per delivered event,
and that the loop thread made at most ``MAX_LOOP_CALLS_PER_DELIVERY``
Python-level calls per delivered telemetry sample,
``MAX_LOOP_CALLS_PER_RELIABLE_EVENT`` per delivered reliable event and
``MAX_LOOP_CALLS_PER_RPC`` per completed call — counts, so they hold on a
loaded runner (the CI gate; the PR-to-PR performance gate is
``BENCHMARK.json``'s suite under ``benchmarks/suite/``).
"""

import argparse
import contextlib
import socket
import struct
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from exphelpers import print_table, write_bench_json

from repro import AsyncRuntime
from repro.encoding.types import FLOAT64, INT64
from repro.runtime.async_runtime import LoopDomain

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import ProbeService  # noqa: E402

SUBSCRIBERS = 6
FANOUT_SAMPLES = 40_000
FANOUT_BURST = 200
FANOUT_MAX_LAG = 1_800
RELIABLE_EVENTS = 6_000
RELIABLE_BURST = 200
RELIABLE_MAX_LAG = 1_200
RPC_CALLS = 30_000
RPC_WIDTH = 16
RAW_DATAGRAMS = 50_000
SETTLE_SECONDS = 0.2
#: One wake-up per stream, per delayed-ACK receiver and per batch flush: the
#: closed loop measures 0.04-0.1. A timer per frame or per ACK is >= 1.
MAX_SCHEDULE_CALLS_PER_DELIVERY = 0.25
#: Python-level calls on the loop thread per delivered telemetry sample,
#: event loop and subscriber callback included, over one extra burst after
#: the timed run. 44.3 before the receive path resolved its per-frame work
#: at bind time, 28.7 after (both repeat exactly); the bound sits midway.
#: 24-26 since the clock read became ``time.monotonic`` itself. 16.5 (it
#: repeats exactly) once a BATCH crossed the container as runs of same-kind
#: frames; the bound sat midway again, between 24.3 and 16.5. 9.7 (it
#: repeats exactly) once a publisher's samples in a BATCH were read in place
#: with one unpack each, against 16.5-18.2 (median 17.3) when each sample was
#: a Frame whose envelope and value were decoded apart; the bound sits
#: midway between 17.3 and 9.7.
MAX_LOOP_CALLS_PER_DELIVERY = 13.5
#: The same count per delivered reliable event and per completed call, over
#: one extra burst / one extra round of calls: 69-71 and 189.6 before the
#: acknowledged plane was bound when a stream opens, 46-49 and 120.0 after
#: (per event it moves with how the wall clock batches the burst; per call
#: it repeats), 42.5-44.2 and 115.0 once a send read its peer's address
#: instead of the directory and batches were kept per peer. Each bound is
#: the top of the last range plus the margin the first one got (9.5, 35).
#: Per event 32.2-32.3 once a datagram's reliable frames crossed the
#: reliability layer as one run and an EVENT was read with one unpack,
#: against 39.6-41.0 (median 40.8) frame by frame; that bound sits midway.
MAX_LOOP_CALLS_PER_RELIABLE_EVENT = 36.5
MAX_LOOP_CALLS_PER_RPC = 150.0

#: The async plane's feature set: the schema-compiled codec (byte-identical
#: wire format, property-tested against the interpreter), batching and
#: coalesced ACKs.
ASYNC_PLANE = dict(
    codec="compiled",
    batching_enabled=True,
    ack_coalesce_delay=0.002,
)

FAST = dict(
    announce_interval=0.2,
    heartbeat_interval=0.5,
    liveness_timeout=5.0,
    housekeeping_interval=0.5,
)

_TS = struct.Struct("d")


def _stats(latencies):
    lat = sorted(latencies)
    return {
        "p50_ms": round(lat[len(lat) // 2] * 1e3, 3),
        "p99_ms": round(lat[min(len(lat) - 1, int(len(lat) * 0.99))] * 1e3, 3),
    }


# -- raw-socket ceiling --------------------------------------------------------


def raw_ceiling(n=RAW_DATAGRAMS):
    """Blast ``n`` timestamped datagrams through loopback, no middleware."""
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
    rx.bind(("127.0.0.1", 0))
    rx.settimeout(0.5)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    destination = rx.getsockname()
    payload_pad = b"x" * 56  # 8-byte timestamp + pad = 64-byte datagram
    received = []

    def drain():
        buf = bytearray(2048)
        while True:
            try:
                nbytes, _ = rx.recvfrom_into(buf)
            except socket.timeout:
                return
            received.append((time.perf_counter(), _TS.unpack_from(buf)[0]))

    drainer = threading.Thread(target=drain)
    drainer.start()
    t0 = time.perf_counter()
    send = tx.sendto
    pack = _TS.pack
    for _ in range(n):
        send(pack(time.perf_counter()) + payload_pad, destination)
    send_elapsed = time.perf_counter() - t0
    drainer.join()
    tx.close()
    rx.close()
    t_end = max(r for r, _ in received)
    return {
        "sent": n,
        "delivered": len(received),
        "send_rate_per_sec": round(n / send_elapsed),
        "events_per_sec": round(len(received) / (t_end - t0)),
        **_stats([r - s for r, s in received]),
    }


# -- middleware workloads ------------------------------------------------------


def _fanout_runtime():
    """A started 1-publisher / SUBSCRIBERS-subscriber runtime."""
    runtime = AsyncRuntime()
    pub = ProbeService("pub")
    runtime.add_container("pub", **FAST, **ASYNC_PLANE).install_service(pub)
    received = [[] for _ in range(SUBSCRIBERS)]
    probes = []
    for i in range(SUBSCRIBERS):
        probe = ProbeService(f"probe{i}")
        runtime.add_container(f"sub{i}", **FAST, **ASYNC_PLANE).install_service(probe)
        probes.append(probe)
    runtime.start()
    return runtime, pub, probes, received


def telemetry_fanout(samples=FANOUT_SAMPLES, burst=FANOUT_BURST):
    """Closed-loop best-effort variable fanout; returns delivered rate + tails."""
    runtime, pub, probes, received = _fanout_runtime()
    try:
        runtime.on_reactor(
            lambda: setattr(pub, "handle", pub.ctx.provide_variable("net.var", FLOAT64))
        )
        for i, probe in enumerate(probes):
            runtime.on_reactor(
                lambda s=probe, i=i: s.ctx.subscribe_variable(
                    "net.var",
                    on_sample=lambda v, t, i=i: received[i].append(
                        (time.perf_counter(), v)
                    ),
                )
            )
        assert runtime.run_until(
            lambda: all(
                runtime.container(f"sub{i}").directory.providers_of_variable("net.var")
                for i in range(SUBSCRIBERS)
            ),
            timeout=10.0,
        )
        time.sleep(SETTLE_SECONDS)
        subscribers = [f"sub{i}" for i in range(SUBSCRIBERS)]
        datagrams_before = _recv_datagrams(runtime, subscribers)
        t0 = time.perf_counter()
        sent = 0
        expected = 0  # deliveries still credited as in flight
        while sent < samples:
            # Pace on the undelivered backlog so the plane runs at its
            # sustainable rate. Best-effort samples may legitimately drop,
            # so a stalled backlog is written off instead of deadlocking.
            if not runtime.run_until(
                lambda: expected - sum(len(r) for r in received) < FANOUT_MAX_LAG,
                timeout=2.0,
            ):
                expected = sum(len(r) for r in received)
            n = min(burst, samples - sent)
            runtime.on_reactor(
                lambda n=n: [pub.handle.publish(time.perf_counter()) for _ in range(n)]
            )
            sent += n
            expected += n * SUBSCRIBERS
        previous = -1
        while True:  # quiesce: best-effort samples may drop under overload
            runtime.run_until(lambda: False, timeout=0.3)
            total = sum(len(r) for r in received)
            if total == previous:
                break
            previous = total
        deliveries = [entry for per_sub in received for entry in per_sub]
        t_end = max(r for r, _ in deliveries)
        datagrams = _recv_datagrams(runtime, subscribers) - datagrams_before
        # One more burst, untimed, with every call on the loop thread counted.
        with count_loop_calls(runtime) as loop_calls:
            runtime.on_reactor(
                lambda: [pub.handle.publish(time.perf_counter()) for _ in range(burst)]
            )
            runtime.run_until(
                lambda: sum(len(r) for r in received)
                >= len(deliveries) + burst * SUBSCRIBERS,
                timeout=5.0,
            )
        counted = sum(len(r) for r in received) - len(deliveries)
        return {
            "offered": samples * SUBSCRIBERS,
            "delivered": len(deliveries),
            "events_per_sec": round(len(deliveries) / (t_end - t0)),
            "datagrams_per_sec": round(datagrams / (t_end - t0)),
            "samples_per_datagram": round(len(deliveries) / max(datagrams, 1), 2),
            "loop_calls_per_delivery": round(loop_calls[0] / max(counted, 1), 1),
            **_stats([r - s for r, s in deliveries]),
        }
    finally:
        runtime.stop()


def _recv_datagrams(runtime, names):
    """Datagrams the named containers' sockets have received so far."""
    return sum(runtime.container(n)._transport._raw.recv_datagrams for n in names)


@contextlib.contextmanager
def count_loop_calls(runtime):
    """Count Python-level ``call`` events on the loop thread. The profile
    hook is per thread, so it is installed and removed from inside the
    reactor."""
    calls = [0]

    def profile(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    runtime.on_reactor(lambda: sys.setprofile(profile))
    try:
        yield calls
    finally:
        runtime.on_reactor(lambda: sys.setprofile(None))


@contextlib.contextmanager
def count_schedule_calls():
    """Count ``LoopDomain.schedule`` calls from the script side (every
    container's timers and clock are the runtime's one ``LoopDomain``)."""
    calls = [0]
    schedule = LoopDomain.schedule

    def counting(self, delay, fn):
        calls[0] += 1
        return schedule(self, delay, fn)

    LoopDomain.schedule = counting
    try:
        yield calls
    finally:
        LoopDomain.schedule = schedule


def reliable_events(events=RELIABLE_EVENTS, burst=RELIABLE_BURST):
    """Closed-loop acked event fanout; returns delivered rate + tails."""
    runtime, pub, probes, received = _fanout_runtime()
    try:
        runtime.on_reactor(
            lambda: setattr(pub, "handle", pub.ctx.provide_event("net.evt", FLOAT64))
        )
        for i, probe in enumerate(probes):
            runtime.on_reactor(
                lambda s=probe, i=i: s.ctx.subscribe_event(
                    "net.evt",
                    lambda v, t, i=i: received[i].append((time.perf_counter(), v)),
                )
            )
        assert runtime.run_until(
            lambda: len(pub.handle.subscribers) == SUBSCRIBERS, timeout=10.0
        )
        time.sleep(SETTLE_SECONDS)
        t0 = time.perf_counter()
        sent = 0
        with count_schedule_calls() as schedule_calls:
            while sent < events:
                assert runtime.run_until(
                    lambda: sent * SUBSCRIBERS - sum(len(r) for r in received)
                    < RELIABLE_MAX_LAG,
                    timeout=10.0,
                )
                n = min(burst, events - sent)
                runtime.on_reactor(
                    lambda n=n: [
                        pub.handle.raise_event(time.perf_counter()) for _ in range(n)
                    ]
                )
                sent += n
            assert runtime.run_until(
                lambda: sum(len(r) for r in received) >= events * SUBSCRIBERS,
                timeout=60.0,
            )
        deliveries = [entry for per_sub in received for entry in per_sub]
        t_end = max(r for r, _ in deliveries)
        # One more burst, untimed, with every call on the loop thread counted.
        with count_loop_calls(runtime) as loop_calls:
            runtime.on_reactor(
                lambda: [pub.handle.raise_event(time.perf_counter()) for _ in range(burst)]
            )
            assert runtime.run_until(
                lambda: sum(len(r) for r in received)
                >= len(deliveries) + burst * SUBSCRIBERS,
                timeout=10.0,
            )
        counted = sum(len(r) for r in received) - len(deliveries)
        return {
            "offered": events * SUBSCRIBERS,
            "delivered": len(deliveries),
            "events_per_sec": round(len(deliveries) / (t_end - t0)),
            "schedule_calls_per_delivery": round(schedule_calls[0] / len(deliveries), 3),
            "loop_calls_per_delivery": round(loop_calls[0] / counted, 1),
            **_stats([r - s for r, s in deliveries]),
        }
    finally:
        runtime.stop()


def rpc_roundtrip(calls=RPC_CALLS, width=RPC_WIDTH):
    """Closed-loop calls, ``width`` in flight; returns calls/s + tails."""
    runtime = AsyncRuntime()
    client, server = ProbeService("client"), ProbeService("server")
    runtime.add_container("client", **FAST, **ASYNC_PLANE).install_service(client)
    runtime.add_container("server", **FAST, **ASYNC_PLANE).install_service(server)
    runtime.start()
    done = []  # (completed at, issued at)
    wrong = [0]
    limit = [0]

    def issue(arg):
        t_call = time.perf_counter()
        client.ctx.call(
            "net.increment", (arg,),
            on_result=lambda result: finish(arg, result, t_call),
            on_error=lambda exc: wrong.__setitem__(0, wrong[0] + 1),
        )

    def finish(arg, result, t_call):
        done.append((time.perf_counter(), t_call))
        wrong[0] += result != arg + 1
        if len(done) + width <= limit[0]:
            issue(len(done) + width - 1)

    def round_of(count):
        """``count`` more calls, ``width`` in flight; waits for the last."""
        start = len(done)
        limit[0] = start + count
        runtime.on_reactor(lambda: [issue(start + i) for i in range(width)])
        assert runtime.run_until(lambda: len(done) >= start + count, timeout=60.0)

    try:
        runtime.on_reactor(
            lambda: server.ctx.provide_function(
                "net.increment", lambda x: x + 1, params=[INT64], result=INT64
            )
        )
        assert runtime.run_until(
            lambda: not runtime.on_reactor(
                lambda: client.ctx.check_required_functions(["net.increment"])
            ),
            timeout=10.0,
        )
        round_of(width * 10)  # streams open, bindings made
        first = len(done)
        t0 = time.perf_counter()
        round_of(calls)
        timed = done[first:]
        t_end = max(at for at, _ in timed)
        # One more round, untimed, with every call on the loop thread counted.
        before = len(done)
        with count_loop_calls(runtime) as loop_calls:
            round_of(min(calls, 2_000))
        return {
            "offered": calls,
            "completed": len(timed),
            "wrong": wrong[0],
            "calls_per_sec": round(len(timed) / (t_end - t0)),
            "loop_calls_per_call": round(loop_calls[0] / (len(done) - before), 1),
            **_stats([at - issued for at, issued in timed]),
        }
    finally:
        runtime.stop()


# -- orchestration -------------------------------------------------------------

WORKLOADS = ("telemetry_fanout", "reliable_events")


def _median(values):
    return sorted(values)[len(values) // 2]


def _median_by_rate(runs):
    return sorted(runs, key=lambda r: r["events_per_sec"])[len(runs) // 2]


def run_suite(reps, samples, events, raw_n, calls):
    """Medians over ``reps`` repetitions.

    Each rep measures the ceiling and both workloads back-to-back, and the
    fanout's fraction of the ceiling is computed *within* a rep before
    taking the median: shared-host noise is strongly time-correlated, so
    paired measurements give a far more stable ratio than dividing two
    independently-taken medians. The fraction compares like with like:
    datagrams the subscribers' sockets received per second over the raw
    pair's datagrams per second. Batching moves samples per datagram, which
    is reported beside it, not the fraction.
    """
    rep_data = [
        {
            "raw_ceiling": raw_ceiling(raw_n),
            "telemetry_fanout": telemetry_fanout(samples),
            "reliable_events": reliable_events(events),
            "rpc_roundtrip": rpc_roundtrip(calls),
        }
        for _ in range(reps)
    ]
    results = {"raw_ceiling": _median_by_rate([r["raw_ceiling"] for r in rep_data])}
    for workload in WORKLOADS:
        results[workload] = {"async": _median_by_rate([r[workload] for r in rep_data])}
    results["rpc_roundtrip"] = {
        "async": sorted(
            (r["rpc_roundtrip"] for r in rep_data), key=lambda r: r["calls_per_sec"]
        )[reps // 2]
    }
    results["telemetry_fanout"]["ceiling_fraction"] = round(
        _median(
            [
                r["telemetry_fanout"]["datagrams_per_sec"]
                / r["raw_ceiling"]["events_per_sec"]
                for r in rep_data
            ]
        ),
        3,
    )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small run asserting delivered == offered; writes no JSON",
    )
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--no-json", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        reps, samples, events, raw_n, calls = 1, 2_000, 1_000, 10_000, 3_000
    else:
        reps, samples, events, raw_n, calls = (
            args.reps, FANOUT_SAMPLES, RELIABLE_EVENTS, RAW_DATAGRAMS, RPC_CALLS
        )

    results = run_suite(reps, samples, events, raw_n, calls)

    ceiling = results["raw_ceiling"]
    rows = [["raw ceiling", ceiling["events_per_sec"], ceiling["p50_ms"], ceiling["p99_ms"]]]
    for workload in WORKLOADS:
        r = results[workload]["async"]
        rows.append([f"{workload}/async", r["events_per_sec"], r["p50_ms"], r["p99_ms"]])
    rpc = results["rpc_roundtrip"]["async"]
    rows.append([f"rpc_roundtrip/async (calls, {RPC_WIDTH} wide)", rpc["calls_per_sec"],
                 rpc["p50_ms"], rpc["p99_ms"]])
    print_table(
        "netperf: events/sec and latency tails",
        ["configuration", "events/sec", "p50 ms", "p99 ms"],
        rows,
    )
    fraction = results["telemetry_fanout"]["ceiling_fraction"]
    per_datagram = results["telemetry_fanout"]["async"]["samples_per_datagram"]
    print(
        f"\ntelemetry_fanout ceiling_fraction (subscriber datagrams/s over raw "
        f"datagrams/s, same run): {fraction}, {per_datagram} samples per datagram"
    )
    timers = results["reliable_events"]["async"]["schedule_calls_per_delivery"]
    print(f"reliable_events LoopDomain.schedule calls per delivered event: {timers}")
    loop_calls = results["telemetry_fanout"]["async"]["loop_calls_per_delivery"]
    print(f"telemetry_fanout Python calls on the loop thread per delivered sample: {loop_calls}")
    event_calls = results["reliable_events"]["async"]["loop_calls_per_delivery"]
    print(f"reliable_events Python calls on the loop thread per delivered event: {event_calls}")
    rpc_calls = rpc["loop_calls_per_call"]
    print(f"rpc_roundtrip Python calls on the loop thread per completed call: {rpc_calls}")

    if args.smoke:
        for workload in WORKLOADS:
            r = results[workload]["async"]
            assert r["delivered"] == r["offered"], (
                f"{workload}: delivered {r['delivered']} of {r['offered']} offered"
            )
        assert rpc["completed"] == rpc["offered"] and rpc["wrong"] == 0, (
            f"rpc_roundtrip: {rpc['completed']} of {rpc['offered']} calls completed, "
            f"{rpc['wrong']} wrong or failed"
        )
        assert timers <= MAX_SCHEDULE_CALLS_PER_DELIVERY, (
            f"reliable_events: {timers} schedule calls per delivered event "
            f"(limit {MAX_SCHEDULE_CALLS_PER_DELIVERY}): a timer per frame or per ACK is back"
        )
        assert loop_calls <= MAX_LOOP_CALLS_PER_DELIVERY, (
            f"telemetry_fanout: {loop_calls} Python calls per delivered sample "
            f"(limit {MAX_LOOP_CALLS_PER_DELIVERY}): per-frame lookups or wrappers are back"
        )
        assert event_calls <= MAX_LOOP_CALLS_PER_RELIABLE_EVENT, (
            f"reliable_events: {event_calls} Python calls per delivered event "
            f"(limit {MAX_LOOP_CALLS_PER_RELIABLE_EVENT}): per-frame stream work is back"
        )
        assert rpc_calls <= MAX_LOOP_CALLS_PER_RPC, (
            f"rpc_roundtrip: {rpc_calls} Python calls per completed call "
            f"(limit {MAX_LOOP_CALLS_PER_RPC}): per-call or per-frame work is back"
        )
        print(
            "smoke OK: delivered == offered, every call answered, timers per event "
            "and calls per sample, per event and per call in bound"
        )
        return results

    if not args.no_json:
        results["meta"] = {
            "subscribers": SUBSCRIBERS,
            "reps": reps,
            "fanout_samples": samples,
            "reliable_events": events,
            "rpc_calls": calls,
            "rpc_width": RPC_WIDTH,
            "raw_datagrams": raw_n,
            "async_plane": ASYNC_PLANE,
        }
        path = write_bench_json("netperf", results)
        print(f"\nwrote {path}")
    return results


if __name__ == "__main__":
    main()
