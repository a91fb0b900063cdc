"""The five workloads. Each stresses a different set of layers (README.md
gives the reasons) and checks its own outputs.

``worker.py`` drives a workload object like this::

    w.build()            # timed: runtime construction -> first delivery
    w.warm_up(1.0)       # unmeasured, same runtime
    for phase, share in w.PHASES:
        w.run_phase(phase, seconds * share)
    w.close()

All load is generated from the calling (main) thread; container state is
touched only through ``runtime.on_reactor``.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from array import array
from time import perf_counter

from repro import AsyncRuntime, Service, SimRuntime
from repro.container.fleet import FleetConfig
from repro.encoding.types import FLOAT64, INT64, StructType

from calibration import Stretches, cpu_factor
from conditions import container_config

#: An operation not completed this long after its phase ends has failed.
COMPLETION_GRACE_S = 5.0
#: Open-loop generator tick.
TICK_S = 0.001
#: Rates and percentiles are taken per window, and the best decile of the
#: windows is reported: a window in which the host took the CPU away, or ran
#: it slow, reads worse and never better, so the best windows are the
#: program's own. A window is this long, or as long as it takes to hold
#: WINDOW_SAMPLES latencies.
WINDOW_S = 0.25
WINDOW_SAMPLES = 200
#: CPU-bound phases are cut into stretches this long, each corrected for the
#: CPU speed measured around it (``calibration.py``).
STRETCH_S = 0.05


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list (NaN when empty)."""
    if not ordered:
        return float("nan")
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


class Stamped:
    """Latency samples with their completion instants, kept in two flat
    arrays so that half a million of them do not show in the peak RSS."""

    def __init__(self):
        self.instants = array("d")
        self.latencies = array("d")

    def add(self, instant, latency):
        self.instants.append(instant)
        self.latencies.append(latency)


#: Percentiles are taken over at most about this many values, sampled
#: systematically in time order: sorting half a million floats would add
#: 30 MB to the peak RSS this harness reports.
SUMMARY_SAMPLES = 100_000


def latency_summary(stamped):
    """p50 and p99 are each the lower decile over windows of that window's
    own percentile (first and last, partial, windows dropped; the whole
    sample when it spans fewer than three windows; the best window when
    there are fewer than ten)."""
    step = max(1, len(stamped.latencies) // SUMMARY_SAMPLES)
    latencies = stamped.latencies[::step]
    instants = stamped.instants[::step]
    ordered = sorted(latencies)
    width = WINDOW_S
    if len(instants) > 1:
        width = max(width, (instants[-1] - instants[0]) * WINDOW_SAMPLES / len(instants))
    windows = {}
    for instant, latency in zip(instants, latencies):
        windows.setdefault(int(instant / width), []).append(latency)
    full = [sorted(w) for w in list(windows.values())[1:-1]] or [ordered]
    return {
        "p50_ms": percentile(sorted(percentile(w, 0.50) for w in full), 0.1) * 1e3,
        "p99_ms": percentile(sorted(percentile(w, 0.99) for w in full), 0.1) * 1e3,
        "p50_all_ms": percentile(ordered, 0.50) * 1e3,
        "p99_all_ms": percentile(ordered, 0.99) * 1e3,
        "max_ms": (max(stamped.latencies) if ordered else float("nan")) * 1e3,
        "samples": len(stamped.latencies),
        "windows": len(full),
        "window_s": width,
    }


def window_rate(marks):
    """Upper decile of the rates between consecutive (instant, count) marks."""
    rates = sorted(
        (c1 - c0) / (t1 - t0) for (t0, c0), (t1, c1) in zip(marks, marks[1:]) if t1 > t0
    )
    return percentile(rates, 0.9) if rates else 0.0


def stretch_rates(probes):
    """The closed-loop rate from ``Plane.calibrate`` readings taken every
    STRETCH_S: each stretch between two readings at the reference CPU speed."""
    raw, corrected, factors = [], [], []
    for (_, count0, start, f0), (end, count1, _, f1) in zip(probes, probes[1:]):
        raw.append((count1 - count0) / (end - start))
        factors.append((f0 + f1) / 2)
        corrected.append(raw[-1] * factors[-1])
    # A stretch the host interrupted reads slow, never fast: the upper
    # decile of the stretches is what the plane sustains when left alone.
    return {
        "rate_per_s": percentile(sorted(corrected), 0.9),
        "raw_rate_per_s": statistics.median(raw),
        "cpu_factor": statistics.median(factors),
        "stretches": len(raw),
    }


class Workload:
    """What ``worker.py`` relies on. ``LIGHT`` names the phase the latency
    metrics come from, ``HEAVY`` the phase the throughput metric comes from.

    Every phase result carries ``attempted``, ``failed``, ``violations``,
    ``ops`` (delivered operations: the ledger's per-op denominator),
    ``rate_per_s``, ``p50_ms``, ``p99_ms`` and ``samples``.
    """

    name = ""
    PHASES = ()
    LIGHT = HEAVY = ""
    #: The phase the throughput metric comes from (HEAVY unless named).
    THROUGHPUT = None
    #: Set-up is repeated this often and the median reported: 15 ms each on
    #: the socket workloads, and a third of that is waiting for discovery.
    SETUP_REPEATS = 51
    #: Whether set-up follows the CPU, to be corrected for the CPU speed
    #: measured around it. The event, invocation and file set-ups follow the
    #: millisecond polls of discovery: corrected, they spread more.
    SETUP_CPU_BOUND = False
    #: The phase a traced run repeats untraced first, to price the tracing
    #: (HEAVY unless a workload names another).
    REFERENCE = None
    #: Batcher crossings in series on the path of one LIGHT-phase operation.
    BATCHER_CROSSINGS = 1
    #: What one operation is, for the per-op ledger columns.
    OP = ""
    plane = None

    @property
    def reference_phase(self):
        return self.REFERENCE or self.HEAVY

    @property
    def throughput_phase(self):
        return self.THROUGHPUT or self.HEAVY

    def busy_cpu_s(self):
        """CPU seconds consumed so far by the thread that runs the
        middleware: the loop thread, or this thread under ``SimRuntime``."""
        return self.plane.loop_cpu_s() if self.plane else time.thread_time()

    def close(self):
        if self.plane:
            self.plane.stop()


class Plane:
    """One ``AsyncRuntime`` with one bare service per container, all under
    the fixed configuration."""

    def __init__(self, names):
        self.runtime = AsyncRuntime(use_uvloop=False)
        self.calibration_cpu_s = 0.0
        services = {name: Service(name) for name in names}
        for name, service in services.items():
            self.runtime.add_container(name, **container_config()).install_service(service)
        self.runtime.start()
        self.ctx = {name: service.ctx for name, service in services.items()}

    def on_reactor(self, fn):
        return self.runtime.on_reactor(fn)

    def loop_cpu_s(self):
        """CPU seconds of the loop thread, the calibration loop's excluded."""
        return self.runtime.on_reactor(time.thread_time) - self.calibration_cpu_s

    def calibrate(self, count):
        """On the loop thread, between two of its callbacks: ``count()`` and
        the CPU factor. -> (instant before, count, instant after, factor);
        nothing is delivered between the two instants."""

        def probe():
            t0, cpu0, counted = perf_counter(), time.thread_time(), count()
            factor = cpu_factor()
            self.calibration_cpu_s += time.thread_time() - cpu0
            return t0, counted, perf_counter(), factor

        return self.runtime.on_reactor(probe)

    def wait(self, predicate, timeout):
        """Poll ``predicate`` from the main thread every millisecond."""
        deadline = perf_counter() + timeout
        while not predicate():
            if perf_counter() >= deadline:
                return predicate()
            time.sleep(TICK_S)
        return True

    def stop(self):
        self.runtime.stop()


def run_open_loop(plane, emit, rate, seconds):
    """Offer ``rate`` operations per second for ``seconds``.

    The schedule is kept on ``perf_counter``: operation *k* is due at
    ``t0 + k / rate`` whatever happened to earlier ones, and ``emit(due)``
    receives that instant, so a stall shows as latency of the operations it
    delayed. Returns (operations offered, how long after its due instant
    each operation was handed to the reactor).
    """
    total = int(rate * seconds)
    lateness = []
    sent = 0
    t0 = perf_counter() + TICK_S
    while sent < total:
        now = perf_counter()
        due_count = min(total, int((now - t0) * rate) + 1) if now >= t0 else 0
        if due_count > sent:
            due = [t0 + k / rate for k in range(sent, due_count)]
            lateness.extend(now - d for d in due)
            plane.on_reactor(lambda: [emit(d) for d in due])
            sent = due_count
        pause = TICK_S - (perf_counter() - now)
        if pause > 0:
            time.sleep(pause)
    return total, lateness


# -- 4.1 variables and 4.2 events: 1 publisher -> SUBSCRIBERS ---------------


class FanOut(Workload):
    """Shared shape of ``telemetry_fanout`` and ``reliable_events``.

    Subclasses give ``value``/``matches``/``in_order`` (static) and
    ``provide``/``subscribe``/``await_first_delivery``; ``provide`` sets
    ``self.send``.
    """

    SUBSCRIBERS = 4
    BURST = 100
    MAX_UNDELIVERED = 1000
    TABLE = 1024  # seeded payload rows, reused round-robin
    OP = "one sample or event delivered to one subscriber"
    HEAVY = "closed"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.rows = [self.make_row(rng) for _ in range(self.TABLE)]
        self.next_seq = 0
        self.counts = [0] * self.SUBSCRIBERS
        self.last_seq = [-1] * self.SUBSCRIBERS
        self.violations = 0
        self.stamped = Stamped()

    def delivered(self):
        return sum(self.counts)

    def _callback(self, index):
        counts, last_seq, rows, mask = self.counts, self.last_seq, self.rows, self.TABLE - 1
        in_order, matches = self.in_order, self.matches

        def on_delivery(value, _timestamp):
            now = perf_counter()
            seq = value["seq"]
            if not in_order(seq, last_seq[index]) or not matches(value, rows[seq & mask]):
                self.violations += 1
            last_seq[index] = seq
            counts[index] += 1
            self.stamped.add(now, now - value["due"])

        return on_delivery

    def emit(self, due):
        seq = self.next_seq
        self.next_seq = seq + 1
        self.send(self.value(seq, due, self.rows[seq & (self.TABLE - 1)]))

    def build(self):
        names = ["pub"] + [f"sub{i}" for i in range(self.SUBSCRIBERS)]
        self.plane = plane = Plane(names)
        plane.on_reactor(lambda: self.provide(plane.ctx["pub"]))
        for i in range(self.SUBSCRIBERS):
            plane.on_reactor(
                lambda i=i: self.subscribe(plane.ctx[f"sub{i}"], self._callback(i))
            )
        self.await_first_delivery()

    def warm_up(self, seconds):
        self.run_closed(seconds)

    def settle(self, expected):
        """Wait for the tail of a phase; what is still missing has failed."""
        self.plane.wait(lambda: self.delivered() >= expected, COMPLETION_GRACE_S)
        return max(0, expected - self.delivered())

    def _result(self, base, violations0, attempted, failed, **extra):
        return {
            "attempted": attempted,
            "failed": failed,
            "violations": self.violations - violations0,
            "ops": self.delivered() - base,
            **extra,
            **latency_summary(self.stamped),
        }

    def run_open(self, rate, seconds):
        base, violations0, self.stamped = self.delivered(), self.violations, Stamped()
        t0 = perf_counter()
        offered, lateness = run_open_loop(self.plane, self.emit, rate, seconds)
        attempted = offered * self.SUBSCRIBERS
        failed = self.settle(base + attempted)
        elapsed = perf_counter() - t0
        return self._result(
            base, violations0, attempted, failed, rate_per_s=(attempted - failed) / elapsed,
            offered_per_s=rate, seconds=elapsed,
            generator_late_p99_ms=percentile(sorted(lateness), 0.99) * 1e3,
        )

    def run_closed(self, seconds):
        """Bursts of BURST, a new one whenever fewer than MAX_UNDELIVERED
        deliveries are outstanding: the plane's sustainable rate. The loop
        thread is the bottleneck and is CPU-bound, so the rate is taken per
        stretch of STRETCH_S and corrected for the CPU speed the loop thread
        measured before and after it."""
        base, violations0, self.stamped = self.delivered(), self.violations, Stamped()
        plane, burst = self.plane, range(self.BURST)
        per_burst = self.BURST * self.SUBSCRIBERS
        expected, written_off = base, 0
        t0 = perf_counter()
        probes = [plane.calibrate(self.delivered)]
        stalled = None  # (since, delivered then)
        while (now := perf_counter()) - t0 < seconds:
            delivered = self.delivered()
            if now - probes[-1][2] >= STRETCH_S:
                probes.append(plane.calibrate(self.delivered))
                continue
            if expected - written_off - delivered < self.MAX_UNDELIVERED:
                plane.on_reactor(lambda: [self.emit(perf_counter()) for _ in burst])
                expected += per_burst
                stalled = None
                continue
            # Best-effort samples may be dropped; a backlog that stops
            # draining for a second is written off as failed, not waited for.
            stalled = stalled or (now, delivered)
            if now - stalled[0] > 1.0:
                if delivered == stalled[1]:
                    written_off = expected - delivered
                stalled = None
            time.sleep(TICK_S / 2)
        probes.append(plane.calibrate(self.delivered))
        elapsed = perf_counter() - t0
        attempted = expected - base
        failed = self.settle(expected - written_off) + written_off
        return self._result(
            base, violations0, attempted, failed, **stretch_rates(probes), seconds=elapsed,
            measured_wall_s=elapsed - sum(p[2] - p[0] for p in probes),
        )


class TelemetryFanout(FanOut):
    """4.1 variable: 48-byte six-field sample, best effort, multicast."""

    name = "telemetry_fanout"
    PHASES = (("open", 0.45), ("closed", 0.55))
    LIGHT = "open"
    OPEN_RATE = 5000
    SETUP_CPU_BOUND = True
    SAMPLE = StructType(
        "BenchTelemetry",
        [("seq", INT64), ("due", FLOAT64), ("lat", FLOAT64),
         ("lon", FLOAT64), ("alt", FLOAT64), ("mode", INT64)],
    )

    @staticmethod
    def make_row(rng):
        return (rng.uniform(-90, 90), rng.uniform(-180, 180),
                rng.uniform(0, 4000), rng.randrange(1 << 40))

    @staticmethod
    def value(seq, due, row):
        return {"seq": seq, "due": due, "lat": row[0], "lon": row[1],
                "alt": row[2], "mode": row[3]}

    @staticmethod
    def matches(value, row):
        return (value["lat"], value["lon"], value["alt"], value["mode"]) == row

    @staticmethod
    def in_order(seq, previous):
        return seq > previous  # best effort: gaps allowed, reordering not

    def provide(self, ctx):
        self.send = ctx.provide_variable("bench.telemetry", self.SAMPLE).publish

    def subscribe(self, ctx, callback):
        ctx.subscribe_variable("bench.telemetry", on_sample=callback)

    def await_first_delivery(self):
        # Subscribers can decode only once discovery told them the type:
        # publish one sample per tick until every one of them has seen one.
        deadline = perf_counter() + 30.0
        while min(self.counts) == 0:
            if perf_counter() > deadline:
                raise RuntimeError("telemetry_fanout: subscribers never saw a sample")
            self.plane.on_reactor(lambda: self.emit(perf_counter()))
            time.sleep(TICK_S)

    def run_phase(self, phase, seconds):
        if phase == "open":
            return self.run_open(self.OPEN_RATE, seconds)
        return self.run_closed(seconds)


class ReliableEvents(FanOut):
    """4.2 event: 16-byte ``{seq, due}``, acknowledged, unicast per peer."""

    name = "reliable_events"
    # ``mid`` is a diagnostic; the two phases that feed gated metrics get
    # the longer share.
    PHASES = (("low", 1 / 3), ("mid", 1 / 6), ("closed", 1 / 2))
    LIGHT = "low"
    RATES = {"low": 1000, "mid": 3000}
    MARK = StructType("BenchMark", [("seq", INT64), ("due", FLOAT64)])

    @staticmethod
    def make_row(_rng):
        return None  # the event carries nothing but its seq and due instant

    @staticmethod
    def value(seq, due, _row):
        return {"seq": seq, "due": due}

    @staticmethod
    def matches(value, _row):
        return len(value) == 2

    @staticmethod
    def in_order(seq, previous):
        return seq == previous + 1  # exactly once, in order

    def provide(self, ctx):
        self.publication = ctx.provide_event("bench.mark", self.MARK)
        self.send = self.publication.raise_event

    def subscribe(self, ctx, callback):
        ctx.subscribe_event("bench.mark", callback)

    def await_first_delivery(self):
        if not self.plane.wait(
            lambda: len(self.publication.subscribers) == self.SUBSCRIBERS, 30.0
        ):
            raise RuntimeError("reliable_events: subscriptions never reached the publisher")
        self.plane.on_reactor(lambda: self.emit(perf_counter()))
        if self.settle(self.SUBSCRIBERS):
            raise RuntimeError("reliable_events: first event not delivered")

    def run_phase(self, phase, seconds):
        if phase in self.RATES:
            return self.run_open(self.RATES[phase], seconds)
        return self.run_closed(seconds)


# -- 4.3 remote invocation ---------------------------------------------------


class RpcRoundtrip(Workload):
    """INT64 -> INT64 between two containers, closed loop. The client
    issues its next call from the result callback, as a service would."""

    name = "rpc_roundtrip"
    PHASES = (("w1", 0.5), ("w16", 0.5))
    LIGHT, HEAVY = "w1", "w16"
    BATCHER_CROSSINGS = 2  # request and response
    OP = "one completed invocation"
    WIDTH = {"w1": 1, "w16": 16}
    FUNCTION = "bench.increment"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.args = [rng.randrange(-(1 << 62), 1 << 62) for _ in range(1024)]
        self.issued = self.completed = self.errors = self.violations = 0
        self.in_flight = 0
        self.stop = False
        self.stamped = Stamped()

    def _issue(self):
        arg = self.args[self.issued & 1023]
        self.issued += 1
        self.in_flight += 1
        t_call = perf_counter()
        self.client.call(
            self.FUNCTION, (arg,),
            on_result=lambda result: self._done(result, arg, t_call),
            on_error=self._error,
        )

    def _done(self, result, arg, t_call):
        now = perf_counter()
        self.stamped.add(now, now - t_call)
        if result != arg + 1:
            self.violations += 1
        self.completed += 1
        self._next()

    def _error(self, _exc):
        self.errors += 1
        self._next()

    def _next(self):
        self.in_flight -= 1
        if not self.stop:
            self._issue()

    def _run(self, width, seconds):
        issued0, completed0 = self.issued, self.completed
        errors0, violations0 = self.errors, self.violations
        self.stamped, self.stop = Stamped(), False
        t0 = perf_counter()
        marks = [(t0, completed0)]
        self.plane.on_reactor(lambda: [self._issue() for _ in range(width)])
        while perf_counter() - t0 < seconds:
            time.sleep(min(WINDOW_S, max(0.0, seconds - (perf_counter() - t0))))
            marks.append((perf_counter(), self.completed))
        self.stop = True
        self.plane.wait(lambda: self.in_flight == 0, COMPLETION_GRACE_S)
        abandoned, self.in_flight = self.in_flight, 0
        return {
            "attempted": self.issued - issued0,
            "failed": (self.errors - errors0) + abandoned,
            "violations": self.violations - violations0,
            "ops": self.completed - completed0,
            "rate_per_s": window_rate(marks),
            "in_flight": width,
            "seconds": perf_counter() - t0,
            **latency_summary(self.stamped),
        }

    def build(self):
        self.plane = plane = Plane(["client", "server"])
        self.client = plane.ctx["client"]
        plane.on_reactor(
            lambda: plane.ctx["server"].provide_function(
                self.FUNCTION, lambda x: x + 1, params=[INT64], result=INT64
            )
        )

        def provider_known():
            return plane.on_reactor(
                lambda: not self.client.check_required_functions([self.FUNCTION])
            )

        if not plane.wait(provider_known, 30.0):
            raise RuntimeError("rpc_roundtrip: provider never discovered")
        self.stop = True  # one call, no successor
        plane.on_reactor(self._issue)
        if not plane.wait(lambda: self.completed == 1, COMPLETION_GRACE_S):
            raise RuntimeError("rpc_roundtrip: first call did not return")

    def warm_up(self, seconds):
        self._run(16, seconds)

    def run_phase(self, phase, seconds):
        return self._run(self.WIDTH[phase], seconds)


# -- 4.4 file transmission ---------------------------------------------------


class FileTransfer(Workload):
    """4 MiB seeded bytes, 1 publisher -> 3 receivers, default ``file_*``
    settings; the next revision is published when every receiver holds the
    previous one."""

    name = "file_transfer"
    PHASES = (("stream", 1.0),)
    LIGHT = HEAVY = "stream"
    OP = "one KiB of file delivered to one receiver"
    RECEIVERS = 3
    FILE_BYTES = 4 << 20
    RESOURCE = "bench.file"
    REVISION_TIMEOUT_S = 60.0

    def __init__(self, seed, file_bytes=None):
        self.rng = random.Random(seed)
        self.file_bytes = file_bytes or self.FILE_BYTES
        self.revision = 0
        self.received = []  # (revision, data, completion instant)

    def _publish_and_wait(self, nbytes):
        """One revision to every receiver -> (sha256, publish instant,
        arrivals, whether all of them arrived in time)."""
        data = self.rng.randbytes(nbytes)
        self.revision += 1
        revision, have = self.revision, len(self.received)
        t_publish = perf_counter()
        self.plane.on_reactor(
            lambda: self.publisher.publish_file(self.RESOURCE, data, revision=revision)
        )
        done = self.plane.wait(
            lambda: len(self.received) - have >= self.RECEIVERS, self.REVISION_TIMEOUT_S
        )
        arrivals = self.received[have:]
        del self.received[have:]
        return hashlib.sha256(data).hexdigest(), t_publish, arrivals, done

    def build(self):
        names = ["pub"] + [f"rx{i}" for i in range(self.RECEIVERS)]
        self.plane = plane = Plane(names)
        self.publisher = plane.ctx["pub"]
        for i in range(self.RECEIVERS):
            plane.on_reactor(
                lambda i=i: plane.ctx[f"rx{i}"].subscribe_file(
                    self.RESOURCE,
                    on_complete=lambda data, revision: self.received.append(
                        (revision, data, perf_counter())
                    ),
                )
            )
        *_, done = self._publish_and_wait(16 << 10)
        if not done:
            raise RuntimeError("file_transfer: first file never completed everywhere")

    def warm_up(self, seconds):
        # The default pacing sends about one 1 KiB chunk per millisecond.
        self._publish_and_wait(int(seconds * 0.9 * (1 << 20)))

    def run_phase(self, _phase, seconds):
        attempted = failed = violations = 0
        stamped = Stamped()
        complete = []  # per revision that reached every receiver: its latencies, ascending
        t0 = t_last = perf_counter()
        # Revisions start during the first 0.7 of the phase; at about 3.6 s
        # each that is four at the default 18 s, the same count every run (a
        # count that flips between runs shows in peak RSS and the quartiles).
        while not attempted or perf_counter() - t0 < seconds * 0.7:
            digest, t_publish, arrivals, done = self._publish_and_wait(self.file_bytes)
            attempted += self.RECEIVERS
            failed += self.RECEIVERS - len(arrivals)
            for revision, data, t_complete in arrivals:
                if revision != self.revision or hashlib.sha256(data).hexdigest() != digest:
                    violations += 1
                stamped.add(t_complete, t_complete - t_publish)
                t_last = max(t_last, t_complete)
            if not done:
                break
            complete.append(sorted(t - t_publish for _, _, t in arrivals))
        completed = attempted - failed
        elapsed = t_last - t0
        summary = latency_summary(stamped)
        # One window is one revision, and there are fewer than ten: the best
        # one is reported, by the completion of its slowest receiver. Its
        # p50 is its median receiver, its tail that slowest one.
        best = min(complete, key=lambda latencies: latencies[-1], default=None)
        if best:
            summary["p50_ms"], summary["p99_ms"] = statistics.median(best) * 1e3, best[-1] * 1e3
        mean_rate = completed * self.file_bytes / elapsed if elapsed > 0 else 0.0
        return {
            "attempted": attempted,
            "failed": failed,
            "violations": violations,
            "ops": completed * self.file_bytes // 1024,
            "rate_per_s": self.RECEIVERS * self.file_bytes / best[-1] if best else mean_rate,
            "mean_rate_per_s": mean_rate,
            "revisions": attempted // self.RECEIVERS,
            "file_bytes": self.file_bytes,
            "seconds": elapsed,
            **summary,
        }


# -- fleet simulation --------------------------------------------------------


class FleetSim(Workload):
    """Federated fleet under one sim clock: zones of 20 (1 relay + 19),
    3 s settle + 2 s mission of virtual time. Host time, no sockets.
    Fixed work, not fixed time: ``--seconds`` does not shorten it.

    The end-to-end numbers all come from N=100, which is repeated and so can
    be made steady; the single N=1000 mission is memory-bound (750 MB) and
    does not repeat within any bound on a shared host, so its time is a
    diagnostic and the ledger's (HEAVY) phase, and its memory is the
    workload's peak RSS."""

    name = "fleet_sim"
    PHASES = (("n100", 0.0), ("n1000", 0.0))
    LIGHT, HEAVY = "n100", "n1000"
    THROUGHPUT = "n100"
    REFERENCE = "n100"  # ten more seconds at N=1000 would say the same
    SETUP_REPEATS = 9  # 0.2 s each; ``build`` times and corrects itself
    OP = "one simulator kernel event"
    ZONE_SIZE = 20
    SETTLE_S = 3.0
    MISSION_S = 2.0
    #: Fleet-paced control intervals, as ``bench_fleet.TIMING``.
    TIMING = dict(announce_interval=5.0, heartbeat_interval=1.0,
                  liveness_timeout=4.0, housekeeping_interval=2.0)
    WARM_N = 40
    SMALL_N, SMALL_REPEATS = 100, 7
    LARGE_N = 1000
    #: Virtual seconds between two readings of the CPU factor: at most
    #: 15 ms of host time at N=100, 0.3 s at N=1000.
    STEP_S = {"n100": 1 / 64, "n1000": 1 / 64}
    IDLE_STEP_S = 0.0005

    def __init__(self, seed, small_n=None, large_n=None):
        self.seed = seed
        self.sizes = {"n100": small_n or self.SMALL_N, "n1000": large_n or self.LARGE_N}
        self.large = None

    def build_fleet(self, n, stretches=None):
        """``stretches`` (set-up is CPU-bound) gets a lap every fifth zone."""
        runtime = SimRuntime(seed=self.seed, zone_isolation=True)
        config = container_config(**self.TIMING)
        remaining, z = n, 0
        while remaining:
            zone, size = f"z{z}", min(self.ZONE_SIZE, remaining)
            runtime.add_container(
                f"relay-{zone}", fleet=FleetConfig(zone=zone, role="relay"), **config
            )
            for i in range(size - 1):
                runtime.add_container(
                    f"uav-{zone}-{i:02d}", fleet=FleetConfig(zone=zone), **config
                )
            remaining -= size
            z += 1
            if stretches and z % 5 == 0:
                stretches.lap()
        runtime.start()
        if stretches:
            stretches.lap()
        return runtime

    @staticmethod
    def zones_converged(runtime):
        """Every container holds a live record of every zone mate."""
        members = {}
        for cid, container in runtime.containers.items():
            members.setdefault(container.config.fleet.zone, []).append(cid)
        for ids in members.values():
            for a in ids:
                directory = runtime.containers[a].directory
                for b in ids:
                    if a != b:
                        record = directory.record(b)
                        if record is None or not record.alive:
                            return False
        return True

    def mission(self, runtime, step_s):
        """Settle and mission, advanced in steps of ``step_s`` virtual
        seconds (a binary fraction, so the steps add up exactly) with the
        CPU factor measured between steps; the run is CPU-bound on this
        thread. The steps alone are timed. A step in which next to nothing
        happened (most of them: the fleet's work follows its one-second
        heartbeat) keeps the factor of the step before."""
        stretches = Stretches()
        for _ in range(round((self.SETTLE_S + self.MISSION_S) / step_s)):
            runtime.run_for(step_s)
            stretches.lap(idle_below=self.IDLE_STEP_S)
        stats = runtime.network.stats
        return {
            "raw_wall_s": sum(stretches.seconds),
            "steps_s": stretches.corrected(),
            "cpu_s": stretches.cpu_seconds,
            "cpu_factor": statistics.median(stretches.factors),
            "converged": self.zones_converged(runtime),
            "events_executed": runtime.sim.events_executed,
            "emissions": stats.emissions.packets,
            "deliveries": stats.deliveries.packets,
        }

    @staticmethod
    def steady_steps(runs):
        """The corrected time of each step of the mission. Every repetition
        does the same work in the same step, and a step the host interrupted
        can only read slow: with repetitions to choose from, each step is
        taken from its second-fastest repetition."""
        return [
            sorted(step)[min(1, len(step) - 1)]
            for step in zip(*(r["steps_s"] for r in runs))
        ]

    def build(self):
        """Set-up is building the large fleet and ``start()`` on it.
        -> its seconds at the reference CPU speed."""
        stretches = Stretches()
        self.large = self.build_fleet(self.sizes["n1000"], stretches)
        return sum(stretches.corrected())

    def warm_up(self, _seconds):
        # The first mission in a process runs 10-40 % slower than later ones.
        self.mission(self.build_fleet(self.WARM_N), self.STEP_S["n100"])

    def run_phase(self, phase, _seconds):
        runs = []
        for _ in range(self.SMALL_REPEATS if phase == "n100" else 1):
            # One fleet at a time, collected before the next is built:
            # several live fleets make every mission slower and unsteady.
            fleet = self.build_fleet(self.sizes[phase]) if phase == "n100" else self.large
            gc.collect()
            runs.append(self.mission(fleet, self.STEP_S[phase]))
            del fleet
        self.large = None if phase == "n1000" else self.large
        unconverged = sum(not r["converged"] for r in runs)
        steps = self.steady_steps(runs)
        wall = sum(steps)
        per_second = round(1 / self.STEP_S[phase])
        seconds = [sum(steps[i:i + per_second]) for i in range(0, len(steps), per_second)]
        events = [r["events_executed"] for r in runs]
        return {
            "attempted": len(runs),
            "failed": unconverged,
            "violations": unconverged,
            "ops": sum(events),
            "rate_per_s": events[0] / wall,
            "containers": self.sizes[phase],
            # Missions only, as the host ran them: the builds and the
            # calibration between steps are not measured.
            "measured_wall_s": sum(r["raw_wall_s"] for r in runs),
            "measured_cpu_s": sum(r["cpu_s"] for r in runs),
            "raw_wall_s": statistics.median(r["raw_wall_s"] for r in runs),
            "cpu_factor": statistics.median(r["cpu_factor"] for r in runs),
            "wall_s": wall,
            # Latency is what the host needs for one second of the fleet's
            # time: the median of the five, and the heaviest (five samples
            # have no 99th percentile short of it).
            "p50_ms": statistics.median(seconds) * 1e3,
            "p99_ms": max(seconds) * 1e3,
            "step_virtual_s": self.STEP_S[phase],
            "events_executed": events[0],
            "events_repeat_exactly": len(set(events)) == 1,
            "emissions": runs[0]["emissions"],
            "deliveries": runs[0]["deliveries"],
            "samples": len(runs),
        }

    def close(self):
        self.large = None
        gc.collect()  # the next build must not pay for collecting this fleet


WORKLOADS = {
    w.name: w
    for w in (TelemetryFanout, ReliableEvents, RpcRoundtrip, FileTransfer, FleetSim)
}
