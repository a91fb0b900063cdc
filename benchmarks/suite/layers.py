"""From ledger snapshots to the per-layer metrics declared in BENCHMARK.json.

CPU-type metrics (``*_us``, ``*_per_op``, counts, shares) are taken from the
workload's HEAVY phase, the one its throughput metric comes from; waits
(``*.wait_p50_ms``, ``ack_wait``, ``loop_lag``, ``generator.late``) from its
LIGHT phase, the one its latency metrics come from. ``*_n100`` / ``*_n1000``
metrics exist only for ``fleet_sim``. A metric that does not apply to a
workload is 0; a metric of an absent layer is ``None``.
"""

from __future__ import annotations

from ledger import LAYERS
from probes import PROBE_METRICS
from workloads import FanOut, percentile

#: per-layer metric -> layer whose absence nulls it
METRIC_LAYER = {
    "encoding.encode_us": "encoding",
    "encoding.decode_us": "encoding",
    "encoding.self_us_per_op": "encoding",
    "primitives.publish_self_us": "primitives",
    "primitives.deliver_self_us": "primitives",
    "primitives.self_us_per_op": "primitives",
    "filetransfer.chunks_sent": "container",
    "filetransfer.rounds": "container",
    "filetransfer.nacks": "primitives",
    "filetransfer.chunk_gap_p50_ms": "container",
    "frames.encode_us": "protocol.frames",
    "frames.decode_us": "protocol.frames",
    "frames.self_us_per_op": "protocol.frames",
    "batching.self_us_per_op": "protocol.batching",
    "batching.frames_per_datagram": "protocol.batching",
    "batching.wait_p50_ms": "protocol.batching",
    "reliability.self_us_per_op": "reliability",
    "reliability.retransmits": "reliability",
    "reliability.duplicates": "reliability",
    "reliability.acks_per_data_frame": "reliability",
    "reliability.ack_wait_p50_ms": "reliability",
    "fragmentation.calls_per_op": "protocol.fragmentation",
    "fragmentation.self_us_per_op": "protocol.fragmentation",
    "container.ingress_self_us": "container",
    "container.egress_self_us": "container",
    "container.self_us_per_op": "container",
    "directory.self_us_per_op": "directory",
    "directory.self_us_per_event_n100": "directory",
    "directory.self_us_per_event_n1000": "directory",
    "directory.calls_per_event_n100": "directory",
    "directory.calls_per_event_n1000": "directory",
    "gossip.self_us_per_event_n100": "gossip",
    "gossip.self_us_per_event_n1000": "gossip",
    "sched.self_us_per_op": "sched",
    "sched.queued_share": "sched",
    "transport.send_self_us": "transport",
    "transport.receive_self_us": "transport",
    "transport.datagrams_per_op": "transport",
    "transport.datagrams_per_wakeup": "transport",
    "transport.send_blocked": "transport",
    "transport.raw_ceiling_datagrams_per_s": None,
    "transport.fanout_ceiling_fraction": None,
    "runtime.loop_lag_p50_ms": "runtime",
    "runtime.loop_lag_p99_ms": "runtime",
    "runtime.loop_busy_share": None,
    "runtime.loop_busy_share_light": None,
    "sim.events_executed_n100": "sim",
    "sim.events_executed_n1000": "sim",
    "sim.us_per_event_n100": "sim",
    "sim.us_per_event_n1000": "sim",
    "sim.cost_ratio_n1000_n100": "sim",
    "sim.kernel_self_us_per_event": "sim",
    "simnet.send_self_us": "simnet",
    "simnet.emissions": "simnet",
    "simnet.deliveries_per_emission": "simnet",
    "trace.overhead_share": None,
    "trace.unattributed_share": None,
    "trace.absent_layers": None,
    "trace.cpu_factor": None,
    "generator.late_p99_ms": None,
    **dict.fromkeys(PROBE_METRICS),
}


def _layer_of(span_name):
    return span_name.split("/")[0]


def _ratio(a, b):
    return a / b if b else 0.0


class PhaseTrace:
    """One phase's ledger snapshot plus its busy and wall time."""

    def __init__(self, trace, ops):
        self.spans = trace["spans"]
        self.counters = trace["counters"]
        self.raw = trace
        self.ops = ops
        self.busy_ns = trace["busy_cpu_s"] * 1e9
        self.wall_ns = trace["wall_s"] * 1e9

    def calls(self, *names):
        return sum(self.spans.get(n, {}).get("calls", 0) for n in names)

    def mean_self_us(self, *names):
        self_ns = sum(self.spans.get(n, {}).get("self_ns", 0) for n in names)
        return _ratio(self_ns / 1e3, self.calls(*names))

    def layer_self_ns(self, layer):
        return sum(s["self_ns"] for n, s in self.spans.items() if _layer_of(n) == layer)

    def layer_calls(self, layer):
        return sum(s["calls"] for n, s in self.spans.items() if _layer_of(n) == layer)

    def self_us_per_op(self, layer):
        return _ratio(self.layer_self_ns(layer) / 1e3, self.ops)

    def p_ms(self, key, q):
        values = self.raw[key]
        return percentile(values, q) / 1e6 if values else 0.0

    @property
    def attributed_ns(self):
        return sum(s["self_ns"] for s in self.spans.values())

    def layer_table(self):
        """[(layer, calls, self_ms, self_us_per_op, share of busy)], plus the
        unattributed remainder; the rows sum to the busy time."""
        rows = []
        for layer in LAYERS + ("other",):
            self_ns = self.layer_self_ns(layer)
            rows.append({
                "layer": layer,
                "calls": self.layer_calls(layer),
                "self_ms": self_ns / 1e6,
                "self_us_per_op": _ratio(self_ns / 1e3, self.ops),
                "share_of_busy": _ratio(self_ns, self.busy_ns),
            })
        rest = self.busy_ns - self.attributed_ns
        rows.append({
            "layer": "(unattributed: syscalls, event loop, kernel of the sim)",
            "calls": 0,
            "self_ms": rest / 1e6,
            "self_us_per_op": _ratio(rest / 1e3, self.ops),
            "share_of_busy": _ratio(rest, self.busy_ns),
        })
        return rows


def per_layer_metrics(workload, phases, extras):
    """``phases`` maps phase name to its result (with a ``trace`` entry);
    ``extras`` carries what was measured outside the phases: ``probes``,
    ``raw_ceiling``, ``reference`` (untraced HEAVY-phase rate), ``absent``.
    """
    traces = {
        name: PhaseTrace(result["trace"], result["ops"])
        for name, result in phases.items()
    }
    heavy, light = traces[workload.HEAVY], traces[workload.LIGHT]
    counters = heavy.counters
    m = dict.fromkeys(METRIC_LAYER, 0.0)

    m["encoding.encode_us"] = heavy.mean_self_us("encoding/encode")
    m["encoding.decode_us"] = heavy.mean_self_us("encoding/decode")
    m["primitives.publish_self_us"] = heavy.mean_self_us("primitives/publish")
    m["primitives.deliver_self_us"] = heavy.mean_self_us("primitives/deliver")
    m["frames.encode_us"] = heavy.mean_self_us("protocol.frames/encode")
    m["frames.decode_us"] = heavy.mean_self_us("protocol.frames/decode")
    for metric, layer in (
        ("encoding", "encoding"), ("primitives", "primitives"),
        ("frames", "protocol.frames"), ("batching", "protocol.batching"),
        ("reliability", "reliability"), ("fragmentation", "protocol.fragmentation"),
        ("container", "container"), ("directory", "directory"), ("sched", "sched"),
    ):
        m[f"{metric}.self_us_per_op"] = heavy.self_us_per_op(layer)

    m["filetransfer.chunks_sent"] = heavy.raw["chunks_sent"]
    m["filetransfer.rounds"] = heavy.raw["file_polls"]
    m["filetransfer.nacks"] = heavy.raw["file_nacks"]
    m["filetransfer.chunk_gap_p50_ms"] = heavy.p_ms("chunk_gaps_ns", 0.5)

    datagrams = counters["batcher.batches_sent"] + counters["batcher.single_flushes"]
    m["batching.frames_per_datagram"] = _ratio(
        counters["batcher.batched_frames"] + counters["batcher.single_flushes"], datagrams
    )
    m["batching.wait_p50_ms"] = light.p_ms("batch_waits_ns", 0.5)

    m["reliability.retransmits"] = counters["sender.retransmitted_frames"]
    m["reliability.duplicates"] = counters["receiver.duplicate_frames"]
    m["reliability.acks_per_data_frame"] = _ratio(
        counters["receiver.ack_frames_sent"], counters["receiver.delivered_frames"]
    )
    m["reliability.ack_wait_p50_ms"] = light.p_ms("ack_waits_ns", 0.5)

    m["fragmentation.calls_per_op"] = _ratio(
        heavy.calls("protocol.fragmentation/fragment", "protocol.fragmentation/reassemble"),
        heavy.ops,
    )
    m["container.ingress_self_us"] = heavy.mean_self_us("container/ingress")
    m["container.egress_self_us"] = heavy.mean_self_us("container/egress")
    m["sched.queued_share"] = _ratio(heavy.raw["sched_queued"], heavy.raw["sched_calls"])

    m["transport.send_self_us"] = heavy.mean_self_us("transport/send")
    m["transport.receive_self_us"] = heavy.mean_self_us("transport/receive")
    m["transport.datagrams_per_op"] = _ratio(counters["udp.sent_datagrams"], heavy.ops)
    m["transport.datagrams_per_wakeup"] = _ratio(
        counters["udp.recv_datagrams"], counters["udp.recv_wakeups"]
    )
    m["transport.send_blocked"] = counters["udp.send_blocked"]
    raw_ceiling = extras.get("raw_ceiling")
    if raw_ceiling:
        m["transport.raw_ceiling_datagrams_per_s"] = raw_ceiling
        if isinstance(workload, FanOut):
            m["transport.fanout_ceiling_fraction"] = _ratio(extras["reference"], raw_ceiling)

    m["runtime.loop_lag_p50_ms"] = light.p_ms("loop_lag_ns", 0.5)
    m["runtime.loop_lag_p99_ms"] = light.p_ms("loop_lag_ns", 0.99)
    m["runtime.loop_busy_share"] = _ratio(heavy.busy_ns, heavy.wall_ns)
    m["runtime.loop_busy_share_light"] = _ratio(light.busy_ns, light.wall_ns)

    if "n1000" in traces:  # the fleet
        for suffix, trace in (("n100", traces["n100"]), ("n1000", traces["n1000"])):
            result = phases[suffix]
            m[f"directory.self_us_per_event_{suffix}"] = trace.self_us_per_op("directory")
            m[f"directory.calls_per_event_{suffix}"] = _ratio(
                trace.layer_calls("directory"), trace.ops
            )
            m[f"gossip.self_us_per_event_{suffix}"] = trace.self_us_per_op("gossip")
            m[f"sim.events_executed_{suffix}"] = result["events_executed"]
            m[f"sim.us_per_event_{suffix}"] = _ratio(trace.wall_ns / 1e3, trace.ops)
        m["sim.cost_ratio_n1000_n100"] = _ratio(
            m["sim.us_per_event_n1000"], m["sim.us_per_event_n100"]
        )
        kernel_ns = heavy.layer_self_ns("sim") + (heavy.busy_ns - heavy.attributed_ns)
        m["sim.kernel_self_us_per_event"] = _ratio(kernel_ns / 1e3, heavy.ops)
        m["simnet.send_self_us"] = heavy.mean_self_us("simnet/send")
        m["simnet.emissions"] = phases["n1000"]["emissions"]
        m["simnet.deliveries_per_emission"] = _ratio(
            phases["n1000"]["deliveries"], phases["n1000"]["emissions"]
        )

    m["trace.overhead_share"] = 1.0 - _ratio(
        extras["traced_reference_rate"], extras["reference"]
    )
    m["trace.unattributed_share"] = 1.0 - _ratio(heavy.attributed_ns, heavy.busy_ns)
    m["trace.absent_layers"] = len(extras["absent"])
    m["trace.cpu_factor"] = heavy.raw["cpu_factor"]
    m["generator.late_p99_ms"] = phases[workload.LIGHT].get("generator_late_p99_ms", 0.0)
    m.update(extras["probes"])

    for metric, layer in METRIC_LAYER.items():
        if layer in extras["absent"]:
            m[metric] = None
    return m


def fleet_layer_ratios(phases):
    """Per layer: self µs per kernel event at N=100 and N=1000 and their
    ratio — which layer carries the super-linear term."""
    small = PhaseTrace(phases["n100"]["trace"], phases["n100"]["ops"])
    large = PhaseTrace(phases["n1000"]["trace"], phases["n1000"]["ops"])
    rows = {}
    for a, b in zip(small.layer_table(), large.layer_table()):
        if a["self_ms"] or b["self_ms"]:
            rows[a["layer"]] = {
                "us_per_event_n100": a["self_us_per_op"],
                "us_per_event_n1000": b["self_us_per_op"],
                "ratio": _ratio(b["self_us_per_op"], a["self_us_per_op"]),
            }
    return rows
