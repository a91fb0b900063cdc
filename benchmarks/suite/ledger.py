"""The per-layer ledger, measured from outside.

``Ledger.install()`` replaces the public callables of each layer — at class
or module level, before any runtime is built — with wrappers that time a
span and keep a per-thread stack, so a span's *self* time is its duration
minus the spans it called. Callables handed to a public registration point
(``schedule(delay, fn)``, ``submit(label, fn)``, ``open(port, receiver)``)
are wrapped too and attributed to the layer whose module defines them; that
is how timer-driven work (batch flushes, retransmit polls, the file chunk
loop, simulated deliveries) lands in its layer without touching a private
name.

Spans are aggregated in memory per span name (calls, self ns, total ns);
nothing is written until a phase ends. Nothing here imports private names
of ``repro``; a target that no longer exists marks its layer absent.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

_clock = time.perf_counter_ns

#: Longest prefix wins. Layers are the repo's modules.
_LAYER_OF_MODULE = (
    ("repro.primitives.wire", "encoding"),
    ("repro.encoding", "encoding"),
    ("repro.primitives", "primitives"),
    ("repro.protocol.frames", "protocol.frames"),
    ("repro.protocol.batching", "protocol.batching"),
    ("repro.protocol.reliability", "reliability"),
    ("repro.container.links", "reliability"),
    ("repro.protocol.fragmentation", "protocol.fragmentation"),
    ("repro.container.directory", "directory"),
    ("repro.container.gossip", "gossip"),
    ("repro.container", "container"),
    ("repro.protocol.admission", "container"),
    ("repro.sched", "sched"),
    ("repro.transport", "transport"),
    ("repro.runtime", "runtime"),
    ("repro.simnet", "simnet"),
    ("repro.sim", "sim"),
)

LAYERS = (
    "encoding", "primitives", "protocol.frames", "protocol.batching",
    "reliability", "protocol.fragmentation", "container", "directory",
    "gossip", "sched", "transport", "runtime", "sim", "simnet",
)

#: module -> ((span name "layer/op", attribute path, hook), ...). "@codec" stands
#: for the class of the configured codec. Hooks are the methods of
#: :class:`Ledger` named ``_hook_<name>`` (before the span opens) and
#: ``_after_<name>`` (after it closed).
TARGETS = {
    "@codec": (
        ("encoding/encode", "encode", None),
        ("encoding/decode", "decode", None),
    ),
    "repro.primitives.wire": (
        ("encoding/encode", "encode", None),
        ("encoding/decode", "decode", None),
        ("encoding/decode", "decode_traced", None),
    ),
    "repro.primitives.variables": (
        ("primitives/publish", "VariablePublication.publish", None),
        ("primitives/deliver", "VariableManager.on_sample_frame", None),
    ),
    "repro.primitives.events": (
        ("primitives/publish", "EventPublication.raise_event", None),
        ("primitives/deliver", "EventManager.on_event_frame", None),
    ),
    "repro.primitives.invocation": (
        ("primitives/publish", "InvocationManager.call", None),
        ("primitives/deliver", "InvocationManager.on_request_frame", None),
        ("primitives/deliver", "InvocationManager.on_response_frame", None),
    ),
    "repro.primitives.filetransfer": (
        ("primitives/publish", "FileTransferManager.publish", None),
        ("primitives/deliver", "FileTransferManager.on_chunk_frame", None),
        ("primitives/deliver", "FileTransferManager.on_completion_nack_frame", "file_nack"),
    ),
    "repro.protocol.frames": (
        ("protocol.frames/encode", "Frame.encode", None),
        ("protocol.frames/encode", "Frame.encode_views", None),
        ("protocol.frames/decode", "Frame.decode", None),
    ),
    "repro.protocol.batching": (
        ("protocol.batching/add", "FrameBatcher.add", "batch_add"),
        ("protocol.batching/flush", "FrameBatcher.flush", None),
        ("protocol.batching/decode", "decode_batch_payload", None),
    ),
    "repro.protocol.reliability": (
        ("reliability/send", "ReliableSender.send", "sender"),
        ("reliability/on_ack", "ReliableSender.on_ack_frame", None),
        ("reliability/poll", "ReliableSender.poll", None),
        ("reliability/on_frame", "ReliableReceiver.on_frame", "ack_pending"),
        ("reliability/flush_acks", "ReliableReceiver.flush_acks", "ack_flush"),
        ("reliability/flush_acks", "ReliableReceiver.take_pending_acks", "ack_flush"),
    ),
    "repro.container.links": (
        ("reliability/send", "ReliableLinks.send", None),
        ("reliability/on_frame", "ReliableLinks.on_frame", None),
    ),
    "repro.protocol.fragmentation": (
        ("protocol.fragmentation/fragment", "Fragmenter.fragment", None),
        ("protocol.fragmentation/reassemble", "Reassembler.on_fragment", None),
    ),
    "repro.transport.frame_transport": (
        ("container/open", "FrameTransport.open", "frame_open"),
        ("transport/send", "FrameTransport.send", "transport_send"),
    ),
    "repro.container.container": (
        ("container/submit", "ServiceContainer.submit", None),
        ("container/egress", "ServiceContainer.send_reliable", None),
        ("container/egress", "ServiceContainer.send_group", "send_group"),
    ),
    "repro.container.egress": (
        ("container/egress", "EgressShaper.send", None),
        ("container/egress", "EgressShaper.flush", None),
    ),
    "repro.container.directory": (
        ("directory/handle_announce", "Directory.handle_announce", None),
        ("directory/handle_heartbeat", "Directory.handle_heartbeat", None),
        ("directory/check_liveness", "Directory.check_liveness", None),
        ("directory/apply_zone_summary", "Directory.apply_zone_summary", None),
        ("directory/live_containers", "Directory.live_containers", None),
        ("directory/providers_of", "Directory.providers_of_variable", None),
        ("directory/providers_of", "Directory.providers_of_event", None),
        ("directory/providers_of", "Directory.providers_of_function", None),
        ("directory/providers_of", "Directory.providers_of_file", None),
    ),
    "repro.container.gossip": (
        ("gossip/on_gossip", "FleetCoordinator.on_gossip", None),
        ("gossip/publish_summary", "FleetCoordinator.publish_summary", None),
        ("gossip/on_zone_summary", "FleetCoordinator.on_zone_summary", None),
        ("gossip/flush", "FleetCoordinator.flush", None),
    ),
    "repro.sched.model": (
        ("sched/submit", "SimScheduler.submit", "sched_submit"),
    ),
    "repro.transport.udp_async": (
        ("transport/send", "AsyncUdpTransport.send_buffers", None),
        ("transport/open", "AsyncUdpTransport.open", "raw_open"),
    ),
    "repro.transport.sim": (
        ("transport/open", "SimTransport.open", "raw_open"),
    ),
    "repro.runtime.async_runtime": (
        ("runtime/schedule", "LoopDomain.schedule", "timer"),
    ),
    "repro.sim.kernel": (
        ("sim/schedule", "Simulator.schedule", None),
        ("sim/schedule", "Simulator.schedule_at", "timer"),
        ("sim/schedule", "Simulator.schedule_fire", "timer"),
        ("sim/step", "Simulator.step", None),
    ),
    "repro.simnet.network": (
        ("simnet/send", "SimNic.send", None),
    ),
}

#: Public counters read from the instances the hooks have seen.
_COUNTERS = {
    "udp": ("sent_datagrams", "send_drains", "send_blocked", "recv_wakeups", "recv_datagrams"),
    "batcher": ("batches_sent", "batched_frames", "single_flushes", "oversize_bypasses"),
    "sender": ("sent_frames", "retransmitted_frames"),
    "receiver": ("delivered_frames", "duplicate_frames", "ack_frames_sent"),
}


class _Frames(threading.local):
    def __init__(self):
        self.stack = []


class _Submitted:
    """The callable handed to ``SimScheduler.submit``, remembering whether
    it ran before ``submit`` returned (the inline fast path)."""

    __slots__ = ("fn", "ran")

    def __init__(self, fn):
        self.fn = fn
        self.ran = False

    def __call__(self):
        self.ran = True
        self.fn()


def layer_of_module(module):
    for prefix, layer in _LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Ledger:
    def __init__(self, codec_name="compiled"):
        self.codec_name = codec_name
        self.stats = {}  # span name -> [calls, self_ns, total_ns]
        self.absent = {}  # layer -> [targets that could not be resolved]
        self.instances = {kind: [] for kind in _COUNTERS}
        self.frame_transports = []
        self._seen = set()
        self._tls = _Frames()
        self._root = [0]  # ns inside any span, summed over root spans
        self._callback_stats = {}  # module -> stat
        self._base = {}
        self.reset_marks()

    def reset_marks(self):
        self.batch_pending = {}  # (source, destination) -> [t_add ns]
        self.batch_waits = []
        self.ack_pending = {}  # id(receiver) -> [t_on_frame ns]
        self.ack_waits = []
        self.chunk_sends = []  # ns timestamps of FILE_CHUNK emissions
        self.file_polls = 0
        self.file_nacks = 0
        self.sched_calls = 0
        self.sched_queued = 0

    # -- wrapping -----------------------------------------------------------
    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        return stat

    def _wrap(self, fn, stat, before=None, after=None):
        tls, root = self._tls, self._root

        def span(*args, **kwargs):
            if before is not None:
                args = before(args)
            stack = tls.stack
            stack.append(0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - t0
                stat[0] += 1
                stat[1] += duration - stack.pop()
                stat[2] += duration
                if stack:
                    stack[-1] += duration
                else:
                    root[0] += duration
                if after is not None:
                    after(args)

        span._ledger_span = True
        return span

    def callback(self, fn, span_name=None):
        """Wrap a callable handed to a registration point; it is billed to
        the layer whose module defines it unless ``span_name`` says so."""
        if getattr(fn, "_ledger_span", False):
            return fn  # a wrapped public method: it records itself
        if span_name is None:
            module = getattr(getattr(fn, "func", fn), "__module__", None) or "?"
            stat = self._callback_stats.get(module)
            if stat is None:
                stat = self._callback_stats[module] = self._stat(
                    f"{layer_of_module(module)}/callback"
                )
        else:
            stat = self._stat(span_name)
        return self._wrap(fn, stat)

    def _resolve(self, module_name, path):
        """-> (owner object, attribute name). Raises on a missing target."""
        if module_name == "@codec":
            from repro.encoding.codec import get_codec

            return type(get_codec(self.codec_name)), path
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        getattr(owner, attr)
        return owner, attr

    def install(self):
        for module_name, targets in TARGETS.items():
            for span_name, path, hook in targets:
                self._install_one(module_name, span_name, path, hook)

    def _install_one(self, module_name, span_name, path, hook):
        try:
            owner, attr = self._resolve(module_name, path)
        except Exception as exc:  # noqa: BLE001 — a vanished target must not end the run
            layer = span_name.split("/")[0]
            self.absent.setdefault(layer, []).append(
                f"{module_name}:{path} ({type(exc).__name__})"
            )
            return
        before = getattr(self, f"_hook_{hook}", None) if hook else None
        after = getattr(self, f"_after_{hook}", None) if hook else None
        stat = self._stat(span_name)
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self._wrap(raw.__func__, stat, before, after)))
            else:
                setattr(owner, attr, self._wrap(getattr(owner, attr), stat, before, after))
        else:
            original = getattr(owner, attr)
            wrapped = self._wrap(original, stat, before, after)
            # ``from module import function`` copies the reference:
            # patch every loaded repro module that holds it.
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and module is not None:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def _note(self, kind, instance):
        if id(instance) not in self._seen:
            self._seen.add(id(instance))
            self.instances[kind].append(instance)

    # -- hooks: run before the span opens, so their cost is not billed ---------
    def _hook_timer(self, args):
        # (self, delay_or_when, callback)
        if len(args) < 3:
            return args  # called with keywords: leave the callback unbilled
        return (args[0], args[1], self.callback(args[2])) + args[3:]

    def _hook_raw_open(self, args):
        # (self, port, receiver): the frame transport's datagram entry
        if hasattr(args[0], "sent_datagrams"):
            self._note("udp", args[0])
        return (args[0], args[1], self.callback(args[2], "transport/receive"))

    def _hook_frame_open(self, args):
        # (self, port, receiver): the container's ingress choke point
        self.frame_transports.append(args[0])
        return (args[0], args[1], self.callback(args[2], "container/ingress"))

    def _hook_sched_submit(self, args):
        # (self, label, fn)
        return (args[0], args[1], _Submitted(self.callback(args[2])))

    def _after_sched_submit(self, args):
        self.sched_calls += 1
        if not args[2].ran:
            self.sched_queued += 1

    def _hook_batch_add(self, args):
        # (self, destination, frame, band)
        self._note("batcher", args[0])
        key = (args[2].source, args[1])
        pending = self.batch_pending.get(key)
        if pending is None:
            pending = self.batch_pending[key] = []
        pending.append(_clock())
        return args

    def _hook_transport_send(self, args):
        # (self, destination, frame): a datagram leaves; whatever the same
        # container had batched for this destination stops waiting now.
        pending = self.batch_pending.get((args[2].source, args[1]))
        if pending:
            now = _clock()
            self.batch_waits.extend(now - t for t in pending)
            pending.clear()
        return args

    def _hook_sender(self, args):
        self._note("sender", args[0])
        return args

    def _hook_ack_pending(self, args):
        self._note("receiver", args[0])
        self.ack_pending.setdefault(id(args[0]), []).append(_clock())
        return args

    def _hook_ack_flush(self, args):
        pending = self.ack_pending.get(id(args[0]))
        if pending:
            now = _clock()
            self.ack_waits.extend(now - t for t in pending)
            pending.clear()
        return args

    def _hook_send_group(self, args):
        # (self, group, frame)
        kind = getattr(args[2].kind, "name", "")
        if kind == "FILE_CHUNK":
            self.chunk_sends.append(_clock())
        elif kind == "FILE_STATUS_REQUEST":
            self.file_polls += 1
        return args

    def _hook_file_nack(self, args):
        self.file_nacks += 1
        return args

    # -- phases -------------------------------------------------------------
    def _counter_totals(self):
        totals = {}
        for kind, names in _COUNTERS.items():
            for name in names:
                totals[f"{kind}.{name}"] = sum(
                    getattr(obj, name, 0) for obj in self.instances[kind]
                )
        totals["frame_transport.fragmented_messages"] = sum(
            getattr(t, "fragmented_messages", 0) for t in self.frame_transports
        )
        return totals

    def begin_phase(self):
        for stat in self.stats.values():
            stat[0] = stat[1] = stat[2] = 0
        self._root[0] = 0
        self.reset_marks()
        self._base = self._counter_totals()

    def end_phase(self):
        totals = self._counter_totals()
        return {
            "spans": {
                name: {"calls": s[0], "self_ns": s[1], "total_ns": s[2]}
                for name, s in sorted(self.stats.items()) if s[0]
            },
            "root_ns": self._root[0],
            "counters": {k: v - self._base.get(k, 0) for k, v in totals.items()},
            "batch_waits_ns": sorted(self.batch_waits),
            "ack_waits_ns": sorted(self.ack_waits),
            "chunk_gaps_ns": sorted(
                b - a for a, b in zip(self.chunk_sends, self.chunk_sends[1:])
            ),
            "chunks_sent": len(self.chunk_sends),
            "file_polls": self.file_polls,
            "file_nacks": self.file_nacks,
            "sched_calls": self.sched_calls,
            "sched_queued": self.sched_queued,
        }


class LoopLagProbe:
    """A 10 ms repeating timer through ``runtime.reactor.schedule``; how far
    past its due instant each firing ran is the loop's scheduling lag."""

    INTERVAL_S = 0.010

    def __init__(self, runtime):
        self.runtime = runtime
        self.overshoot_s = []
        self.running = False

    def _fire(self):
        now = time.perf_counter()
        self.overshoot_s.append(now - self.due)
        if self.running:
            self.due = now + self.INTERVAL_S
            self.runtime.reactor.schedule(self.INTERVAL_S, self._fire)

    def start(self):
        self.overshoot_s = []
        self.running = True
        self.due = time.perf_counter() + self.INTERVAL_S
        self.runtime.reactor.schedule(self.INTERVAL_S, self._fire)

    def stop(self):
        self.running = False
        return sorted(self.overshoot_s)
