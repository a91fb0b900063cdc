"""Direct-call probes for layers no workload arms: microseconds per call at a
stated input, minimum over five batches. Run in the traced pass only, before
the ledger's wrappers exist, so they time the bare callables.

A probe whose target no longer exists reports ``None`` instead of failing.
"""

from __future__ import annotations

import random
import socket
import threading
from time import perf_counter

BATCHES = 5


def _us_per_call(fn, calls):
    """Minimum over BATCHES of the mean time of ``calls`` calls."""
    best = float("inf")
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (perf_counter() - t0) / calls)
    return best * 1e6


class _TickingClock:
    """``now()`` advances 10 ms per reading, so token buckets always refill
    and the probe times the admit path, not the drop path."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        self.t += 0.01
        return self.t


def probe_admission():
    """``AdmissionController.admit`` under ``HARDENED_ADMISSION``: one
    best-effort sample frame from one known source."""
    from repro.protocol.admission import HARDENED_ADMISSION, AdmissionController
    from repro.protocol.frames import Frame, MessageKind

    controller = AdmissionController(
        clock=_TickingClock(), classify=lambda kind: 1, policy=HARDENED_ADMISSION
    )
    frame = Frame(kind=MessageKind.VAR_SAMPLE, source="peer", payload=b"x" * 48)
    cost = _us_per_call(lambda: controller.admit(frame), 2000)
    if controller.dropped:
        raise RuntimeError("admission probe measured the drop path")
    return {"probe.admission_admit_us": cost}


def probe_codecs(seed):
    """The three codecs on the fan-out struct (48 bytes on the wire)."""
    from repro.encoding.codec import get_codec

    from workloads import TelemetryFanout

    row = TelemetryFanout(seed).rows[0]
    value = TelemetryFanout.value(7, 1234.5, row)
    out = {}
    for name in ("compiled", "binary", "json"):
        codec = get_codec(name)
        encoded = codec.encode(TelemetryFanout.SAMPLE, value)
        if codec.decode(TelemetryFanout.SAMPLE, encoded) != value:
            raise RuntimeError(f"{name} codec does not round-trip the probe value")
        out[f"probe.codec_{name}_encode_us"] = _us_per_call(
            lambda: codec.encode(TelemetryFanout.SAMPLE, value), 2000
        )
        out[f"probe.codec_{name}_decode_us"] = _us_per_call(
            lambda: codec.decode(TelemetryFanout.SAMPLE, encoded), 2000
        )
    return out


def probe_fragmentation(seed):
    """``Fragmenter.fragment`` then ``Reassembler.on_fragment`` over every
    piece of one 64 KiB encoded frame at the UDP MTU."""
    from repro.protocol.fragmentation import Fragmenter, Reassembler
    from repro.protocol.frames import Frame, MessageKind
    from repro.transport.udp import UDP_MTU

    payload = random.Random(seed).randbytes(64 << 10)
    encoded = Frame(kind=MessageKind.FILE_CHUNK, source="probe", payload=payload).encode()
    fragmenter = Fragmenter("probe", UDP_MTU)
    fragments = fragmenter.fragment(encoded)
    reassembler = Reassembler()

    def reassemble():
        whole = None
        for fragment in fragments:
            whole = reassembler.on_fragment(fragment, 0.0)
        if whole != encoded:
            raise RuntimeError("reassembly does not reproduce the frame")

    return {
        "probe.fragment_64k_us": _us_per_call(lambda: fragmenter.fragment(encoded), 50),
        "probe.reassemble_64k_us": _us_per_call(reassemble, 50),
    }


def probe_directory():
    """``Directory.handle_heartbeat`` and ``live_containers`` with 1,000
    live records."""
    from repro.container.directory import Directory

    clock = _TickingClock()
    directory = Directory(clock=clock, local_container="self", liveness_timeout=1e9)
    docs = []
    for i in range(1000):
        doc = {
            "container": f"c{i:04d}", "node": f"n{i:04d}", "port": 47000,
            "incarnation": 1, "services": [], "failed_services": [],
            "variables": [], "events": [], "functions": [], "files": [],
        }
        directory.handle_announce(doc)
        docs.append({"container": doc["container"], "node": doc["node"], "port": 47000,
                     "incarnation": 1, "load": 0, "restarts": 0})
    cursor = [0]

    def heartbeat():
        directory.handle_heartbeat(docs[cursor[0] % 1000])
        cursor[0] += 1

    if len(directory.live_containers()) != 1000:
        raise RuntimeError("directory probe did not register 1000 records")
    return {
        "probe.directory_heartbeat_us": _us_per_call(heartbeat, 2000),
        "probe.directory_live_containers_us": _us_per_call(directory.live_containers, 200),
    }


def raw_ceiling(batches=3):
    """Two plain UDP sockets, 64-byte datagrams, no middleware: datagrams
    per second received, best of ``batches``. What one sendto/recvfrom pair
    per message costs this interpreter on this kernel."""
    return max(_raw_ceiling_once() for _ in range(batches))


def _raw_ceiling_once(datagrams=20_000):
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
        rx.bind(("127.0.0.1", 0))
        rx.settimeout(0.5)
        destination = rx.getsockname()
        received = [0, 0.0]

        def drain():
            buffer = bytearray(2048)
            while True:
                try:
                    rx.recvfrom_into(buffer)
                except socket.timeout:
                    return
                received[0] += 1
                received[1] = perf_counter()

        drainer = threading.Thread(target=drain)
        drainer.start()
        payload = b"x" * 64
        t0 = perf_counter()
        for _ in range(datagrams):
            tx.sendto(payload, destination)
        drainer.join()
    finally:
        tx.close()
        rx.close()
    return received[0] / (received[1] - t0) if received[0] else 0.0


PROBE_METRICS = (
    "probe.admission_admit_us",
    "probe.codec_compiled_encode_us", "probe.codec_compiled_decode_us",
    "probe.codec_binary_encode_us", "probe.codec_binary_decode_us",
    "probe.codec_json_encode_us", "probe.codec_json_decode_us",
    "probe.fragment_64k_us", "probe.reassemble_64k_us",
    "probe.directory_heartbeat_us", "probe.directory_live_containers_us",
)


def run_probes(seed):
    """-> ({metric: value or None}, [errors])."""
    values = dict.fromkeys(PROBE_METRICS)
    errors = []
    for probe in (
        probe_admission,
        lambda: probe_codecs(seed),
        lambda: probe_fragmentation(seed),
        probe_directory,
    ):
        try:
            values.update(probe())
        except Exception as exc:  # noqa: BLE001 — a probe must never fail the run
            errors.append(f"{type(exc).__name__}: {exc}")
    return values, errors
