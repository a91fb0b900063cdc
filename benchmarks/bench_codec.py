"""Codec microbenchmark: interpreted BinaryCodec vs schema-compiled plans.

Measures encode and decode separately over the real primitive payload
schemas (variables, events, RPC, file transfer, the announce control-plane
message) and a large mostly-fixed-width telemetry struct that exercises the
compiler's run coalescing. Every timed pair is also *checked*: the compiled
codec must produce byte-identical output and decode to equal values, so a
wire-format divergence fails the benchmark run itself (CI runs this with a
tiny iteration count as a smoke test).

Standalone run writes machine-readable results to ``BENCH_codec.json`` at
the repo root; ``--iters N`` / ``REPRO_BENCH_ITERS`` scale the work.
"""

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from exphelpers import print_table, run_benchmark, write_bench_json

from repro.container import records
from repro.encoding.binary import BinaryCodec
from repro.encoding.compiled import CompiledCodec
from repro.encoding.schema import ALARM_SCHEMA
from repro.encoding.types import (
    FLOAT32,
    FLOAT64,
    STRING,
    UINT8,
    UINT16,
    UINT32,
    StructType,
    VectorType,
)
from repro.primitives import wire

INTERPRETED = BinaryCodec()
COMPILED = CompiledCodec()

#: A realistic vehicle-state snapshot: one string, then a long run of
#: fixed-width fields the compiler coalesces into a single struct call.
TELEMETRY_SCHEMA = StructType(
    "TelemetrySnapshot",
    [
        ("vehicle", STRING),
        ("timestamp", FLOAT64),
        (
            "position",
            StructType(
                "Pos", [("lat", FLOAT64), ("lon", FLOAT64), ("alt", FLOAT64)]
            ),
        ),
        ("attitude", VectorType(FLOAT64, 4)),
        ("velocity", VectorType(FLOAT64, 3)),
        ("gyro", VectorType(FLOAT32, 3)),
        ("accel", VectorType(FLOAT32, 3)),
        ("battery_mv", UINT16),
        ("mode", UINT8),
        ("link_quality", UINT8),
        ("channels", VectorType(UINT16, 16)),
        ("flags", UINT32),
    ],
)

TELEMETRY_DOC = {
    "vehicle": "uav-alpha-1",
    "timestamp": 1234.5625,
    "position": {"lat": 41.275, "lon": 1.985, "alt": 312.5},
    "attitude": [0.7071, 0.0, 0.7071, 0.0],
    "velocity": [12.5, -0.25, 1.125],
    "gyro": [0.5, -0.5, 0.0],
    "accel": [0.0, 0.25, -9.8125],
    "battery_mv": 11100,
    "mode": 2,
    "link_quality": 87,
    "channels": list(range(1000, 1016)),
    "flags": 0x13,
}

#: (label, schema, representative document) — the frames the middleware
#: actually moves, with payload sizes matching the other experiments.
CASES = [
    (
        "VarSample",
        wire.VAR_SAMPLE_SCHEMA,
        {"name": "ahrs.attitude", "timestamp": 12.5, "value": b"z" * 64},
    ),
    (
        "EventMessage",
        wire.EVENT_MESSAGE_SCHEMA,
        {"name": "mission.waypoint_reached", "timestamp": 99.25, "value": b"y" * 32},
    ),
    (
        "RpcRequest",
        wire.RPC_REQUEST_SCHEMA,
        {"call_id": "c1-42", "function": "camera.take_photo", "args": b"x" * 48},
    ),
    (
        "RpcResponse",
        wire.RPC_RESPONSE_SCHEMA,
        {"call_id": "c1-42", "ok": True, "error": "", "result": b"r" * 96},
    ),
    (
        "FileChunk",
        wire.FILE_CHUNK_SCHEMA,
        {
            "name": "imagery/photo-0042.pgm",
            "revision": 3,
            "index": 17,
            "total": 180,
            "data": b"p" * 512,
        },
    ),
    (
        "FileNack",
        wire.FILE_NACK_SCHEMA,
        {
            "name": "imagery/photo-0042.pgm",
            "subscriber": "ground-station",
            "revision": 3,
            "missing": [{"start": 4, "end": 9}, {"start": 40, "end": 41}],
        },
    ),
    (
        "Announce",
        records.ANNOUNCE_SCHEMA,
        {
            "container": "payload-1",
            "node": "10.0.0.7",
            "port": 4500,
            "incarnation": 2,
            "services": ["camera", "videoproc", "storage"],
            "failed_services": [],
            "variables": [
                {
                    "name": "gps.position",
                    "datatype": "struct Pos { float64 lat; float64 lon; }",
                    "validity": 1.0,
                    "period": 0.1,
                }
            ],
            "events": [{"name": "camera.photo_taken", "datatype": "string"}],
            "functions": [
                {"name": "camera.take_photo", "params": ["string"], "result": "bytes"}
            ],
            "files": [
                {
                    "name": "imagery/photo-0042.pgm",
                    "revision": 3,
                    "size": 91125,
                    "chunk_size": 512,
                }
            ],
        },
    ),
    ("TelemetrySnapshot", TELEMETRY_SCHEMA, TELEMETRY_DOC),
]


def _nested_vector(depth, leaf):
    schema, doc = UINT8, leaf
    for _ in range(depth):
        schema = VectorType(schema)
    for _ in range(depth - 1):
        doc = [doc, []]
    return schema, doc


#: Checked, not timed: the two shapes no wire schema has — a union, and
#: nesting past the 20 blocks CPython allows in one generated function.
CHECKED_ONLY = [
    ("Alarm", ALARM_SCHEMA, ("error", "engine temperature")),
    ("Nested24", *_nested_vector(24, [1, 2, 255])),
]


def _best_of(fn, n, repeats=5):
    """Min-of-repeats wall time for n calls — minima are stable against
    scheduler noise where means are not."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best


def check_equivalence():
    """Compiled must be byte-identical and value-identical on every case."""
    for label, schema, doc in CASES + CHECKED_ONLY:
        reference = INTERPRETED.encode(schema, doc)
        compiled = COMPILED.encode(schema, doc)
        if compiled != reference:
            raise AssertionError(
                f"{label}: compiled bytes diverge from interpreted "
                f"({compiled!r} != {reference!r})"
            )
        if COMPILED.decode(schema, reference) != INTERPRETED.decode(schema, reference):
            raise AssertionError(f"{label}: compiled decode diverges")


def run_case(label, schema, doc, iters):
    encoded = INTERPRETED.encode(schema, doc)
    result = {
        "bytes": len(encoded),
        "iters": iters,
        "interp_encode_s": _best_of(lambda: INTERPRETED.encode(schema, doc), iters),
        "compiled_encode_s": _best_of(lambda: COMPILED.encode(schema, doc), iters),
        "interp_decode_s": _best_of(lambda: INTERPRETED.decode(schema, encoded), iters),
        "compiled_decode_s": _best_of(lambda: COMPILED.decode(schema, encoded), iters),
    }
    result["encode_speedup"] = result["interp_encode_s"] / result["compiled_encode_s"]
    result["decode_speedup"] = result["interp_decode_s"] / result["compiled_decode_s"]
    result["roundtrip_speedup"] = (
        result["interp_encode_s"] + result["interp_decode_s"]
    ) / (result["compiled_encode_s"] + result["compiled_decode_s"])
    return result


def run_experiment(iters=20_000, write_json=True):
    check_equivalence()
    per_case = {}
    rows = []
    for label, schema, doc in CASES:
        r = run_case(label, schema, doc, iters)
        per_case[label] = r
        rows.append(
            [
                label,
                r["bytes"],
                f"{r['encode_speedup']:.2f}x",
                f"{r['decode_speedup']:.2f}x",
                f"{r['roundtrip_speedup']:.2f}x",
            ]
        )
    totals = {
        key: sum(r[key] for r in per_case.values())
        for key in (
            "interp_encode_s",
            "compiled_encode_s",
            "interp_decode_s",
            "compiled_decode_s",
        )
    }
    overall = {
        "encode_speedup": totals["interp_encode_s"] / totals["compiled_encode_s"],
        "decode_speedup": totals["interp_decode_s"] / totals["compiled_decode_s"],
        "roundtrip_speedup": (totals["interp_encode_s"] + totals["interp_decode_s"])
        / (totals["compiled_encode_s"] + totals["compiled_decode_s"]),
    }
    rows.append(
        [
            "OVERALL",
            "-",
            f"{overall['encode_speedup']:.2f}x",
            f"{overall['decode_speedup']:.2f}x",
            f"{overall['roundtrip_speedup']:.2f}x",
        ]
    )
    print_table(
        f"Compiled vs interpreted codec ({iters} iterations, min-of-5)",
        ["schema", "bytes", "encode", "decode", "roundtrip"],
        rows,
    )
    payload = {
        "experiment": "codec",
        "iters": iters,
        "cases": per_case,
        "overall": overall,
    }
    if write_json:
        path = write_bench_json("codec", payload)
        print(f"\nwrote {path}")
    return payload


# -- pytest entry points --------------------------------------------------------


def test_compiled_output_identical_to_interpreted():
    check_equivalence()


def test_compiled_codec_speedup(benchmark):
    result = run_benchmark(
        benchmark, lambda: run_experiment(iters=4_000, write_json=False)
    )
    benchmark.extra_info.update(result["overall"])
    # The acceptance bar is >= 2x on the full run (see BENCH_codec.json);
    # assert a conservative floor here so a loaded CI box doesn't flake.
    assert result["overall"]["roundtrip_speedup"] > 1.3


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--iters",
        type=int,
        default=int(os.environ.get("REPRO_BENCH_ITERS", "20000")),
        help="timing iterations per measurement (default 20000)",
    )
    parser.add_argument(
        "--no-json",
        action="store_true",
        help="skip writing BENCH_codec.json (smoke runs)",
    )
    args = parser.parse_args()
    run_experiment(iters=args.iters, write_json=not args.no_json)
