"""Fixed measurement conditions, shared by every workload and recorded in
every result: the one container configuration, the environment stamp and
the harness's own digest.

Imports only the standard library and ``repro``'s public API, so the
measuring code survives edits to ``benchmarks/exphelpers.py`` and
``tests/helpers.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: The plane ROADMAP plans to make the default. One configuration for all
#: workloads is the point: a real node runs all four primitives under one
#: ``ContainerConfig``, so a setting that helps one workload and hurts
#: another must show.
FAST_PLANE = {
    "codec": "compiled",
    "batching_enabled": True,
    "ack_coalesce_delay": 0.002,
    "ack_coalesce_max_pending": 64,
}
#: Harness timing: slow control plane so discovery chatter stays out of the
#: data-plane numbers. File, retransmit and scheduler settings stay default.
HARNESS_TIMING = {"heartbeat_interval": 0.5, "liveness_timeout": 5.0}

#: The main thread generates load on a 1 ms tick while the loop thread
#: holds the interpreter lock; the default 5 ms switch interval would make
#: the generator up to 5 ms late. Set once per worker process.
SWITCH_INTERVAL_S = 0.0005


def load_contract() -> dict:
    """BENCHMARK.json: the command, the workloads and every declared metric."""
    return json.loads(BENCHMARK_JSON.read_text())


def container_config(**overrides) -> dict:
    """The fixed configuration, restricted to the keys ``ContainerConfig``
    still has — a queued refactor may drop a knob (for instance by making
    the fast plane the default) without breaking the harness."""
    from repro import ContainerConfig

    known = {f.name for f in dataclasses.fields(ContainerConfig)}
    wanted = {**FAST_PLANE, **HARNESS_TIMING, **overrides}
    return {k: v for k, v in wanted.items() if k in known}


def effective_config() -> dict:
    """What :func:`container_config` applies, and what it had to skip."""
    applied = container_config()
    wanted = {**FAST_PLANE, **HARNESS_TIMING}
    return {
        "applied": applied,
        "skipped_unknown_keys": sorted(set(wanted) - set(applied)),
    }


def harness_sha256() -> str:
    """Digest of the measuring code itself: two result files with different
    digests were not produced by the same benchmark."""
    digest = hashlib.sha256()
    for path in sorted(SUITE_DIR.glob("*.py")) + [BENCHMARK_JSON]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def loadavg_1m() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def environment(seed: int) -> dict:
    """The stamp that makes two result files comparable or visibly not."""
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "loadavg_1m_start": loadavg_1m(),
        "seed": seed,
        "network": "loopback only (127.0.0.1 UDP); no real link was crossed",
        "runtime": "AsyncRuntime(use_uvloop=False); ThreadedRuntime is not measured",
        "load_generator": "one thread of one process (main); the loop thread is the only other",
        "switch_interval_s": SWITCH_INTERVAL_S,
        "harness_sha256": harness_sha256(),
        "config": effective_config(),
    }
