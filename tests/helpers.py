"""Shared helpers for integration tests and benchmarks."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional

from repro import Service, SimRuntime

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


class ProbeService(Service):
    """A scriptable service: declares whatever the test asks for and records
    everything it receives."""

    def __init__(self, name: str, setup: Optional[Callable[["ProbeService"], None]] = None):
        super().__init__(name)
        self._setup = setup
        self.samples: List[tuple] = []  # (variable, value, timestamp)
        self.events: List[tuple] = []  # (event, value, timestamp)
        self.files: List[tuple] = []  # (resource, data, revision)
        self.timeouts: List[str] = []
        self.results: List[Any] = []
        self.errors: List[Exception] = []

    def on_start(self) -> None:
        if self._setup is not None:
            self._setup(self)

    # -- recording helpers ------------------------------------------------------
    def watch_variable(self, name: str, initial: bool = False):
        return self.ctx.subscribe_variable(
            name,
            on_sample=lambda v, t: self.samples.append((name, v, t)),
            on_timeout=lambda n: self.timeouts.append(n),
            initial=initial,
        )

    def watch_event(self, name: str):
        return self.ctx.subscribe_event(
            name, lambda v, t: self.events.append((name, v, t))
        )

    def watch_file(self, name: str, **kwargs):
        return self.ctx.subscribe_file(
            name,
            on_complete=lambda data, rev: self.files.append((name, data, rev)),
            **kwargs,
        )

    def call_recorded(self, function: str, args: tuple = (), **kwargs):
        return self.ctx.call(
            function,
            args,
            on_result=self.results.append,
            on_error=self.errors.append,
            **kwargs,
        )

    def values_of(self, variable: str) -> List[Any]:
        return [v for n, v, _ in self.samples if n == variable]

    def events_of(self, event: str) -> List[Any]:
        return [v for n, v, _ in self.events if n == event]


def two_containers(seed: int = 1, link=None, **config_overrides):
    """A runtime with containers 'a' and 'b' on their own nodes."""
    runtime = SimRuntime(seed=seed, default_link=link)
    a = runtime.add_container("a", **config_overrides)
    b = runtime.add_container("b", **config_overrides)
    return runtime, a, b


def settle(runtime: SimRuntime, duration: float = 3.0) -> None:
    runtime.start()
    runtime.run_for(duration)


#: A deployment in miniature: one ``AsyncRuntime`` container hosting one
#: bare ``Service`` over real UDP sockets, started, run for 0.3 s and
#: stopped. It then prints the ``repro`` modules it loaded, as JSON, and
#: checks that the lazy ``repro.SimRuntime`` export still resolves.
DEPLOYMENT_SCENARIO = """
import json, sys
from repro import AsyncRuntime, Service
runtime = AsyncRuntime()
runtime.add_container("node").install_service(Service("bare"))
runtime.start()
try:
    runtime.run_for(0.3)
finally:
    runtime.stop()
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
from repro import SimRuntime
"""


def deployment_closure() -> List[str]:
    """The ``repro`` modules a deployment loads: :data:`DEPLOYMENT_SCENARIO`
    run in a fresh interpreter, so nothing this process imported counts."""
    result = subprocess.run(
        [sys.executable, "-c", DEPLOYMENT_SCENARIO],
        env=dict(os.environ, PYTHONPATH=str(SRC_ROOT)),
        capture_output=True, text=True, timeout=120,
    )
    if result.returncode != 0:
        raise RuntimeError(f"deployment scenario failed:\n{result.stderr}")
    return json.loads(result.stdout)
