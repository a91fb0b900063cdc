"""REP004 — no blocking calls on the event-dispatch path.

Timer and handler callbacks share one serialization thread (the sim
kernel, the ``AsyncRuntime`` event loop); a single blocking call —
``time.sleep``, synchronous file I/O via builtin ``open``, or a lock
acquired without a timeout — stalls every container on that runtime and,
in flight terms, freezes the avionics bus. Handler code must stay
sans-io: yield to the scheduler, use timers, let the container do the
waiting. Each blocking call site is flagged where it stands.

Scope: every sim-path module (same surface as REP002). The wall-clock
harness modules waive the rule per line with justified
``# repro: allow[REP004]`` comments where blocking is the point
(e.g. ``AsyncRuntime.run_for``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Set, Tuple

from repro.analysis.context import SourceFile
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register
from repro.analysis.rules.rep002_nondeterminism import exempt

_SLEEP_MESSAGE = (
    "blocking `time.sleep` on the dispatch path stalls every container — "
    "schedule a timer instead"
)
_OPEN_MESSAGE = (
    "synchronous file I/O (builtin `open`) on the dispatch path — hand it "
    "to the scheduler or a resource manager"
)
_ACQUIRE_MESSAGE = (
    "unbounded `.acquire()` — pass a timeout so a lost lock cannot freeze "
    "the dispatch thread forever"
)


def _in_scope(file: SourceFile) -> bool:
    return file.rel.startswith("repro/") and not exempt(file.rel)


@register
class BlockingCallRule(Rule):
    code = "REP004"
    summary = (
        "no blocking calls (time.sleep, builtin open, lock acquire without "
        "timeout) inside reactor/handler code"
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not _in_scope(file):
            return
        for node, message in _blocking_sites(file.tree):
            yield Finding(
                rule=self.code,
                message=message,
                file=file.rel,
                line=node.lineno,
                column=node.col_offset,
            )


def _blocking_sites(tree: ast.Module) -> Iterator[Tuple[ast.Call, str]]:
    """``(call_node, message)`` for every blocking call in a module."""
    # ``import time as t`` / ``from time import sleep as nap``.
    time_aliases = {"time"}
    sleep_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_aliases.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    sleep_names.add(alias.asname or "sleep")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # time.sleep(...) / sleep(...)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id in time_aliases
        ) or (isinstance(func, ast.Name) and func.id in sleep_names):
            yield node, _SLEEP_MESSAGE
        # builtin open(...): synchronous file I/O in a handler.
        elif isinstance(func, ast.Name) and func.id == "open":
            yield node, _OPEN_MESSAGE
        # lock.acquire() without a timeout bound.
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "acquire"
            and not node.args
            and not any(kw.arg == "timeout" for kw in node.keywords)
        ):
            yield node, _ACQUIRE_MESSAGE


__all__ = ["BlockingCallRule"]
