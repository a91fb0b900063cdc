"""REP004 — no blocking calls on the event-dispatch path, now transitive.

Timer and handler callbacks share one serialization thread (the sim
kernel, the ``AsyncRuntime`` event loop); a single blocking call — ``time.sleep``,
synchronous file I/O via builtin ``open``, a lock acquired without a
timeout, or a blocking socket send — stalls every container on that
runtime and, in flight terms, freezes the avionics bus. Handler code must
stay sans-io: yield to the scheduler, use timers, let the container do
the waiting.

Two passes:

- **Local** (PR 5 behavior): every blocking call site in a sim-path
  module is flagged where it stands.
- **Transitive** (interprocedural): a blocking site *reachable from a
  handler entry point* through any chain of project-local calls is also
  reported at the entry point, with the call path rendered in the
  finding — this is what catches the handler whose innocent-looking
  helper ends in ``time.sleep`` two hops away. Sites carrying a justified
  waiver are not taint sources (the waiver says the blocking is
  intentional, so chains through it are too).

Scope: every sim-path module (same surface as REP002). The wall-clock
harness modules waive the rule per line with justified
``# repro: allow[REP004]`` comments where blocking is the point
(e.g. ``AsyncRuntime.run_for``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.analysis.context import Project, SourceFile
from repro.analysis.dataflow import SiteLister, entrypoint_reach_findings
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register
from repro.analysis.rules.rep002_nondeterminism import exempt

#: Socket send/recv methods that block the calling thread on a real
#: socket. Transitive-only sources: locally a bare ``.send``/``.recv``
#: attribute is too ambiguous to flag, but a *handler* whose call chain
#: ends on one of these (on a receiver conventionally named like a
#: socket) is a dispatch-thread stall regardless.
_SOCKET_METHODS = frozenset(
    {
        "sendto", "sendall", "send", "sendmsg",
        "recv", "recvfrom", "recvmsg", "recvmsg_into", "recv_into",
        "accept", "connect",
    }
)
_SOCKET_RECEIVERS = frozenset(
    {"sock", "_sock", "socket", "_socket", "conn", "_conn"}
)

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


class BlockingSiteScanner:
    """Finds blocking call sites under any AST node of one module.

    Import resolution (``import time as t``, ``from time import sleep``)
    is computed once per file so per-function scans stay cheap.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.time_aliases = {"time"}
        self.sleep_names: set = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        self.time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        self.sleep_names.add(alias.asname or "sleep")

    def sites(self, root: ast.AST) -> Iterator[Tuple[ast.Call, str, str]]:
        """``(call_node, label, message)`` for every blocking site."""
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # time.sleep(...) / sleep(...)
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "sleep"
                and isinstance(func.value, ast.Name)
                and func.value.id in self.time_aliases
            ) or (isinstance(func, ast.Name) and func.id in self.sleep_names):
                yield node, "time.sleep", _SLEEP_MESSAGE
            # builtin open(...): synchronous file I/O in a handler.
            elif isinstance(func, ast.Name) and func.id == "open":
                yield node, "open", _OPEN_MESSAGE
            # lock.acquire() without a timeout bound.
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "acquire"
                and not node.args
                and not any(kw.arg == "timeout" for kw in node.keywords)
            ):
                yield node, ".acquire()", _ACQUIRE_MESSAGE

    def socket_sites(self, root: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
        """Blocking socket I/O sites (transitive-only sources)."""
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in _SOCKET_METHODS
            ):
                continue
            receiver = func.value
            name: Optional[str] = None
            if isinstance(receiver, ast.Name):
                name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                name = receiver.attr
            if name in _SOCKET_RECEIVERS:
                yield node, f"socket.{func.attr}"


def _in_scope(file: SourceFile) -> bool:
    return file.rel.startswith("repro/") and not exempt(file.rel)


@register
class BlockingCallRule(Rule):
    code = "REP004"
    summary = (
        "no blocking calls (time.sleep, builtin open, lock acquire without "
        "timeout) inside reactor/handler code, locally or through any "
        "chain of project-local calls from a handler entry point"
    )

    def check_file(self, project: Project, file: SourceFile) -> Iterable[Finding]:
        if not _in_scope(file):
            return
        scanner = BlockingSiteScanner(file.tree)
        for node, _label, message in scanner.sites(file.tree):
            yield Finding(
                rule=self.code,
                message=message,
                file=file.rel,
                line=node.lineno,
                column=node.col_offset,
            )

    def check_project(self, project: Project) -> Iterable[Finding]:
        if not project.interprocedural:
            return

        def scanner_factory(file: SourceFile) -> Optional[SiteLister]:
            if not _in_scope(file):
                return None
            scanner = BlockingSiteScanner(file.tree)

            def sites(root: ast.AST) -> List[Tuple[ast.AST, str]]:
                out = [(n, label) for n, label, _msg in scanner.sites(root)]
                out.extend(scanner.socket_sites(root))
                return out

            return sites

        yield from entrypoint_reach_findings(
            project,
            self.code,
            scanner_factory,
            reason="one blocked dispatch thread stalls every container",
        )


__all__ = ["BlockingCallRule", "BlockingSiteScanner"]
