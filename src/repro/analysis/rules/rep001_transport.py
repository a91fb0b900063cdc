"""REP001 — services never touch the network directly.

The paper's container owns every port and socket (§3 network management):
services and primitive managers express intent ("send this frame to that
peer") and the container's PEPt stack does the I/O. Any import of the raw
transport/network layers from ``repro/services/*`` or ``repro/primitives/*``
is a reach-around that breaks the single-serialization-domain and
fault-isolation guarantees, so it fails the build.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Tuple

from repro.analysis.context import SourceFile
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register

#: Module prefixes that only the container/transport layers may touch.
BANNED_MODULES: Tuple[str, ...] = (
    "socket",
    "repro.transport.udp",
    # Listed separately: prefix matching is on dotted boundaries, so
    # "repro.transport.udp" does not cover its sibling module.
    "repro.transport.udp_async",
    # The simulator as a whole: addressing lives in repro.transport.addressing.
    "repro.simnet",
)

#: Path prefixes (relative to the scan root) the rule polices.
SERVICE_PATHS: Tuple[str, ...] = (
    "repro/services/",
    "repro/primitives/",
)


def _banned(module: str) -> str:
    for prefix in BANNED_MODULES:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return ""


@register
class TransportReachAroundRule(Rule):
    code = "REP001"
    summary = (
        "services and primitives must not import or call the raw "
        "transport/network layers; all I/O goes through the container"
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not file.rel.startswith(SERVICE_PATHS):
            return
        banned_names = set()
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    hit = _banned(alias.name)
                    if hit:
                        banned_names.add(alias.asname or alias.name.split(".")[0])
                        yield self._finding(file, node, alias.name, hit)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                hit = _banned(module)
                if hit:
                    for alias in node.names:
                        banned_names.add(alias.asname or alias.name)
                    yield self._finding(file, node, module, hit)
                    continue
                # `from repro.transport import udp` names the parent but
                # binds the banned submodule.
                for alias in node.names:
                    full = f"{module}.{alias.name}" if module else alias.name
                    hit = _banned(full)
                    if hit:
                        banned_names.add(alias.asname or alias.name)
                        yield self._finding(file, node, full, hit)
        yield from self._call_sites(file, banned_names)

    def _call_sites(self, file: SourceFile, names: set) -> Iterator[Finding]:
        """Flag call/attribute *uses* of a banned import, so the violation
        shows up where the I/O happens, not just at the top of the file."""
        if not names:
            return
        for node in ast.walk(file.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in names
            ):
                yield Finding(
                    rule=self.code,
                    message=(
                        f"direct use of banned module via "
                        f"`{node.value.id}.{node.attr}` — route through the "
                        f"container (PrimitiveHost.send_*)"
                    ),
                    file=file.rel,
                    line=node.lineno,
                    column=node.col_offset,
                )

    def _finding(self, file: SourceFile, node: ast.AST, module: str, hit: str) -> Finding:
        return Finding(
            rule=self.code,
            message=(
                f"import of {module!r}: the container owns all network I/O "
                f"({hit} is off-limits to services/primitives)"
            ),
            file=file.rel,
            line=node.lineno,
            column=node.col_offset,
        )


__all__ = ["TransportReachAroundRule", "BANNED_MODULES", "SERVICE_PATHS"]
