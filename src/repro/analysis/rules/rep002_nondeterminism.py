"""REP002 — no ambient nondeterminism in sim-path modules, now transitive.

Deterministic replay (same seed → same packets, same virtual timestamps)
only holds while every time read goes through ``util.clock.Clock`` and
every random draw through ``util.rng.SeededRng``. One stray ``time.time()``
or module-level ``random.random()`` silently breaks replay for every
experiment, so the checker bans the ambient sources outright.

The interprocedural pass additionally reports ambient sites *reachable
from a handler entry point* through project-local calls — the helper that
wraps ``time.time()`` no longer hides the taint from the handler that
calls it. The finding lands on the entry point with the call chain
rendered, so the fix site and the contract violation are both visible.
Waived sites (justified ``# repro: allow[REP002]``) are not taint
sources.

The wall-clock runtime layer (``runtime/async_runtime.py``) legitimately
reads the machine clock; it carries a file-scope
``# repro: allow-file[REP002]`` waiver with a justification rather than
being silently exempted — the audit trail stays in the report.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.context import Project, SourceFile
from repro.analysis.dataflow import SiteLister, entrypoint_reach_findings
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register

#: ``module -> banned attributes`` (``*`` = every attribute). Keyed on the
#: imported module name, so aliased imports are tracked too.
BANNED_ATTRIBUTES: Dict[str, Tuple[str, ...]] = {
    "time": ("time", "monotonic", "perf_counter", "process_time", "time_ns",
             "monotonic_ns", "perf_counter_ns"),
    "datetime": ("now", "utcnow", "today"),
    "random": ("*",),
    "os": ("urandom",),
    "secrets": ("*",),
    "uuid": ("uuid1", "uuid4"),
}

#: Names that, when imported directly (``from time import time``), are
#: banned at call sites.
BANNED_DIRECT_IMPORTS: Dict[str, Tuple[str, ...]] = {
    "time": ("time", "monotonic", "perf_counter", "process_time"),
    "datetime": ("datetime", "date"),  # datetime.now() via direct import
    "random": ("random", "randint", "uniform", "choice", "shuffle", "gauss",
               "sample", "randrange", "getrandbits", "expovariate"),
    "os": ("urandom",),
    "uuid": ("uuid1", "uuid4"),
}

#: Modules that *are* the sanctioned abstraction; the ban does not apply.
EXEMPT_FILES: Tuple[str, ...] = (
    "repro/util/clock.py",
    "repro/util/rng.py",
)

#: The static-analysis tooling itself is a dev-side tool, not sim-path.
EXEMPT_PREFIXES: Tuple[str, ...] = (
    "repro/analysis/",
)


def exempt(rel: str) -> bool:
    return rel in EXEMPT_FILES or rel.startswith(EXEMPT_PREFIXES)


class AmbientSiteScanner:
    """Finds ambient time/random sites under any AST node of one module.

    The import table (aliases and direct imports) is resolved once per
    file; per-function scans then only walk their own subtree.
    """

    def __init__(self, tree: ast.Module) -> None:
        # Map local names to the ambient modules they came from, honoring
        # aliases (``import random as rnd``) and direct imports.
        self.module_aliases: Dict[str, str] = {}
        self.direct_bans: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in BANNED_ATTRIBUTES:
                        self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module in BANNED_DIRECT_IMPORTS:
                for alias in node.names:
                    if alias.name in BANNED_DIRECT_IMPORTS[node.module]:
                        self.direct_bans[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )

    def sites(self, root: ast.AST) -> Iterator[Tuple[ast.AST, str, str]]:
        """``(node, label, message)`` for every ambient site under root."""
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module = self.module_aliases.get(node.value.id)
                if module is not None:
                    banned = BANNED_ATTRIBUTES[module]
                    if "*" in banned or node.attr in banned:
                        yield (
                            node,
                            f"{module}.{node.attr}",
                            (
                                f"ambient `{module}.{node.attr}` breaks "
                                f"deterministic replay — use util.clock.Clock "
                                f"/ util.rng.SeededRng"
                            ),
                        )
                        continue
                # ``datetime.now()`` through a directly imported class.
                if (
                    self.direct_bans.get(node.value.id, "").startswith("datetime.")
                    and node.attr in BANNED_ATTRIBUTES["datetime"] + ("today",)
                ):
                    yield (
                        node,
                        f"{node.value.id}.{node.attr}",
                        (
                            f"ambient `{node.value.id}.{node.attr}` breaks "
                            f"deterministic replay — read time from util.clock"
                        ),
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                origin = self.direct_bans.get(node.func.id)
                if origin == "datetime.datetime" or origin == "datetime.date":
                    # Only the nondeterministic constructors are banned;
                    # ``datetime(...)`` literals are fine. Attribute calls
                    # like ``datetime.now()`` are caught above.
                    continue
                if origin is not None:
                    yield (
                        node,
                        origin,
                        (
                            f"ambient `{origin}` (imported directly) breaks "
                            f"deterministic replay — use util.clock / util.rng"
                        ),
                    )


def _in_scope(file: SourceFile) -> bool:
    return file.rel.startswith("repro/") and not exempt(file.rel)


@register
class NondeterminismRule(Rule):
    code = "REP002"
    summary = (
        "sim-path modules must route time through util.clock and randomness "
        "through util.rng (no ambient time/random/urandom), locally or "
        "through any chain of project-local calls from a handler"
    )

    def check_file(self, project: Project, file: SourceFile) -> Iterable[Finding]:
        if not _in_scope(file):
            return
        scanner = AmbientSiteScanner(file.tree)
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
            scanner = AmbientSiteScanner(file.tree)

            def sites(root: ast.AST) -> List[Tuple[ast.AST, str]]:
                return [(n, label) for n, label, _msg in scanner.sites(root)]

            return sites

        yield from entrypoint_reach_findings(
            project,
            self.code,
            scanner_factory,
            reason="ambient time/random taint breaks deterministic replay",
        )


__all__ = ["NondeterminismRule", "AmbientSiteScanner", "BANNED_ATTRIBUTES", "EXEMPT_FILES"]
