"""REP002 — no ambient nondeterminism in sim-path modules.

Deterministic replay (same seed → same packets, same virtual timestamps)
only holds while every time read goes through ``util.clock.Clock`` and
every random draw through ``util.rng.SeededRng``. One stray ``time.time()``
or module-level ``random.random()`` silently breaks replay for every
experiment, so the checker bans the ambient sources outright, where they
stand: a helper that wraps ``time.time()`` is flagged in the helper.

The wall-clock runtime layer (``runtime/async_runtime.py``) legitimately
reads the machine clock; it carries a file-scope
``# repro: allow-file[REP002]`` waiver with a justification rather than
being silently exempted — the audit trail stays in the report.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Tuple

from repro.analysis.context import SourceFile
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


def _in_scope(file: SourceFile) -> bool:
    return file.rel.startswith("repro/") and not exempt(file.rel)


@register
class NondeterminismRule(Rule):
    code = "REP002"
    summary = (
        "sim-path modules must route time through util.clock and randomness "
        "through util.rng (no ambient time/random/urandom)"
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not _in_scope(file):
            return
        for node, message in _ambient_sites(file.tree):
            yield Finding(
                rule=self.code,
                message=message,
                file=file.rel,
                line=node.lineno,
                column=node.col_offset,
            )


def _ambient_sites(tree: ast.Module) -> Iterator[Tuple[ast.expr, str]]:
    """``(node, message)`` for every ambient time/random site in a module."""
    # Map local names to the ambient modules they came from, honoring
    # aliases (``import random as rnd``) and direct imports.
    module_aliases: Dict[str, str] = {}
    direct_bans: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in BANNED_ATTRIBUTES:
                    module_aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in BANNED_DIRECT_IMPORTS:
            for alias in node.names:
                if alias.name in BANNED_DIRECT_IMPORTS[node.module]:
                    direct_bans[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = module_aliases.get(node.value.id)
            if module is not None:
                banned = BANNED_ATTRIBUTES[module]
                if "*" in banned or node.attr in banned:
                    yield node, (
                        f"ambient `{module}.{node.attr}` breaks deterministic "
                        f"replay — use util.clock.Clock / util.rng.SeededRng"
                    )
                    continue
            # ``datetime.now()`` through a directly imported class.
            if (
                direct_bans.get(node.value.id, "").startswith("datetime.")
                and node.attr in BANNED_ATTRIBUTES["datetime"]
            ):
                yield node, (
                    f"ambient `{node.value.id}.{node.attr}` breaks "
                    f"deterministic replay — read time from util.clock"
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            origin = direct_bans.get(node.func.id)
            # Only the nondeterministic constructors of a directly imported
            # ``datetime``/``date`` are banned (caught above as attribute
            # calls); ``datetime(...)`` literals are fine.
            if origin is not None and origin not in ("datetime.datetime", "datetime.date"):
                yield node, (
                    f"ambient `{origin}` (imported directly) breaks "
                    f"deterministic replay — use util.clock / util.rng"
                )


__all__ = ["NondeterminismRule", "BANNED_ATTRIBUTES", "EXEMPT_FILES", "exempt"]
