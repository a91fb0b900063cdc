"""Shared context objects the engine hands to rules.

One :class:`SourceFile` per parsed module (source text + AST + its
suppressions), one :class:`Project` per run. Parsing happens exactly once
per file regardless of how many rules inspect it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.suppressions import SuppressionSet, collect

if TYPE_CHECKING:
    from repro.analysis.callgraph import CallGraph


@dataclass
class SourceFile:
    """One analyzed module."""

    path: Path  # absolute
    rel: str  # posix path relative to the scan root
    source: str
    tree: ast.Module
    suppressions: SuppressionSet
    parse_problems: List[Finding]

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        source = path.read_text(encoding="utf-8")
        rel = path.relative_to(root).as_posix()
        suppressions, problems = collect(source, rel)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            tree = ast.Module(body=[], type_ignores=[])
            problems = problems + [
                Finding(
                    rule="REP000",
                    message=f"file does not parse: {exc.msg}",
                    file=rel,
                    line=exc.lineno or 1,
                )
            ]
        return cls(
            path=path,
            rel=rel,
            source=source,
            tree=tree,
            suppressions=suppressions,
            parse_problems=problems,
        )


@dataclass
class Project:
    """Everything one analysis run can see."""

    root: Path  # the scan root (the directory containing ``repro/``)
    files: List[SourceFile]
    #: Directory holding the test suite, for cross-checks like REP003's
    #: codec-parity coverage. ``None`` disables those checks.
    tests_dir: Optional[Path] = None
    #: When False, rules skip their call-graph passes (transitive REP002/
    #: REP004) — the PR 5 local-only behavior, kept selectable for
    #: the checker-cost benchmark and narrow scans.
    interprocedural: bool = True

    def __post_init__(self) -> None:
        self._by_rel: Dict[str, SourceFile] = {f.rel: f for f in self.files}
        self._callgraph = None

    def file(self, rel: str) -> Optional[SourceFile]:
        return self._by_rel.get(rel)

    def callgraph(self) -> "CallGraph":
        """The project call graph, built once on first use (lazy so
        local-only runs never pay for it)."""
        if self._callgraph is None:
            from repro.analysis.callgraph import build_callgraph

            self._callgraph = build_callgraph(self)
        return self._callgraph


__all__ = ["SourceFile", "Project"]
