"""The one object the engine hands to rules: a parsed module.

One :class:`SourceFile` per scanned module (its AST and its
suppressions). Parsing happens exactly once per file regardless of how
many rules inspect it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List

from repro.analysis.findings import Finding
from repro.analysis.suppressions import SuppressionSet, collect


@dataclass
class SourceFile:
    """One analyzed module."""

    rel: str  # posix path relative to the scan root
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
            rel=rel,
            tree=tree,
            suppressions=suppressions,
            parse_problems=problems,
        )


__all__ = ["SourceFile"]
