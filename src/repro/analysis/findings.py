"""Finding model and report assembly for the architectural checker.

A :class:`Finding` is one rule violation pinned to a file/line. Findings
survive suppression (they are reported as ``suppressed`` with their
justification) so the JSON report is a complete audit trail: what fired,
what was waived, and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Finding:
    """One rule violation (or checker meta-complaint such as REP000)."""

    rule: str
    message: str
    file: str  # path relative to the scan root, posix separators
    line: int
    column: int = 0
    severity: str = "error"  # "error" gates CI; "warning" is informational
    suppressed: bool = False
    justification: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "severity": self.severity,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.file}:{self.line}:{self.column}: {self.rule} {self.message}{tag}"


@dataclass
class Report:
    """The outcome of one analysis run."""

    root: str
    files_scanned: int
    findings: List[Finding] = field(default_factory=list)

    @property
    def unsuppressed(self) -> List[Finding]:
        return [
            f for f in self.findings if not f.suppressed and f.severity == "error"
        ]

    @property
    def ok(self) -> bool:
        """The CI gate: zero unsuppressed error findings."""
        return not self.unsuppressed

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, object]:
        """The machine-readable report shape (consumed by CI)."""
        return {
            "version": 2,
            "root": self.root,
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "counts": {
                "total": len(self.findings),
                "suppressed": sum(1 for f in self.findings if f.suppressed),
                "unsuppressed": len(self.unsuppressed),
                "by_rule": self.counts_by_rule(),
            },
            "findings": [f.to_dict() for f in self.findings],
        }


__all__ = ["Finding", "Report"]
