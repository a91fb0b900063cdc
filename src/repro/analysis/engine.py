"""The analysis engine: load files once, run every rule, apply suppressions.

The engine is the only component that knows about suppressions — rules
yield raw findings and the engine decides what they mean:

- a finding with a matching, justified suppression is kept but marked
  ``suppressed`` (audit trail, not silence);
- a suppression with no justification is itself a REP000 error;
- a suppression that never matched anything becomes a warning, so stale
  waivers surface instead of rotting.

Every rule is local to one module, so a file is checked, waived and
audited for stale waivers on its own.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.analysis.context import SourceFile
from repro.analysis.findings import Finding, Report
from repro.analysis.rules import Rule, all_rules
from repro.analysis.suppressions import META_RULE


def discover_files(root: Path, paths: Optional[Sequence[Path]] = None) -> List[Path]:
    """Every ``*.py`` under ``paths`` (default: the whole root), sorted."""
    targets = [root] if not paths else list(paths)
    seen = {}
    for target in targets:
        if target.is_file() and target.suffix == ".py":
            seen[target.resolve()] = None
            continue
        for path in sorted(target.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            seen[path.resolve()] = None
    return sorted(seen)


class Analyzer:
    """One configured analysis run."""

    def __init__(self, root: Path, rules: Optional[Iterable[Rule]] = None) -> None:
        self.root = Path(root).resolve()
        self.rules: List[Rule] = (
            list(rules) if rules is not None else [cls() for cls in all_rules()]
        )

    def run(self, paths: Optional[Sequence[Path]] = None) -> Report:
        files = discover_files(self.root, paths)
        findings: List[Finding] = []
        for path in files:
            findings.extend(self.check(SourceFile.load(path, self.root)))
        findings.sort(key=lambda f: (f.file, f.line, f.rule, f.column))
        return Report(root=str(self.root), files_scanned=len(files), findings=findings)

    def check(self, file: SourceFile) -> List[Finding]:
        """Every finding for one module, waivers applied, stale waivers added."""
        findings = list(file.parse_problems)
        for rule in self.rules:
            findings.extend(rule.check_file(file))
        for finding in findings:
            if finding.rule == META_RULE:
                continue  # the meta-rule cannot be waived
            suppression = file.suppressions.apply(finding.rule, finding.line)
            if suppression is not None:
                finding.suppressed = True
                finding.justification = suppression.justification
        for suppression in file.suppressions.all():
            if not suppression.used:
                codes = ",".join(suppression.codes)
                findings.append(
                    Finding(
                        rule=META_RULE,
                        message=(
                            f"suppression allow[{codes}] never matched a "
                            f"finding — stale waiver, remove it"
                        ),
                        file=file.rel,
                        line=suppression.line or 1,
                        severity="warning",
                    )
                )
        return findings


def run_analysis(root: Path, paths: Optional[Sequence[Path]] = None) -> Report:
    """Convenience one-shot entry point (used by the CLIs and tests)."""
    return Analyzer(root).run(paths)


__all__ = ["Analyzer", "run_analysis", "discover_files"]
