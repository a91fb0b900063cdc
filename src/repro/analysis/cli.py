"""Command line for the architectural checker.

    python -m repro.analysis [check] [PATHS...] [--root DIR] [--format text|json]
    python -m repro.analysis --list-rules
    python -m repro.analysis --update-schema-lock

Exit status: 0 when no unsuppressed error findings, 1 otherwise, 2 on
usage errors. The JSON format is the machine-readable report consumed by
the ``lint-and-analyze`` CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import run_analysis
from repro.analysis.rules import all_rules

#: ``src`` when invoked from a repo checkout, else the package parent.
_DEFAULT_ROOT = Path(__file__).resolve().parent.parent.parent


def _update_schema_lock(root: Path) -> int:
    from repro.analysis import schemalock

    try:
        lock = schemalock.compute_lock()
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    target = schemalock.lock_path(root)
    target.write_text(schemalock.render(lock), encoding="utf-8")
    print(f"wrote {target} locking {len(lock['kinds'])} kind(s) + frame header")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Architectural lint for the middleware tree (REP001, REP002, REP004-REP006)",
    )
    parser.add_argument(
        "command",
        nargs="?",
        default="check",
        choices=["check"],
        help="subcommand (only 'check' for now)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: <root>/repro)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="scan root containing the repro/ package (default: autodetected src/)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="output_format",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--update-schema-lock",
        action="store_true",
        help="regenerate schemas.lock.json from the current wire schemas and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_class in all_rules():
            print(f"{rule_class.code}  {rule_class.summary}")
        return 0

    root = (args.root or _DEFAULT_ROOT).resolve()
    if not root.is_dir():
        print(f"error: scan root {root} is not a directory", file=sys.stderr)
        return 2
    if args.update_schema_lock:
        return _update_schema_lock(root)
    if args.paths:
        paths = [Path(p).resolve() for p in args.paths]
        for path in paths:
            if not path.exists():
                print(f"error: no such path {path}", file=sys.stderr)
                return 2
    else:
        default_target = root / "repro"
        paths = [default_target] if default_target.is_dir() else None

    report = run_analysis(root, paths=paths)
    if args.output_format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        suppressed = sum(1 for f in report.findings if f.suppressed)
        print(
            f"{report.files_scanned} files scanned: "
            f"{len(report.unsuppressed)} finding(s), {suppressed} suppressed"
        )
    return 0 if report.ok else 1


__all__ = ["main"]
