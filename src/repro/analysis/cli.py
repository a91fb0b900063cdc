"""Command line for the architectural checker.

    python -m repro.analysis [check] [PATHS...] [--root DIR] [--format text|json]
    python -m repro.analysis --list-rules

Exit status: 0 when no unsuppressed error findings, 1 otherwise, 2 on
usage errors. The JSON format is the machine-readable report consumed by
the ``lint-and-analyze`` CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, cast

from repro.analysis.engine import run_analysis
from repro.analysis.rules import all_rules


def _default_root() -> Path:
    """``src`` when invoked from a repo checkout, else the package parent."""
    package_root = Path(__file__).resolve().parent.parent.parent
    return package_root


def _update_schema_lock(root: Path, paths: Optional[List[Path]]) -> int:
    from repro.analysis import schemas as schemalock
    from repro.analysis.context import Project, SourceFile
    from repro.analysis.engine import discover_files

    files = [SourceFile.load(p, root) for p in discover_files(root, paths)]
    project = Project(root=root, files=files)
    lock = schemalock.compute_lock(project)
    if lock is None:
        print(
            f"error: no {schemalock.REGISTRY_FILE} in this tree — nothing to lock",
            file=sys.stderr,
        )
        return 2
    if lock["unmapped"]:
        names = ", ".join(lock["unmapped"])  # type: ignore[arg-type]
        print(
            f"error: kinds without a resolvable wire_registry entry: {names}",
            file=sys.stderr,
        )
        return 1
    del lock["unmapped"]  # resolved-empty; keep the committed file minimal
    target = schemalock.default_lock_path(root)
    schemalock.write_lock(target, lock)
    kinds = cast(dict, lock["kinds"])
    print(f"wrote {target} locking {len(kinds)} kind(s) + frame header")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Architectural lint for the middleware tree (REP001-REP004)",
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
        "--tests-dir",
        type=Path,
        default=None,
        help="test-suite directory for cross-checks (default: <root>/../tests)",
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
        "--no-interprocedural",
        action="store_true",
        help="skip the call-graph passes (transitive REP002/REP004)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=(
            "baseline file of known findings to gate against "
            "(default: autodiscovered analysis-baseline.json; "
            "--baseline '' disables)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run's unsuppressed findings and exit",
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

    root = (args.root or _default_root()).resolve()
    if not root.is_dir():
        print(f"error: scan root {root} is not a directory", file=sys.stderr)
        return 2
    if args.paths:
        paths = [Path(p).resolve() for p in args.paths]
        for path in paths:
            if not path.exists():
                print(f"error: no such path {path}", file=sys.stderr)
                return 2
    else:
        default_target = root / "repro"
        paths = [default_target] if default_target.is_dir() else None

    if args.update_schema_lock:
        return _update_schema_lock(root, paths)

    from repro.analysis.baseline import baseline_path, build_baseline, write_baseline

    if args.baseline is not None:
        baseline = args.baseline if str(args.baseline) else None
    else:
        baseline = baseline_path(root)

    report = run_analysis(
        root,
        paths=paths,
        tests_dir=args.tests_dir,
        interprocedural=not args.no_interprocedural,
        baseline=None if args.update_baseline else baseline,
    )

    if args.update_baseline:
        target = baseline or baseline_path(root)
        write_baseline(target, build_baseline(report.findings))
        covered = sum(
            1 for f in report.findings if not f.suppressed and f.severity == "error"
        )
        print(f"wrote {target} covering {covered} finding(s)")
        return 0

    if args.output_format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        counts = report.to_dict()["counts"]
        print(
            f"{report.files_scanned} files scanned: "
            f"{counts['unsuppressed']} finding(s), "
            f"{counts['suppressed']} suppressed"
        )
    return 0 if report.ok else 1


__all__ = ["main"]
