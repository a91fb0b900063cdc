"""Compare two results (or two sets of results) of ``run.py --out``.

    python3 benchmarks/suite/compare.py A.json B.json
    python3 benchmarks/suite/compare.py dirA dirB     # medians over *.json in each

Per workload and end-to-end metric: both values, the ratio with its base,
and ``worse`` / ``same`` / ``better`` against the metric's bound in
BENCHMARK.json. Exits non-zero on any ``worse`` or any higher failed share.
Only untraced results are compared: a traced run prices the ledger, not
the middleware.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from conditions import load_contract

#: ``failed_share`` may not rise by more than this, absolutely.
FAILED_SHARE_SLACK = 0.001


def load(path):
    """-> {workload: {"metrics": {name: median}, "failed_share": median,
    "stamps": set of (commit, harness digest)}} over one file or a directory
    of files."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"{path}: no result files")
    runs = {}
    for file in files:
        for workload, result in json.loads(file.read_text())["untraced"].items():
            runs.setdefault(workload, []).append(result)
    merged = {}
    for workload, results in runs.items():
        merged[workload] = {
            "runs": len(results),
            "metrics": {
                name: statistics.median(r["end_to_end"][name] for r in results)
                for name in results[0]["end_to_end"]
            },
            "failed_share": statistics.median(r["failed_share"] for r in results),
            "stamps": {
                (r["environment"]["commit"], r["environment"]["harness_sha256"][:12])
                for r in results
            },
        }
    return merged


def verdict(a, b, better, bound):
    """How ``b`` stands against base ``a``: the relative change in the
    direction that is worse, held against the bound."""
    worsening = (b - a) / a if better == "lower" else (a - b) / a
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    contract = load_contract()
    a, b = load(argv[1]), load(argv[2])
    bad = 0
    for workload in a:
        if workload not in b:
            print(f"{workload}: missing from {argv[2]}")
            bad += 1
            continue
        ra, rb = a[workload], b[workload]
        print(f"\n== {workload}  (A: {ra['runs']} runs, B: {rb['runs']} runs)")
        if ra["stamps"] != rb["stamps"]:
            print(f"   A was measured at {sorted(ra['stamps'])}, B at {sorted(rb['stamps'])} "
                  "(commit, harness digest)")
        for metric in contract["end_to_end"]:
            name = metric["name"]
            va, vb = ra["metrics"][name], rb["metrics"][name]
            result = verdict(va, vb, metric["better"], metric["bound"])
            bad += result == "worse"
            print(f"   {name:<20} A {va:>12.5g}  B {vb:>12.5g} {metric['unit']:<5} "
                  f"B/A {vb / va:.3f} (base A)  {result:<6} "
                  f"(bound {metric['bound']}, {metric['better']} is better)")
        fa, fb = ra["failed_share"], rb["failed_share"]
        failed = "worse" if fb > fa + FAILED_SHARE_SLACK else "same"
        bad += failed == "worse"
        print(f"   {'failed_share':<20} A {fa:>12.5g}  B {fb:>12.5g} ratio {failed} "
              f"(absolute slack {FAILED_SHARE_SLACK})")
    print("\nno metric is worse" if not bad else f"\n{bad} metrics are worse")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
