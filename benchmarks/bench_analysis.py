"""Static-analysis cost — local-only pass vs the interprocedural engine.

The interprocedural layer (call graph + fixpoint dataflow + schema
lockfile) runs on every CI push, so its cost is a tax
on every change. This benchmark measures that tax directly: the full rule
set over ``src/repro`` with the interprocedural pass disabled (per-file
AST walks only) and enabled, wall-clock min-of-reps.

The acceptance gate — interprocedural must stay under **3x** the
local-only pass — is a budget for the whole project-level layer: the call
graph is built once per run and shared by every rule through
``Project.callgraph()``, so blowing the budget means a rule started doing
per-rule quadratic work, not that the tree grew.

Writes ``BENCH_analysis.json``; ``--smoke`` asserts the gate and skips
the JSON (CI).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from exphelpers import print_table, run_benchmark, write_bench_json

from repro.analysis import Analyzer

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

FULL_REPS = 5
SMOKE_REPS = 3
MAX_RATIO = 3.0


def run_once(interprocedural: bool) -> dict:
    analyzer = Analyzer(
        SRC_ROOT, interprocedural=interprocedural, baseline=None
    )
    start = time.perf_counter()
    report = analyzer.run()
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "files": report.files_scanned,
        "findings": len(report.findings),
    }


def run_experiment(reps: int) -> dict:
    results = {}
    for mode, interprocedural in (("local", False), ("interprocedural", True)):
        runs = [run_once(interprocedural) for _ in range(reps)]
        best = min(runs, key=lambda r: r["wall_s"])
        results[mode] = best
    results["ratio"] = (
        results["interprocedural"]["wall_s"] / results["local"]["wall_s"]
    )
    return results


def render(results: dict) -> None:
    rows = [
        [
            mode,
            f"{results[mode]['wall_s'] * 1e3:.1f}",
            results[mode]["files"],
            results[mode]["findings"],
        ]
        for mode in ("local", "interprocedural")
    ]
    rows.append(["ratio", f"{results['ratio']:.2f}x", "", ""])
    print_table(
        "analysis cost: local vs interprocedural",
        ["mode", "wall_ms", "files", "findings"],
        rows,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer reps, assert the <%.0fx gate, no JSON (CI)" % MAX_RATIO,
    )
    parser.add_argument(
        "--no-json",
        action="store_true",
        help="skip writing BENCH_analysis.json",
    )
    args = parser.parse_args(argv)

    results = run_experiment(SMOKE_REPS if args.smoke else FULL_REPS)
    render(results)

    if args.smoke:
        if results["ratio"] >= MAX_RATIO:
            print(
                f"\nsmoke FAIL: interprocedural pass is "
                f"{results['ratio']:.2f}x local (budget {MAX_RATIO:.0f}x)"
            )
            return 1
        print(
            f"\nsmoke OK: interprocedural pass is {results['ratio']:.2f}x "
            f"local (budget {MAX_RATIO:.0f}x)"
        )
        return 0

    if not args.no_json:
        write_bench_json("analysis", results)
    return 0


def test_analysis_cost(benchmark):
    results = run_benchmark(benchmark, lambda: run_experiment(1))
    assert results["ratio"] < MAX_RATIO


if __name__ == "__main__":
    sys.exit(main())
