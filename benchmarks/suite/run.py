"""One benchmark for the middleware: five workloads, end-to-end metrics from
an untraced run, a per-layer ledger from a traced run.

    python3 benchmarks/suite/run.py                       # every workload, untraced
    python3 benchmarks/suite/run.py --traced              # ... and its per-layer ledger
    python3 benchmarks/suite/run.py --workload rpc_roundtrip --seed 3
    python3 benchmarks/suite/run.py --repeat 5 --out results/pass
    python3 benchmarks/suite/run.py --smoke               # 1 s phases, output validated

Each workload runs in its own subprocess (``worker.py``). With
``--workload`` the last line of standard output is the one JSON object
BENCHMARK.json's contract asks for; the exit code is non-zero when a
correctness check fails. Needs nothing but ``src/`` of this repository.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from conditions import SUITE_DIR, load_contract

WORKER = SUITE_DIR / "worker.py"
#: The contract allows a run 180 s; the worker is stopped before that.
WORKER_TIMEOUT_S = 170

#: The issue's fifteen end-to-end metrics by name: where each is measured
#: (workload, phase, key of the phase result) and how it is scaled.
#: ``setup_s`` and ``failed_share`` exist once per workload. BENCHMARK.json
#: declares five workload-independent names instead, because its contract
#: has every workload report every end-to-end metric; README.md maps them.
NAMED_METRICS = (
    ("fanout_deliveries_per_s", "1/s", "telemetry_fanout", "closed", "rate_per_s", 1.0),
    ("fanout_latency_p50_ms", "ms", "telemetry_fanout", "open", "p50_ms", 1.0),
    ("events_deliveries_per_s", "1/s", "reliable_events", "closed", "rate_per_s", 1.0),
    ("events_latency_p50_ms_low", "ms", "reliable_events", "low", "p50_ms", 1.0),
    ("events_latency_p99_ms_low", "ms", "reliable_events", "low", "p99_ms", 1.0),
    ("events_latency_p50_ms_mid", "ms", "reliable_events", "mid", "p50_ms", 1.0),
    ("rpc_latency_p50_ms_w1", "ms", "rpc_roundtrip", "w1", "p50_ms", 1.0),
    ("rpc_latency_p99_ms_w1", "ms", "rpc_roundtrip", "w1", "p99_ms", 1.0),
    ("rpc_calls_per_s_w16", "1/s", "rpc_roundtrip", "w16", "rate_per_s", 1.0),
    ("file_goodput_MBps", "10^6 B/s", "file_transfer", "stream", "rate_per_s", 1e-6),
    ("fleet_wall_s_n100", "s", "fleet_sim", "n100", "wall_s", 1.0),
    ("fleet_wall_s_n1000", "s", "fleet_sim", "n1000", "wall_s", 1.0),
)


def run_worker(workload, seed, seconds, traced, smoke):
    """-> the worker's result dict, or None when it produced none."""
    command = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0",
    ]
    if smoke:
        command.append("--smoke")
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        print(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if not lines or process.returncode not in (0, 1):
        print(f"{workload}: worker exited with code {process.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{workload}: worker printed no result", file=sys.stderr)
        return None


def fmt(value):
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_end_to_end(result, contract):
    name = result["workload"]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    print(f"\n== {name}  (seed {result['environment']['seed']}, "
          f"phases {result['phase_seconds']}, warm-up {result['warm_up_s']} s)")
    if result["seconds"] < 18 and not result["smoke"]:
        print("   phases are shortened uniformly from the issue's 8-15 s to fit the time cap; "
              "shapes (N, sizes, rates, subscribers) are unchanged")
    for metric, value in result["end_to_end"].items():
        print(f"   {metric:<22}{fmt(value):>14} {units[metric]}")
    print(f"   {'failed_share':<22}{fmt(result['failed_share']):>14} ratio"
          f"   ({result['failed']} of {result['attempted']} operations)")
    for phase, r in result["phases"].items():
        extra = {
            k: r[k] for k in ("offered_per_s", "in_flight", "revisions", "containers",
                              "events_executed", "generator_late_p99_ms", "p50_all_ms", "p99_all_ms",
                              "max_ms", "raw_rate_per_s", "mean_rate_per_s", "wall_s", "raw_wall_s",
                              "cpu_factor")
            if k in r
        }
        print(f"   phase {phase:<7} rate {fmt(r['rate_per_s'])}/s  p50 {fmt(r['p50_ms'])} ms  "
              f"p99 {fmt(r['p99_ms'])} ms  n={r['samples']}  "
              + "  ".join(f"{k}={fmt(v)}" for k, v in extra.items()))
    print(f"   CPU-bound numbers (closed-loop rates, the fleet) are corrected to a reference CPU of "
          f"{result['cpu_reference_ns_per_iteration']:g} ns per calibration-loop iteration; raw_* and "
          "cpu_factor are as the host ran them")
    if not result["valid"]:
        print(f"   INVALID, not slow: the generator ran {fmt(result['generator_late_p99_ms'])} ms "
              "late at p99 (limit 5 ms)")
    if not result["correct"]:
        print(f"   INCORRECT: {result['violations']} correctness violations")


def print_named(results):
    """The issue's metric names, with units and sample counts."""
    print("\n== end-to-end metrics by name")
    for name, unit, workload, phase, key, scale in NAMED_METRICS:
        result = results.get(workload)
        if result is None:
            continue
        r = result["phases"][phase]
        print(f"   {name:<28}{fmt(r[key] * scale):>14} {unit:<9} n={r['samples']}")
    for workload, result in results.items():
        print(f"   {'setup_s[' + workload + ']':<28}{fmt(result['end_to_end']['setup_s']):>14} s"
              f"         n={len(result['setup_s_all'])}")
        print(f"   {'failed_share[' + workload + ']':<28}{fmt(result['failed_share']):>14} ratio"
              f"     n={result['attempted']}")
    if "fleet_sim" in results:
        print(f"   {'fleet_peak_rss_mb':<28}"
              f"{fmt(results['fleet_sim']['end_to_end']['peak_rss_mb']):>14} MB")


READING_RULES = """\
   How to read: one loop thread, so nothing overlaps; a layer that gets faster saves at most
   its self_us_per_op x operations on the closed-loop rate. The waits (batching.wait,
   reliability.ack_wait, filetransfer.chunk_gap, runtime.loop_lag) are where open-loop and w1
   latency goes; they do not show as CPU. Rows plus 'unattributed' sum to the busy time."""


def print_per_layer(result, contract):
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    print(f"\n== {result['workload']}: per-layer ledger (traced run; one op = {result['op']})")
    for phase, rows in result["layer_tables"].items():
        trace = result["phases"][phase]["trace"]
        print(f"   phase {phase}: busy {trace['busy_cpu_s']:.3f} s of {trace['wall_s']:.3f} s wall, "
              f"{result['phases'][phase]['ops']} ops")
        print(f"     {'layer':<58}{'calls':>10}{'self ms':>11}{'us/op':>10}{'of busy':>9}")
        for row in rows:
            print(f"     {row['layer']:<58}{row['calls']:>10}{row['self_ms']:>11.1f}"
                  f"{row['self_us_per_op']:>10.3f}{row['share_of_busy']:>9.3f}")
    if "fleet_layer_ratios" in result:
        print("   per-layer cost per kernel event, N=1000 over N=100:")
        for layer, r in result["fleet_layer_ratios"].items():
            print(f"     {layer:<58}{r['us_per_event_n100']:>10.3f}{r['us_per_event_n1000']:>10.3f}"
                  f"   x{r['ratio']:.2f}")
    w = result["wait_attribution"]
    if w["share_explained_by_waits"] > 0.05:  # batching is on this workload's latency path
        beside = ", ".join(f"{k} {fmt(v)}" for k, v in w["beside_the_path_ms"].items())
        print(f"   {w['phase']} p50 (traced) {w['measured_p50_ms']:.3f} ms = "
              f"{w['batcher_crossings_in_series']} x batching.wait_p50 in series "
              f"{w['batching_wait_in_series_ms']:.3f} ms ({w['share_explained_by_waits']:.2f}) "
              f"+ loop CPU per op {w['loop_cpu_per_op_ms']:.3f} ms "
              f"({w['share_explained_with_cpu']:.2f} together); beside the path: {beside}")
    for metric, value in result["per_layer"].items():
        if value or value is None:
            print(f"   {metric:<42}{fmt(value):>14} {units[metric]}")
    print("   (metrics that are 0 on this workload are not listed)")
    for layer, targets in result["absent_layers"].items():
        print(f"   absent layer {layer}: {', '.join(targets)}")
    for error in result.get("probe_errors", []):
        print(f"   probe failed: {error}")
    print(READING_RULES)


def contract_line(result, contract):
    """The one JSON object the contract asks for."""
    section = "per_layer" if result["traced"] else "end_to_end"
    values = result[section]
    metrics = {
        m["name"]: {"value": values[m["name"]] or 0.0, "unit": m["unit"]}
        for m in contract[section]
    }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def validate(workloads, results, traced_results, contract):
    """``--smoke``: the output for ``workloads`` agrees with BENCHMARK.json.
    -> [problems]."""
    problems = []
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    declared = [w["name"] for w in contract["workloads"]]
    if not 2 <= len(declared) <= 8:
        problems.append(f"{len(declared)} workloads declared; the contract allows 2 to 8")
    if not 1 <= len(contract["end_to_end"]) <= 16:
        problems.append("end_to_end must declare 1 to 16 metrics")
    if not 1 <= len(contract["per_layer"]) <= 128:
        problems.append("per_layer must declare 1 to 128 metrics")
    names = declared + [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    problems += [f"bad name {n!r}" for n in names if not name_re.fullmatch(n)]
    problems += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    if "setup_s" not in {m["name"] for m in contract["end_to_end"]}:
        problems.append("end_to_end lacks setup_s")
    problems += [f"bound of {m['name']} exceeds 0.25"
                 for m in contract["end_to_end"] if not 0 < m["bound"] <= 0.25]
    for section, runs in (("end_to_end", results), ("per_layer", traced_results)):
        wanted = {m["name"] for m in contract[section]}
        for workload in workloads:
            if workload not in runs:
                problems.append(f"{workload}: no {section} result")
                continue
            got = set(runs[workload][section])
            problems += [f"{workload}: {section} metric {n} missing" for n in wanted - got]
            problems += [f"{workload}: {section} metric {n} undeclared" for n in got - wanted]
    for workload, result in results.items():
        problems += [f"{workload}: end-to-end metric {n} is {v!r}"
                     for n, v in result["end_to_end"].items() if not v or v != v]
    return problems


def spread_table(passes, contract):
    """``--repeat``: per workload and metric, median, quartiles, max/min."""
    print(f"\n== {len(passes)} passes: median [q1, q3] spread=(q3-q1)/median  max/min")
    for workload in passes[0]:
        for metric in contract["end_to_end"]:
            values = [p[workload]["end_to_end"][metric["name"]] for p in passes if workload in p]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"   {workload:<18}{metric['name']:<20}{median:>12.5g} "
                  f"[{q1:.5g}, {q3:.5g}]  spread {(q3 - q1) / median:.3f} "
                  f"(bound {metric['bound']})  max/min {max(values) / min(values):.3f}")


def one_pass(workloads, args, contract, traced):
    results = {}
    for workload in workloads:
        result = run_worker(workload, args.seed, args.seconds, traced, args.smoke)
        if result is None:
            return None
        results[workload] = result
        if traced:
            print_per_layer(result, contract)
        else:
            print_end_to_end(result, contract)
    return results


def write_results(path, results, traced_results):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"untraced": results, "traced": traced_results}, indent=1) + "\n")
    print(f"wrote {path}")


def main():
    contract = load_contract()
    declared = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=declared, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="measured seconds per workload, split over its phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run under the ledger and report per-layer metrics instead")
    parser.add_argument("--traced", action="store_true",
                        help="untraced run, then the traced run of the same workloads")
    parser.add_argument("--out", type=Path, help="write the full results to this JSON file")
    parser.add_argument("--repeat", type=int, default=1,
                        help="K untraced passes, K result files (--out is their prefix)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s phases, small fleets, both runs; validate against BENCHMARK.json")
    args = parser.parse_args()
    workloads = [args.workload] if args.workload else declared
    print("loopback only; AsyncRuntime(use_uvloop=False); one load-generating thread; "
          "one container configuration for every workload")

    if args.repeat > 1:
        passes = []
        prefix = args.out or SUITE_DIR / "results" / "pass"
        for k in range(1, args.repeat + 1):
            print(f"\n#### pass {k} of {args.repeat}")
            results = one_pass(workloads, args, contract, traced=False)
            if results is None:
                return 2
            passes.append(results)
            write_results(prefix.with_name(f"{prefix.name}.{k}.json"), results, {})
        spread_table(passes, contract)
        return 0 if all(r["correct"] for p in passes for r in p.values()) else 1

    results, traced_results = {}, {}
    if not args.trace:
        results = one_pass(workloads, args, contract, traced=False)
        if results is None:
            return 2
        if not args.workload:
            print_named(results)
    if args.trace or args.traced or args.smoke:
        traced_results = one_pass(workloads, args, contract, traced=True)
        if traced_results is None:
            return 2
    everything = list(results.values()) + list(traced_results.values())
    print("\nconfiguration applied to every container:",
          json.dumps(everything[0]["environment"]["config"]))
    if args.out:
        write_results(args.out, results, traced_results)
    status = 0 if all(r["correct"] for r in everything) else 1
    if args.smoke:
        problems = validate(workloads, results, traced_results, contract)
        for problem in problems:
            print(f"smoke: {problem}")
        print("smoke: output agrees with BENCHMARK.json" if not problems else "smoke: FAILED")
        status = status or (1 if problems else 0)
    if args.workload:
        sys.stdout.flush()
        print(contract_line(everything[-1], contract))
    return status


if __name__ == "__main__":
    sys.exit(main())
