"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts one of these per workload, so every workload gets a fresh
interpreter (its own peak RSS, no warm caches from a neighbour). Untraced,
the result carries the end-to-end metrics; traced, the same workload runs
again under the ledger's wrappers and the result carries the per-layer
metrics — end-to-end numbers are never taken from a traced run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

SUITE_DIR = Path(__file__).resolve().parent
SRC_DIR = SUITE_DIR.parent.parent / "src"
if not (SRC_DIR / "repro").is_dir():
    sys.exit(f"{SRC_DIR}/repro not found: the benchmark measures the checkout it sits in")
sys.path.insert(0, str(SRC_DIR))

import conditions  # noqa: E402
from calibration import REFERENCE_NS_PER_ITERATION, corrected_seconds, cpu_factor  # noqa: E402
from layers import PhaseTrace, fleet_layer_ratios, per_layer_metrics  # noqa: E402
from ledger import Ledger, LoopLagProbe  # noqa: E402
from probes import raw_ceiling, run_probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WARM_UP_S = 1.0
SMOKE = {
    "file_transfer": {"file_bytes": 256 << 10},
    "fleet_sim": {"small_n": 40, "large_n": 100},
}


def build_repeatedly(make, repeats):
    """Set-up is repeated and the median reported; the last build is the one
    measured on. -> (that workload, every build's duration)."""
    durations = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        workload = make()
        before = cpu_factor()
        t0 = perf_counter()
        own = workload.build()  # a CPU-bound build may time its own stretches
        seconds = perf_counter() - t0
        if own is not None:
            seconds = own
        elif workload.SETUP_CPU_BOUND:
            seconds = corrected_seconds([seconds], [before, cpu_factor()])
        durations.append(seconds)
    return workload, durations


def phase_seconds(workload_class, seconds, smoke):
    """``--seconds`` split by each phase's share; one second each in smoke."""
    return {p: 1.0 if smoke else seconds * share for p, share in workload_class.PHASES}


def run_phases(workload, durations, tracer=None):
    phases = {}
    for phase in durations:
        if tracer is not None:
            tracer.begin(workload)
        result = workload.run_phase(phase, durations[phase])
        if tracer is not None:
            result["trace"] = tracer.end(workload, result)
        phases[phase] = result
    return phases


class Tracer:
    """Brackets a phase: ledger snapshot, busy CPU, wall, loop lag."""

    def __init__(self, ledger):
        self.ledger = ledger

    def begin(self, workload):
        self.lag = LoopLagProbe(workload.plane.runtime) if workload.plane else None
        self.factor0 = cpu_factor()
        self.cpu0 = workload.busy_cpu_s()
        self.t0 = perf_counter()
        self.ledger.begin_phase()
        if self.lag:
            workload.plane.on_reactor(self.lag.start)

    def end(self, workload, result):
        snapshot = self.ledger.end_phase()
        # Per-layer times are as the host ran them; this says how fast that was.
        snapshot["cpu_factor"] = result.get("cpu_factor", (self.factor0 + cpu_factor()) / 2)
        # A phase that measures only parts of itself says how much that was.
        snapshot["wall_s"] = result.get("measured_wall_s", perf_counter() - self.t0)
        snapshot["busy_cpu_s"] = result.get(
            "measured_cpu_s", workload.busy_cpu_s() - self.cpu0
        )
        overshoot = workload.plane.on_reactor(self.lag.stop) if self.lag else []
        snapshot["loop_lag_ns"] = [s * 1e9 for s in overshoot]
        return snapshot


def wait_attribution(workload, light, per_layer):
    """How much of the traced LIGHT-phase p50 the named waits explain. An
    invocation crosses the batcher twice in series (request, response), a
    fan-out delivery once; the loop's CPU per operation is on the path too.
    ACK coalescing and loop lag run beside the path: listed, not summed."""
    crossings = workload.BATCHER_CROSSINGS
    waits_ms = crossings * (per_layer["batching.wait_p50_ms"] or 0.0)
    cpu_ms = light["trace"]["busy_cpu_s"] / light["ops"] * 1e3 if light["ops"] else 0.0
    measured = light["p50_ms"]
    return {
        "phase": workload.LIGHT,
        "measured_p50_ms": measured,
        "batcher_crossings_in_series": crossings,
        "batching_wait_in_series_ms": waits_ms,
        "loop_cpu_per_op_ms": cpu_ms,
        "share_explained_by_waits": waits_ms / measured if measured else 0.0,
        "share_explained_with_cpu": (waits_ms + cpu_ms) / measured if measured else 0.0,
        "beside_the_path_ms": {
            "reliability.ack_wait_p50_ms": per_layer["reliability.ack_wait_p50_ms"],
            "runtime.loop_lag_p50_ms": per_layer["runtime.loop_lag_p50_ms"],
        },
    }


def prepare_tracing(make, durations, seed):
    """What a traced run does before the measured workload exists: the
    probes and an untraced reference of one phase (both on bare callables),
    then the wrappers. -> (tracer, extras for ``per_layer_metrics``)."""
    from repro import ContainerConfig

    extras = {}
    extras["probes"], extras["probe_errors"] = run_probes(seed)
    reference = make()
    reference.build()
    reference.warm_up(WARM_UP_S)
    phase = reference.reference_phase
    extras["reference"] = reference.run_phase(phase, max(1.0, durations[phase] / 2))["rate_per_s"]
    extras["raw_ceiling"] = raw_ceiling() if reference.plane else None
    reference.close()
    codec = ContainerConfig("probe", "probe", **conditions.container_config()).codec
    ledger = Ledger(codec)
    ledger.install()
    extras["absent"] = ledger.absent
    return Tracer(ledger), extras


def run(name, seed, seconds, traced, smoke):
    sys.setswitchinterval(conditions.SWITCH_INTERVAL_S)
    kwargs = SMOKE.get(name, {}) if smoke else {}
    durations = phase_seconds(WORKLOADS[name], seconds, smoke)

    def make():
        return WORKLOADS[name](seed, **kwargs)

    result = {
        "workload": name,
        "traced": traced,
        "smoke": smoke,
        "seconds": seconds,
        "environment": conditions.environment(seed),
        "op": WORKLOADS[name].OP,
        "phase_seconds": durations,
        "warm_up_s": WARM_UP_S,
        "cpu_reference_ns_per_iteration": REFERENCE_NS_PER_ITERATION,
    }
    tracer, extras = None, {}
    if traced:
        tracer, extras = prepare_tracing(make, durations, seed)
        result["probe_errors"] = extras.pop("probe_errors")

    workload, setups = build_repeatedly(make, 3 if smoke else WORKLOADS[name].SETUP_REPEATS)
    workload.warm_up(WARM_UP_S)
    phases = run_phases(workload, durations, tracer)
    workload.close()

    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    violations = sum(p["violations"] for p in phases.values())
    light = phases[workload.LIGHT]
    result.update(
        phases=phases,
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted,
        violations=violations,
        correct=violations == 0,
        setup_s_all=setups,
        end_to_end={
            "setup_s": statistics.median(setups),
            "throughput_per_s": phases[workload.throughput_phase]["rate_per_s"],
            "latency_p50_ms": light["p50_ms"],
            "latency_p99_ms": light["p99_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    )
    # A late generator makes the latency it feeds invalid, not slow.
    late = light.get("generator_late_p99_ms", 0.0)
    result["generator_late_p99_ms"] = late
    result["valid"] = late <= 5.0
    if traced:
        extras["traced_reference_rate"] = phases[workload.reference_phase]["rate_per_s"]
        result["per_layer"] = per_layer_metrics(workload, phases, extras)
        result["absent_layers"] = extras["absent"]
        result["layer_tables"] = {
            phase: PhaseTrace(r["trace"], r["ops"]).layer_table() for phase, r in phases.items()
        }
        if "n1000" in phases:
            result["fleet_layer_ratios"] = fleet_layer_ratios(phases)
        result["wait_attribution"] = wait_attribution(workload, light, result["per_layer"])
        for phase_result in phases.values():  # the raw wait samples are bulky
            for key in ("batch_waits_ns", "ack_waits_ns", "chunk_gaps_ns", "loop_lag_ns"):
                phase_result["trace"].pop(key)
    result["environment"]["loadavg_1m_end"] = conditions.loadavg_1m()
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
