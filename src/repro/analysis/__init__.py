"""Architectural analysis: static checker + runtime sanitizers.

The static half (`python -m repro.analysis`) machine-checks the paper's
container invariants — services never touch the network (REP001), sim-path
code never reads ambient time/randomness (REP002), the frame/schema
registry stays sound (REP003), and dispatch-path code never blocks
(REP004) — with justified inline suppressions and a JSON report for CI.

The runtime half (:mod:`repro.analysis.sanitizers`) catches what static
analysis cannot: payload aliasing leaks across the local fast path.
"""

from repro.analysis.engine import Analyzer, run_analysis
from repro.analysis.findings import Finding, Report
from repro.analysis.rules import Rule, all_rules, register

__all__ = [
    "Analyzer",
    "run_analysis",
    "Finding",
    "Report",
    "Rule",
    "register",
    "all_rules",
]
