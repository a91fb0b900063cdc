"""Architectural analysis: the static checker and the schema lock.

The checker (`python -m repro.analysis`) machine-checks the container
invariants no test or runtime monitor covers — services never touch the
network (REP001), sim-path code never reads ambient time/randomness
(REP002), dispatch-path code never blocks (REP004), decode rejections are
counted (REP005) and temporal specs are owned and bounded (REP006) — with
justified inline suppressions and a JSON report for CI.
:mod:`repro.analysis.schemalock` computes the wire-schema lockfile from
the live schema objects.

Nothing is re-exported here, and no runtime module imports this package:
a middleware process never loads the checker. Import the submodules
(``repro.analysis.engine``, ``repro.analysis.cli``) directly.
"""
