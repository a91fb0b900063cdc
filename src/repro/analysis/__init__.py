"""Architectural analysis: static checker + runtime sanitizers.

The static half (`python -m repro.analysis`) machine-checks the container
invariants no test or runtime monitor covers — services never touch the
network (REP001), sim-path code never reads ambient time/randomness
(REP002), dispatch-path code never blocks (REP004), decode rejections are
counted (REP005) and temporal specs are owned and bounded (REP006) — with
justified inline suppressions and a JSON report for CI.
:mod:`repro.analysis.schemalock` computes the wire-schema lockfile from
the live schema objects.

The runtime half (:mod:`repro.analysis.sanitizers`) catches what static
analysis cannot: payload aliasing leaks across the local fast path.

Nothing is re-exported here: the container imports the sanitizer, and a
middleware process must not load the checker with it. Import the
submodules (``repro.analysis.engine``, ``repro.analysis.cli``) directly.
"""
