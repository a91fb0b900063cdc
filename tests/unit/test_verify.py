"""Unit tests for the runtime-verification subsystem (repro.verify).

The property suite (tests/property/test_verify_properties.py) pins
compiled-vs-naive equivalence on arbitrary streams; these tests pin the
*intended* semantics on hand-written cases — so a bug that breaks both
engines identically still fails here — plus the engine routing, the
fleet wiring into recorder/metrics, per-container self-arming, and the
CLI front end.
"""

import json

import pytest

from repro.observability.probes import MonitorEvent
from repro.util.errors import ConfigurationError
from repro.verify.compiler import compile_spec
from repro.verify.interp import NaiveMonitor
from repro.verify.library import standard_specs, variable_validity
from repro.verify.monitor import FleetMonitor, MonitorEngine
from repro.verify.spec import (
    GLOBAL,
    Spec,
    Until,
    always,
    at_most_once,
    event,
    never,
    response,
    until,
)


def evt(kind, name="n", t=0.0, container="c1", key=None, **attrs):
    return MonitorEvent(kind, name, container, t, key=key, attrs=attrs)


def spec_of(formula, key=None, name="s", severity="error"):
    return Spec(name=name, owner="tests", formula=formula, key=key,
                severity=severity)


def run_compiled(spec, events, end=None):
    got = []
    automaton = compile_spec(spec, got.append)
    for e in events:
        if e.kind in spec.kinds():
            automaton.step(e)
    if end is not None:
        automaton.finish(end)
    return automaton, got


class TestSpecLanguage:
    def test_event_requires_kind(self):
        with pytest.raises(ConfigurationError):
            event("")

    def test_pattern_narrowing(self):
        p = event("var.serve", name="gps", band=2,
                  where=lambda e: e.time > 1.0)
        assert p.matches(evt("var.serve", "gps", t=2.0, band=2))
        assert not p.matches(evt("var.publish", "gps", t=2.0, band=2))
        assert not p.matches(evt("var.serve", "imu", t=2.0, band=2))
        assert not p.matches(evt("var.serve", "gps", t=2.0, band=1))
        assert not p.matches(evt("var.serve", "gps", t=0.5, band=2))

    def test_always_requires_callable(self):
        with pytest.raises(ConfigurationError):
            always(event("x"), that="not-callable")

    def test_response_bound_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            response(event("a"), event("b"), within=0.0)

    def test_spec_requires_name_owner_and_known_severity(self):
        formula = never(event("x"))
        with pytest.raises(ConfigurationError):
            Spec(name="", owner="o", formula=formula)
        with pytest.raises(ConfigurationError):
            Spec(name="n", owner="", formula=formula)
        with pytest.raises(ConfigurationError):
            Spec(name="n", owner="o", formula=formula, severity="fatal")

    def test_at_most_once_is_self_release_until(self):
        f = at_most_once(event("x"))
        assert isinstance(f, Until)
        assert f.allowed == f.release == event("x")

    def test_kinds_deduplicated_in_order(self):
        s = spec_of(response(event("rpc.call"), event("rpc.call")))
        assert s.kinds() == ("rpc.call",)
        s2 = spec_of(until(event("a"), event("b")))
        assert s2.kinds() == ("a", "b")


class TestCompiledSemantics:
    def test_never_fires_with_attribution(self):
        _, got = run_compiled(spec_of(never(event("boom"))),
                              [evt("boom", t=3.5, container="uav-7")])
        assert len(got) == 1
        v = got[0]
        assert (v.spec, v.reason, v.time, v.container) == (
            "s", "never", 3.5, "uav-7")
        assert v.event is not None and v.event.kind == "boom"

    def test_always_predicate(self):
        s = spec_of(always(event("m"), that=lambda e: e.attrs["ok"]))
        _, got = run_compiled(s, [evt("m", ok=True), evt("m", t=1.0, ok=False)])
        assert [(v.reason, v.time) for v in got] == [("always", 1.0)]

    def test_response_at_exactly_deadline_counts(self):
        s = spec_of(response(event("q"), event("r"), within=1.0))
        _, got = run_compiled(s, [evt("q", "k", t=0.0), evt("r", "k", t=1.0)],
                              end=5.0)
        assert got == []

    def test_response_timeout_stamped_at_deadline(self):
        s = spec_of(response(event("q"), event("r"), within=1.0))
        _, got = run_compiled(
            s, [evt("q", "k", t=0.0, container="asker"),
                evt("r", "k", t=2.0, container="replier")], end=5.0)
        assert len(got) == 1
        v = got[0]
        # Violation is stamped at the missed deadline and attributed to
        # the container that armed the obligation, not the late replier.
        assert (v.reason, v.time, v.container) == ("response-timeout", 1.0,
                                                   "asker")

    def test_earliest_trigger_holds_the_deadline(self):
        s = spec_of(response(event("q"), event("r"), within=1.0))
        _, got = run_compiled(
            s, [evt("q", "k", t=0.0), evt("q", "k", t=0.9),
                evt("r", "k", t=1.5)], end=5.0)
        # The second trigger does not re-arm; one violation at t=1.0.
        assert [(v.reason, v.time) for v in got] == [("response-timeout", 1.0)]

    def test_discharge_then_rearm_within_one_stream(self):
        s = spec_of(response(event("q"), event("r"), within=1.0))
        _, got = run_compiled(
            s, [evt("q", "k", t=0.0), evt("r", "k", t=0.5),
                evt("q", "k", t=0.6)], end=5.0)
        assert [(v.reason, v.time) for v in got] == [("response-timeout", 1.6)]

    def test_unbounded_response_never_times_out(self):
        s = spec_of(response(event("q"), event("r")))
        automaton, got = run_compiled(s, [evt("q", "k", t=0.0)], end=1e9)
        assert got == []
        assert automaton.pending_obligations() == [("k", None)]

    def test_until_violates_after_release_and_release_wins_ties(self):
        s = spec_of(until(event("use"), event("close")))
        _, got = run_compiled(
            s, [evt("use", "k", t=0.0), evt("close", "k", t=1.0),
                evt("use", "k", t=2.0)])
        assert [(v.reason, v.time) for v in got] == [("until", 2.0)]
        # at_most_once: the first occurrence is the release (release wins
        # when both patterns match); only repeats violate.
        s2 = spec_of(at_most_once(event("fire")))
        _, got2 = run_compiled(
            s2, [evt("fire", "k", t=0.0), evt("fire", "k", t=1.0),
                 evt("fire", "k", t=2.0)])
        assert [(v.time) for v in got2] == [1.0, 2.0]

    def test_per_key_scoping_isolates_obligations(self):
        s = spec_of(response(event("q"), event("r"), within=1.0))
        _, got = run_compiled(
            s, [evt("q", "a", t=0.0), evt("q", "b", t=0.2),
                evt("r", "a", t=0.5)], end=5.0)
        assert [(v.reason, v.key) for v in got] == [("response-timeout", "b")]

    def test_global_key_collapses_instances(self):
        s = spec_of(response(event("q"), event("r"), within=1.0), key=GLOBAL)
        _, got = run_compiled(
            s, [evt("q", "a", t=0.0), evt("r", "b", t=0.5)], end=5.0)
        assert got == []

    def test_string_and_callable_keys(self):
        s = spec_of(at_most_once(event("d")), key="slot")
        _, got = run_compiled(
            s, [evt("d", t=0.0, slot=1), evt("d", t=1.0, slot=2),
                evt("d", t=2.0, slot=1)])
        assert [(v.key, v.time) for v in got] == [(1, 2.0)]
        s2 = spec_of(at_most_once(event("d")),
                     key=lambda e: (e.container, e.name))
        _, got2 = run_compiled(
            s2, [evt("d", "x", t=0.0, container="c1"),
                 evt("d", "x", t=1.0, container="c2"),
                 evt("d", "x", t=2.0, container="c1")])
        assert [(v.key, v.time) for v in got2] == [(("c1", "x"), 2.0)]

    def test_finish_is_strict_about_the_boundary(self):
        s = spec_of(response(event("q"), event("r"), within=1.0))
        automaton, got = run_compiled(s, [evt("q", "k", t=0.0)], end=1.0)
        # deadline == now stays pending: truncation never manufactures one.
        assert got == []
        assert automaton.pending_obligations() == [("k", 1.0)]
        automaton.finish(1.0001)
        assert [(v.reason, v.time) for v in got] == [("response-timeout", 1.0)]
        assert automaton.pending_obligations() == []

    def test_violation_severity_follows_the_spec(self):
        s = spec_of(never(event("x")), severity="warning")
        _, got = run_compiled(s, [evt("x")])
        assert got[0].severity == "warning"

    def test_naive_interpreter_skips_unrouted_kinds(self):
        mon = NaiveMonitor(spec_of(never(event("x"))))
        mon.observe(evt("y"))
        assert mon.violations == []
        mon.observe(evt("x"))
        assert [v.reason for v in mon.violations] == ["never"]


class TestMonitorEngine:
    def test_duplicate_spec_names_rejected(self):
        with pytest.raises(ConfigurationError):
            MonitorEngine([spec_of(never(event("a"))),
                           spec_of(never(event("b")))])

    def test_routing_only_steps_matching_kinds(self):
        engine = MonitorEngine([spec_of(never(event("bad")))])
        engine.observe(evt("good"))
        engine.observe(evt("bad", t=1.0))
        assert engine.events_observed == 2
        assert [(v.spec, v.time) for v in engine.violations] == [("s", 1.0)]

    def test_on_violation_callback_and_pending(self):
        seen = []
        engine = MonitorEngine(
            [spec_of(response(event("q"), event("r"), within=2.0))],
            on_violation=seen.append)
        engine.observe(evt("q", "k", t=0.0))
        assert engine.pending() == {"s": [("k", 2.0)]}
        engine.finish(10.0)
        assert len(seen) == 1 and seen[0].reason == "response-timeout"
        assert engine.pending() == {}


SCHEMA = None  # built lazily to keep encoding imports out of pure-spec tests


def _schema():
    global SCHEMA
    if SCHEMA is None:
        from repro.encoding.types import FLOAT64, StructType

        SCHEMA = StructType("S", [("x", FLOAT64)])
    return SCHEMA


class TestFleetMonitorLive:
    def _stale_serve_fleet(self, monkeypatch):
        """A two-container fleet where the serve-freshness predicate is
        broken: .latest() hands out arbitrarily stale samples."""
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from helpers import two_containers

        from repro.primitives.variables import VariableManager

        runtime, a, b = two_containers(seed=5)
        pub = a.variables.provide("gps", _schema(), validity=0.5)
        monitor = runtime.enable_verification([variable_validity()])
        runtime.start()
        runtime.run_for(2.0)
        sub = b.variables.subscribe("gps")
        pub.publish({"x": 1.0})
        runtime.run_for(3.0)  # sample is now 3 s old, validity 0.5 s
        monkeypatch.setattr(VariableManager, "_fresh",
                            lambda self, sub, validity, age: True)
        assert sub.latest() == {"x": 1.0}  # the bug serves the stale value
        return runtime, b, sub, monitor

    def test_clean_fleet_has_no_violations(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from helpers import two_containers

        runtime, a, b = two_containers(seed=4)
        pub = a.variables.provide("gps", _schema(), validity=5.0)
        monitor = runtime.enable_verification(standard_specs())
        runtime.start()
        runtime.run_for(2.0)
        sub = b.variables.subscribe("gps")
        pub.publish({"x": 2.5})
        runtime.run_for(1.0)
        assert sub.latest() == {"x": 2.5}
        report = runtime.verification_report()
        assert report["violations"] == []
        assert report["events_observed"] > 0
        assert len(report["specs"]) == 5

    def test_stale_serve_is_caught_and_fanned_out(self, monkeypatch):
        runtime, b, _, monitor = self._stale_serve_fleet(monkeypatch)
        runtime.verification_report()
        assert len(monitor.violations) == 1
        v = monitor.violations[0]
        assert (v.spec, v.key, v.container, v.reason) == (
            "var-validity", "gps", "b", "always")
        entries = [e for e in b.recorder.dump()
                   if e["category"] == "verify.violation"]
        assert len(entries) == 1 and entries[0]["spec"] == "var-validity"
        snapshot = b.metrics.snapshot()
        assert snapshot[
            "verify_violations{severity=error,spec=var-validity}"] == 1

    def test_violation_carries_ambient_trace_context(self, monkeypatch):
        runtime, b, sub, monitor = self._stale_serve_fleet(monkeypatch)
        b.tracer.enabled = True
        span = b.tracer.start_span("stale-read", kind="test")
        with b.tracer.activate(span.context()):
            sub.latest()
        b.tracer.finish(span)
        runtime.verification_report()
        traced = [v for v in monitor.violations if v.trace_id is not None]
        assert traced
        assert traced[-1].span_id == span.span_id

    def test_one_container_arms_through_attach(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from helpers import two_containers

        runtime, a, b = two_containers(seed=6)
        monitor = FleetMonitor()
        monitor.attach(a)
        runtime.start()
        runtime.run_for(1.0)
        assert a.probes.enabled and not b.probes.enabled
        assert len(monitor.specs) == 5
        assert monitor.engine.events_observed > 0
        assert monitor.finish(runtime.sim.now()) == []
        runtime.stop()

    def test_verification_off_keeps_probes_dormant(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from helpers import two_containers

        runtime, a, b = two_containers(seed=6)
        runtime.start()
        runtime.run_for(1.0)
        assert not a.probes.enabled
        runtime.stop()


MISSION_DOC = {
    "name": "verify-smoke",
    "origin": {"lat": 41.0, "lon": 2.0, "alt": 280},
    "cruise_speed": 22.0,
    "plan": {"type": "survey", "rows": 1, "row_length_m": 400,
             "photos_per_row": 1},
    "mission": {"photo_prefix": "px", "detection_threshold": 0.4},
    "camera": {"default_features": 1},
}


class TestCliVerify:
    def test_verify_command_clean_mission(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "m.json"
        path.write_text(json.dumps(MISSION_DOC), encoding="utf-8")
        code = main(["verify", str(path), "--seed", "3",
                     "--timeout", "300", "--json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["completed"] is True
        assert doc["violations"] == []
        assert doc["events_observed"] > 0
        assert {s["name"] for s in doc["specs"]} >= {
            "var-validity", "invocation-termination"}

    def test_verify_command_human_output(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "m.json"
        path.write_text(json.dumps(MISSION_DOC), encoding="utf-8")
        code = main(["verify", str(path), "--seed", "3", "--timeout", "300"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no violations" in out
        assert "spec var-validity" in out
