"""Tests for the interprocedural analysis layer: transitive REP002/REP004
and baseline-gated reporting.

Fixture trees live under ``analysis_fixtures/`` and mirror the real
``repro/`` layout so path-scoped defaults (service entry points, sim-path
scope) apply unchanged.
"""

from pathlib import Path

from repro.analysis import Analyzer
from repro.analysis.baseline import (
    apply_baseline,
    build_baseline,
    finding_key,
    load_baseline,
    write_baseline,
)
from repro.analysis.findings import Finding
from repro.analysis.rules.rep002_nondeterminism import NondeterminismRule
from repro.analysis.rules.rep004_blocking import BlockingCallRule
from tests.unit.test_callgraph import FIXTURES


def run_rules(fixture: str, rules, interprocedural: bool = True, baseline=None):
    root = FIXTURES / fixture
    analyzer = Analyzer(
        root,
        rules=rules,
        tests_dir=root / "tests",
        interprocedural=interprocedural,
        baseline=baseline,
    )
    return analyzer.run(paths=[root / "repro"])


def transitive(report, rule):
    return [f for f in report.findings if f.rule == rule and f.path]


class TestTransitiveRep004:
    def test_two_hop_sleep_chain_is_flagged_with_full_path(self):
        report = run_rules("interproc_taint", [BlockingCallRule()])
        hits = transitive(report, "REP004")
        sleep_hits = [f for f in hits if "time.sleep" in f.message]
        assert sleep_hits, "handler -> settle -> _retry -> sleep must be flagged"
        finding = next(f for f in sleep_hits if "on_photo" in f.message)
        # Reported at the entry point, in the services file.
        assert finding.file == "repro/services/camera.py"
        assert "repro/app/util.py" in finding.message  # the site, cited
        # The rendered path walks every hop to the site.
        rendered = " -> ".join(finding.path)
        assert "CameraService.on_photo" in rendered
        assert "settle" in rendered
        assert "_retry" in rendered
        assert "time.sleep" in rendered

    def test_socket_send_is_a_transitive_source(self):
        report = run_rules("interproc_taint", [BlockingCallRule()])
        hits = transitive(report, "REP004")
        assert any(
            "socket.sendall" in f.message and "on_flush" in f.message for f in hits
        )

    def test_socket_send_is_not_flagged_locally(self):
        report = run_rules(
            "interproc_taint", [BlockingCallRule()], interprocedural=False
        )
        assert not any("socket" in f.message for f in report.findings)

    def test_waived_site_is_not_a_taint_source(self):
        report = run_rules("interproc_taint", [BlockingCallRule()])
        assert not any("on_waived" in f.message for f in report.findings)

    def test_clean_handler_stays_clean(self):
        report = run_rules("interproc_taint", [BlockingCallRule()])
        assert not any("handle_clean" in f.message for f in report.findings)

    def test_unreachable_site_gets_no_transitive_finding(self):
        report = run_rules("interproc_taint", [BlockingCallRule()])
        assert not any("local_only" in f.message for f in transitive(report, "REP004"))

    def test_interprocedural_findings_superset_of_local(self):
        def keys(report):
            return {
                (f.rule, f.file, f.line, f.message)
                for f in report.findings
                if not f.path
            }

        local = run_rules(
            "interproc_taint", [BlockingCallRule()], interprocedural=False
        )
        inter = run_rules("interproc_taint", [BlockingCallRule()])
        assert keys(local) <= keys(inter)
        assert transitive(inter, "REP004") and not transitive(local, "REP004")


class TestTransitiveRep002:
    def test_ambient_random_reached_through_helper(self):
        report = run_rules("interproc_taint", [NondeterminismRule()])
        hits = transitive(report, "REP002")
        finding = next(f for f in hits if "on_sample" in f.message)
        assert finding.file == "repro/services/camera.py"
        assert "random.random" in finding.message
        assert any("jitter" in hop for hop in finding.path)

    def test_no_interprocedural_flag_disables_the_pass(self):
        report = run_rules(
            "interproc_taint", [NondeterminismRule()], interprocedural=False
        )
        assert not transitive(report, "REP002")


class TestBaseline:
    def _finding(self, message="stale debt", line=10):
        return Finding(
            rule="REP004", message=message, file="repro/app/util.py", line=line
        )

    def test_round_trip_marks_known_findings(self, tmp_path):
        findings = [self._finding(), self._finding(line=20)]
        path = tmp_path / "analysis-baseline.json"
        write_baseline(path, build_baseline(findings))
        fresh = [self._finding(line=99), self._finding(line=120)]
        matched = apply_baseline(fresh, load_baseline(path))
        assert matched == 2
        assert all(f.baselined for f in fresh)

    def test_count_overflow_gates(self, tmp_path):
        path = tmp_path / "analysis-baseline.json"
        write_baseline(path, build_baseline([self._finding()]))
        fresh = [self._finding(line=1), self._finding(line=2)]
        apply_baseline(fresh, load_baseline(path))
        assert [f.baselined for f in fresh] == [True, False]

    def test_key_is_line_insensitive_in_messages(self):
        a = self._finding("handler reaches `time.sleep` (repro/app/util.py:12)")
        b = self._finding("handler reaches `time.sleep` (repro/app/util.py:99)")
        assert finding_key(a) == finding_key(b)

    def test_suppressed_findings_never_enter_the_baseline(self):
        waived = self._finding()
        waived.suppressed = True
        assert build_baseline([waived])["entries"] == []

    def test_report_gates_only_on_new_findings(self, tmp_path):
        # Baseline the fixture's current debt: the report turns ok.
        rules = [BlockingCallRule()]
        dirty = run_rules("interproc_taint", rules)
        assert not dirty.ok
        path = tmp_path / "analysis-baseline.json"
        write_baseline(path, build_baseline(dirty.findings))
        gated = run_rules("interproc_taint", rules, baseline=path)
        assert gated.ok
        assert gated.new_unsuppressed == []
        assert any(f.baselined for f in gated.findings)
