"""Tests for the architectural checker (repro.analysis).

Each rule gets a positive fixture (must fire) and a negative fixture
(must stay silent) under ``tests/unit/analysis_fixtures/``; the fixture
trees mirror the real ``repro/`` layout so path-scoped rules apply with
their default configuration. The meta-test at the bottom is the real
gate: the checker must run clean on the actual source tree.
"""

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import SRC_ROOT, deployment_closure

from repro.analysis.cli import main as analysis_main
from repro.analysis.engine import Analyzer, run_analysis
from repro.analysis.rules.rep001_transport import TransportReachAroundRule
from repro.analysis.rules.rep002_nondeterminism import NondeterminismRule
from repro.analysis.rules.rep004_blocking import BlockingCallRule
from repro.analysis.rules.rep005_decode_paths import SilentDecodeDropRule
from repro.analysis.rules.rep006_spec_hygiene import SpecHygieneRule

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def run_rule(rule, fixture: str):
    root = FIXTURES / fixture
    analyzer = Analyzer(root, rules=[rule])
    return analyzer.run(paths=[root / "repro"])


class TestRep001Transport:
    def test_fires_on_direct_transport_use(self):
        report = run_rule(TransportReachAroundRule(), "rep001_bad")
        findings = report.unsuppressed
        assert findings, "REP001 must fire on the bad fixture"
        assert all(f.rule == "REP001" for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert "socket" in messages
        assert "repro.transport.udp" in messages
        assert "repro.simnet.network" in messages
        assert "repro.simnet.models" in messages

    def test_silent_on_clean_service(self):
        report = run_rule(TransportReachAroundRule(), "rep001_good")
        assert report.ok
        assert not report.unsuppressed


class TestRep002Nondeterminism:
    def test_fires_on_every_ambient_source(self):
        report = run_rule(NondeterminismRule(), "rep002_bad")
        messages = "\n".join(f.message for f in report.unsuppressed)
        assert "time.time" in messages
        assert "datetime.now" in messages
        assert "random.random" in messages
        assert "os.urandom" in messages
        # `from time import time as wallclock` — the direct-import form.
        assert "imported directly" in messages

    def test_silent_on_clock_and_rng_discipline(self):
        report = run_rule(NondeterminismRule(), "rep002_good")
        assert report.ok
        assert not report.unsuppressed


class TestRep004Blocking:
    def test_fires_on_sleep_file_io_and_unbounded_acquire(self):
        report = run_rule(BlockingCallRule(), "rep004_bad")
        messages = "\n".join(f.message for f in report.unsuppressed)
        assert "time.sleep" in messages
        assert "builtin `open`" in messages
        assert "acquire" in messages
        # Both the attribute call and the bare imported `sleep(...)`.
        lines = sorted(f.line for f in report.unsuppressed)
        assert len(lines) >= 4

    def test_silent_on_timer_based_handler(self):
        report = run_rule(BlockingCallRule(), "rep004_good")
        assert report.ok
        assert not report.unsuppressed


class TestRep005DecodePaths:
    def test_fires_on_every_silent_swallow_shape(self):
        report = run_rule(SilentDecodeDropRule(), "rep005_bad")
        findings = report.unsuppressed
        assert findings, "REP005 must fire on the bad fixture"
        assert all(f.rule == "REP005" for f in findings)
        messages = "\n".join(f.message for f in findings)
        # `except ProtocolError: pass`, the tuple catch returning None,
        # and `except struct.error: ...` are three separate findings.
        assert len(findings) == 3
        assert "ProtocolError" in messages
        assert "EncodingError" in messages
        assert "struct.error" in messages
        assert "note_malformed" in messages

    def test_silent_when_rejections_are_accounted(self):
        # Tally+quarantine feed, counter call, and re-raise all pass;
        # a swallowed non-decode exception (OSError) is out of scope.
        report = run_rule(SilentDecodeDropRule(), "rep005_good")
        assert report.ok
        assert not report.unsuppressed


class TestRep006SpecHygiene:
    def test_fires_on_every_hygiene_failure_shape(self):
        report = run_rule(SpecHygieneRule(), "rep006_bad")
        findings = report.unsuppressed
        assert findings, "REP006 must fire on the bad fixture"
        assert all(f.rule == "REP006" for f in findings)
        messages = "\n".join(f.message for f in findings)
        # Missing owner, blank owner, two unbounded response() shapes,
        # and the aliased import are five separate findings.
        assert len(findings) == 5
        assert "without owner=" in messages
        assert "owner is blank" in messages
        assert "unbounded response()" in messages
        assert "within=None" in messages

    def test_silent_on_owned_bounded_and_waived_specs(self):
        report = run_rule(SpecHygieneRule(), "rep006_good")
        assert report.ok
        assert not report.unsuppressed
        # The teardown-liveness waiver is kept as an audit trail.
        assert any(
            f.suppressed and "teardown-only" in (f.justification or "")
            for f in report.findings
        )


class TestSuppressions:
    def _analyze(self, tmp_path: Path, source: str):
        target = tmp_path / "repro" / "services" / "svc.py"
        target.parent.mkdir(parents=True)
        target.write_text(source, encoding="utf-8")
        return run_analysis(tmp_path, paths=[tmp_path / "repro"])

    def test_justified_suppression_waives_but_keeps_audit_trail(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "import time\n\n"
            "def handler():\n"
            "    # repro: allow[REP004] -- startup barrier, documented\n"
            "    time.sleep(0.1)\n",
        )
        suppressed = [f for f in report.findings if f.suppressed]
        assert any(f.rule == "REP004" for f in suppressed)
        assert all(f.rule != "REP004" for f in report.unsuppressed)
        assert any(
            f.justification == "startup barrier, documented" for f in suppressed
        )

    def test_unjustified_suppression_is_rep000_error(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "import time\n\n"
            "def handler():\n"
            "    time.sleep(0.1)  # repro: allow[REP004]\n",
        )
        assert not report.ok
        assert any(
            f.rule == "REP000" and "justification" in f.message
            for f in report.unsuppressed
        )

    def test_rep000_cannot_be_waived(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "# repro: allow-file[REP000] -- trying to silence the meta-rule\n"
            "import time\n\n"
            "def handler():\n"
            "    time.sleep(0.1)  # repro: allow[REP004]\n",
        )
        assert any(f.rule == "REP000" for f in report.unsuppressed)

    def test_stale_suppression_is_a_warning(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "# repro: allow[REP004] -- nothing blocking below anymore\n"
            "VALUE = 1\n",
        )
        stale = [
            f for f in report.findings
            if f.severity == "warning" and "never matched" in f.message
        ]
        assert stale
        # Warnings do not fail the run.
        assert report.ok

    def test_file_scope_suppression_covers_whole_file(self, tmp_path):
        report = self._analyze(
            tmp_path,
            "# repro: allow-file[REP002] -- wall-clock harness by design\n"
            "import time\n\n"
            "A = time.time()\n"
            "B = time.monotonic()\n",
        )
        assert report.ok
        assert sum(1 for f in report.findings if f.suppressed) == 2

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        report = self._analyze(
            tmp_path,
            '"""Docs may show `# repro: allow[REP004]` without effect."""\n'
            "import time\n\n"
            "def handler():\n"
            "    time.sleep(0.1)\n",
        )
        assert not report.ok
        assert any(f.rule == "REP004" for f in report.unsuppressed)


class TestReportAndCli:
    def test_json_report_shape(self, tmp_path):
        target = tmp_path / "repro" / "services" / "svc.py"
        target.parent.mkdir(parents=True)
        target.write_text("import socket\n", encoding="utf-8")
        report = run_analysis(tmp_path, paths=[tmp_path / "repro"])
        doc = report.to_dict()
        assert doc["version"] == 2
        assert doc["ok"] is False
        assert doc["files_scanned"] == 1
        assert set(doc["counts"]) == {"total", "suppressed", "unsuppressed", "by_rule"}
        assert doc["counts"]["by_rule"].get("REP001", 0) >= 1
        finding = doc["findings"][0]
        assert {"rule", "message", "file", "line", "column", "severity",
                "suppressed"} <= set(finding)

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "services" / "svc.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import socket\n", encoding="utf-8")
        assert analysis_main(["check", "--root", str(tmp_path)]) == 1
        assert analysis_main(["check", "--root", str(tmp_path / "missing")]) == 2
        capsys.readouterr()

    def test_list_rules_catalog(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        codes = [line.split()[0] for line in out.splitlines()]
        assert codes == ["REP001", "REP002", "REP004", "REP005", "REP006"]


class TestCheckerOnRealTree:
    def test_source_tree_is_clean(self):
        """The gate: `python -m repro.analysis` must pass on src/repro."""
        report = run_analysis(SRC_ROOT, paths=[SRC_ROOT / "repro"])
        rendered = "\n".join(f.render() for f in report.unsuppressed)
        assert report.ok, f"architectural violations in src/repro:\n{rendered}"

    def test_every_suppression_in_tree_is_justified(self):
        report = run_analysis(SRC_ROOT, paths=[SRC_ROOT / "repro"])
        for finding in report.findings:
            if finding.suppressed:
                assert finding.justification, (
                    f"{finding.file}:{finding.line} suppression without "
                    f"justification"
                )


class TestImportBoundary:
    def test_a_running_container_does_not_load_the_linter(self):
        # No runtime module imports repro.analysis: a middleware process
        # loads neither the checker nor anything else from the package.
        # Fails at the parent, whose container imported the payload
        # sanitizer from it.
        script = (
            "import sys\n"
            "from repro import SimRuntime\n"
            "runtime = SimRuntime(seed=1)\n"
            "runtime.add_container('node')\n"
            "runtime.start()\n"
            "runtime.run_for(1.0)\n"
            "runtime.stop()\n"
            "loaded = [m for m in sys.modules if m.split('.')[:2] == ['repro', 'analysis']]\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_a_deployment_loads_no_simulator_and_no_application(self):
        # Addressing lives in the transport and the package roots import
        # neither the simulator nor the apps, so an AsyncRuntime container
        # with one bare service loads only the middleware. The scenario
        # also checks that `from repro import SimRuntime` still resolves.
        # The TCP model is E5's baseline only: no container path loads it.
        substrates = {"sim", "simnet", "flight", "imaging", "faults", "analysis",
                      "verify", "telemetry"}
        loaded = deployment_closure()
        forbidden = [
            m for m in loaded
            if m.partition(".")[2].split(".")[0] in substrates
            or m in ("repro.runtime.simruntime", "repro.transport.sim",
                     "repro.protocol.tcp_like")
            or (m.startswith("repro.services.") and m != "repro.services.base")
        ]
        assert not forbidden, forbidden
        assert "repro.runtime.async_runtime" in loaded
