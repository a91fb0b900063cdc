"""Unit tests for the project call graph (repro.analysis.callgraph)."""

from pathlib import Path

from repro.analysis.callgraph import build_callgraph, module_name
from repro.analysis.context import Project, SourceFile

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def load_project(fixture: str) -> Project:
    root = FIXTURES / fixture
    files = [
        SourceFile.load(path, root)
        for path in sorted(root.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]
    return Project(root=root, files=files)


class TestModuleName:
    def test_plain_module(self):
        assert module_name("repro/container/gossip.py") == "repro.container.gossip"

    def test_package_init(self):
        assert module_name("repro/app/__init__.py") == "repro.app"


class TestResolution:
    def test_from_import_call_resolves_across_modules(self):
        graph = build_callgraph(load_project("interproc_taint"))
        callees = {
            s.callee
            for s in graph.callees("repro.services.camera.CameraService.on_photo")
        }
        assert "repro.app.util.settle" in callees

    def test_local_function_call_resolves(self):
        graph = build_callgraph(load_project("interproc_taint"))
        callees = {s.callee for s in graph.callees("repro.app.util.settle")}
        assert callees == {"repro.app.util._retry"}

    def test_self_method_call_resolves(self):
        graph = build_callgraph(load_project("self_method_calls"))
        callees = {s.callee for s in graph.callees("repro.app.locks.Pair.forward")}
        assert "repro.app.locks.Pair._grab_b" in callees

    def test_unresolvable_call_adds_no_edge(self):
        # sock.sendall resolves to no project function: conservative
        # under-approximation, the graph stays silent.
        graph = build_callgraph(load_project("interproc_taint"))
        assert graph.callees("repro.app.util.flush_socket") == []


class TestEntryPoints:
    def test_service_functions_and_handlers_are_entries(self):
        graph = build_callgraph(load_project("interproc_taint"))
        entries = {f.qualname for f in graph.entry_points()}
        assert "repro.services.camera.CameraService.on_photo" in entries
        assert "repro.services.camera.CameraService.handle_clean" in entries
        # Helpers outside repro/services/ with non-handler names are not.
        assert "repro.app.util.settle" not in entries
        assert "repro.app.util._retry" not in entries

    def test_dunder_methods_are_not_entries(self):
        graph = build_callgraph(load_project("interproc_taint"))
        entries = {f.qualname for f in graph.entry_points()}
        assert "repro.services.camera.CameraService.__init__" not in entries
