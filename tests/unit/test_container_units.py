"""Unit tests for container support pieces: lifecycle, resources, config."""

import pytest

from repro.container.config import ContainerConfig
from repro.container.lifecycle import ServiceRecord, ServiceState
from repro.container.resources import ResourceLimits, ResourceManager
from repro.util.errors import ConfigurationError, ResourceError, ServiceError


class TestLifecycle:
    def make(self):
        return ServiceRecord(name="svc", service=object())

    def test_normal_path(self):
        record = self.make()
        record.transition(ServiceState.STARTING)
        record.transition(ServiceState.RUNNING)
        assert record.is_running
        record.transition(ServiceState.STOPPING)
        record.transition(ServiceState.STOPPED)
        assert not record.is_running

    def test_illegal_transition_rejected(self):
        record = self.make()
        with pytest.raises(ServiceError, match="illegal transition"):
            record.transition(ServiceState.RUNNING)

    def test_fail_from_any_state(self):
        record = self.make()
        record.transition(ServiceState.STARTING)
        record.fail("boom")
        assert record.state == ServiceState.FAILED
        assert record.failure_reason == "boom"

    def test_restart_counts_and_clears_failure(self):
        record = self.make()
        record.transition(ServiceState.STARTING)
        record.fail("boom")
        record.transition(ServiceState.STARTING)
        assert record.restarts == 1
        assert record.failure_reason is None

    def test_fail_respects_transition_table(self):
        # INSTALLED -> FAILED is not a legal hop; the old fail() assigned
        # the state directly and silently accepted it.
        record = self.make()
        with pytest.raises(ServiceError, match="illegal transition"):
            record.fail("boom")
        assert record.state == ServiceState.INSTALLED

    def test_fail_from_stopped_rejected(self):
        record = self.make()
        record.transition(ServiceState.STARTING)
        record.transition(ServiceState.RUNNING)
        record.transition(ServiceState.STOPPING)
        record.transition(ServiceState.STOPPED)
        assert not record.can_fail
        with pytest.raises(ServiceError, match="illegal transition"):
            record.fail("late callback")
        assert record.state == ServiceState.STOPPED

    def test_observer_sees_every_transition(self):
        seen = []
        record = self.make()
        record.observer = lambda rec, old, new: seen.append((old, new))
        record.transition(ServiceState.STARTING)
        record.fail("boom")
        assert seen == [
            (ServiceState.INSTALLED, ServiceState.STARTING),
            (ServiceState.STARTING, ServiceState.FAILED),
        ]


class TestResources:
    def test_storage_quota_enforced(self):
        mgr = ResourceManager(ResourceLimits(storage_bytes=1000))
        mgr.allocate_storage("svc", 600)
        with pytest.raises(ResourceError, match="exhausted"):
            mgr.allocate_storage("other", 600)
        assert mgr.storage_free == 400

    def test_release_partial_and_full(self):
        mgr = ResourceManager(ResourceLimits(storage_bytes=1000))
        mgr.allocate_storage("svc", 500)
        mgr.release_storage("svc", 200)
        assert mgr.storage_held_by("svc") == 300
        mgr.release_storage("svc")
        assert mgr.storage_held_by("svc") == 0

    def test_over_release_rejected(self):
        mgr = ResourceManager()
        mgr.allocate_storage("svc", 100)
        with pytest.raises(ResourceError):
            mgr.release_storage("svc", 200)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            ResourceManager().allocate_storage("svc", -1)

    def test_exclusive_device(self):
        mgr = ResourceManager()
        mgr.acquire_device("camera0", "cam-svc")
        assert mgr.device_owner("camera0") == "cam-svc"
        with pytest.raises(ResourceError, match="held by"):
            mgr.acquire_device("camera0", "other")
        mgr.acquire_device("camera0", "cam-svc")  # idempotent for owner

    def test_device_release_checks_owner(self):
        mgr = ResourceManager()
        mgr.acquire_device("camera0", "cam-svc")
        with pytest.raises(ResourceError):
            mgr.release_device("camera0", "intruder")
        mgr.release_device("camera0", "cam-svc")
        assert mgr.device_owner("camera0") is None
        mgr.release_device("camera0", "cam-svc")  # releasing free device is fine

    def test_device_limit(self):
        mgr = ResourceManager(ResourceLimits(max_open_devices=2))
        mgr.acquire_device("d1", "s")
        mgr.acquire_device("d2", "s")
        with pytest.raises(ResourceError, match="too many"):
            mgr.acquire_device("d3", "s")

    def test_release_all(self):
        mgr = ResourceManager()
        mgr.allocate_storage("svc", 100)
        mgr.acquire_device("d1", "svc")
        mgr.acquire_device("d2", "other")
        mgr.release_all("svc")
        assert mgr.storage_held_by("svc") == 0
        assert mgr.device_owner("d1") is None
        assert mgr.device_owner("d2") == "other"


class TestConfig:
    def base(self, **kw):
        return ContainerConfig(container_id="c", node="n", **kw)

    def test_defaults_valid(self):
        config = self.base()
        assert config.codec == "binary"

    def test_defaults_ignore_the_environment(self, monkeypatch):
        """Fails at the parent, whose defaults read these variables."""
        armed = {
            "REPRO_RELIABILITY_HARDENING": "1",
            "REPRO_ADMISSION": "1",
            "REPRO_PAYLOAD_SANITIZER": "checksum",
            "REPRO_VERIFY": "standard",
        }
        for name in armed:
            monkeypatch.delenv(name, raising=False)
        clean = ContainerConfig("a", "n")
        for name, value in armed.items():
            monkeypatch.setenv(name, value)
        config = ContainerConfig("a", "n")
        assert config == clean

    def test_heartbeat_must_beat_liveness(self):
        with pytest.raises(ConfigurationError):
            self.base(heartbeat_interval=2.0, liveness_timeout=1.0)

    @pytest.mark.parametrize(
        "name",
        ["announce_interval", "heartbeat_interval", "housekeeping_interval", "egress_rate_bps"],
    )
    @pytest.mark.parametrize("value", [0.0, -0.1, -8000.0])
    def test_periodic_intervals_must_be_positive(self, name, value):
        """A zero period rescheduled itself at the same instant forever, a
        negative one failed only at ``start()``. A zero egress rate divided
        by zero once the shaper's burst was spent; a negative one re-armed
        its drain timer every microsecond and never sent."""
        with pytest.raises(ConfigurationError, match=name):
            self.base(**{name: value})

    def test_chunk_size_positive(self):
        with pytest.raises(ConfigurationError):
            self.base(file_chunk_size=0)

    def test_batch_hold_may_be_zero_but_not_negative(self):
        assert self.base().batch_flush_interval == 0.0
        assert self.base(batch_flush_interval=0.01).batch_flush_interval == 0.01
        with pytest.raises(ConfigurationError):
            self.base(batch_flush_interval=-0.001)

    def test_chunk_interval_may_be_zero_but_not_negative(self):
        assert self.base(file_chunk_interval=0.0).file_chunk_interval == 0.0
        with pytest.raises(ConfigurationError):
            self.base(file_chunk_interval=-0.0002)
