"""Unit tests for OFTT configuration and the status model."""

import pytest

from repro.core.config import (
    GiveUpPolicy,
    OfttConfig,
    RecoveryAction,
    RecoveryRule,
    replace_config,
)
from repro.core.status import (
    KIND_BY_VALUE,
    STATUS_BY_VALUE,
    ComponentKind,
    ComponentStatus,
    StatusReport,
    kind_of,
    status_of,
)


def test_default_config_validates():
    OfttConfig().validate()


def test_heartbeat_timeout_must_exceed_period():
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), heartbeat_timeout=50.0, heartbeat_period=100.0)


def test_peer_timeout_must_exceed_period():
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), peer_heartbeat_timeout=10.0)


def test_other_validations():
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), checkpoint_period=0.0)
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), startup_retries=-1)


def test_rule_lookup_falls_back_to_default():
    config = OfttConfig()
    rule = RecoveryRule(max_local_restarts=9)
    config = config.with_rule("special", rule)
    assert config.rule_for("special") is rule
    assert config.rule_for("other") is config.default_rule


def test_with_rule_does_not_mutate_original():
    config = OfttConfig()
    updated = config.with_rule("c", RecoveryRule())
    assert "c" in updated.recovery_rules
    assert "c" not in config.recovery_rules


def test_rule_presets():
    assert RecoveryRule.always_failover().max_local_restarts == 0
    local = RecoveryRule.local_only()
    assert local.escalation is RecoveryAction.IGNORE
    assert local.max_local_restarts >= 1_000_000


def test_giveup_policy_enum():
    assert GiveUpPolicy.SHUTDOWN.value == "shutdown"
    assert GiveUpPolicy.GO_PRIMARY.value == "go-primary"


def test_status_report_wire_roundtrip():
    report = StatusReport(
        node="n1",
        component="app",
        kind=ComponentKind.APPLICATION,
        status=ComponentStatus.RECOVERING,
        role="primary",
        time=12.5,
        detail={"restarts": 2},
    )
    assert StatusReport.from_wire(report.as_wire()) == report


def test_status_maps_return_the_enum_member_for_every_value():
    assert set(KIND_BY_VALUE.values()) == set(ComponentKind)
    assert set(STATUS_BY_VALUE.values()) == set(ComponentStatus)
    for kind in ComponentKind:
        assert kind_of(kind.value) is ComponentKind(kind.value)
    for status in ComponentStatus:
        assert status_of(status.value) is ComponentStatus(status.value)
    for kind in ComponentKind:
        for status in ComponentStatus:
            report = StatusReport("n", "c", kind, status, "backup", 1.0, {"k": 1})
            decoded = StatusReport.from_wire(report.as_wire())
            assert decoded == report
            assert decoded.kind is kind and decoded.status is status
    assert kind_of(ComponentKind.WATCHDOG) is ComponentKind(ComponentKind.WATCHDOG)
    assert status_of(ComponentStatus.FAILED) is ComponentStatus(ComponentStatus.FAILED)


def test_status_report_wire_carries_the_member_values():
    for kind in ComponentKind:
        for status in ComponentStatus:
            # The members' values, not the members (which compare unequal to them).
            assert StatusReport("n", "c", kind, status, "backup", 1.0, {"k": 1}).as_wire() == {
                "node": "n",
                "component": "c",
                "kind": kind.value,
                "status": status.value,
                "role": "backup",
                "time": 1.0,
                "detail": {"k": 1},
            }


@pytest.mark.parametrize("value", ["RUNNING", "app", "", None, ["running"]])
def test_status_maps_reject_unknown_values_like_the_enum(value):
    for enum_class, convert in ((ComponentKind, kind_of), (ComponentStatus, status_of)):
        with pytest.raises(ValueError) as enum_error:
            enum_class(value)
        with pytest.raises(ValueError) as map_error:
            convert(value)
        assert str(map_error.value) == str(enum_error.value)
    wire = StatusReport("n", "c", ComponentKind.APPLICATION, ComponentStatus.RUNNING).as_wire()
    for field in ("kind", "status"):
        with pytest.raises(ValueError):
            StatusReport.from_wire({**wire, field: value})
