"""Unit tests for watchdog timers and the recovery manager."""

import pytest

from repro.core.config import OfttConfig, RecoveryAction, RecoveryRule
from repro.core.recovery import RecoveryManager
from repro.core.watchdog import WatchdogTimer
from repro.errors import WatchdogError
from repro.simnet.kernel import SimKernel


def make_watchdog():
    kernel = SimKernel()
    expirations = []
    watchdog = WatchdogTimer(kernel, "wd", "app", lambda w: expirations.append(kernel.now))
    return kernel, watchdog, expirations


# -- watchdog ------------------------------------------------------------------


def test_watchdog_fires_without_reset():
    kernel, watchdog, expirations = make_watchdog()
    watchdog.set(100.0)
    kernel.run(until=500.0)
    assert expirations == [100.0]
    assert not watchdog.armed  # one-shot until re-set


def test_watchdog_reset_defers_expiry():
    kernel, watchdog, expirations = make_watchdog()
    watchdog.set(100.0)
    for t in (50.0, 100.0, 150.0):
        kernel.schedule(t - kernel.now, watchdog.reset)
    kernel.run(until=170.0)
    assert expirations == []
    kernel.run(until=500.0)
    assert expirations == [250.0]  # 150 (the third reset) + 100


def test_watchdog_reset_before_set_rejected():
    kernel, watchdog, _expirations = make_watchdog()
    with pytest.raises(WatchdogError):
        watchdog.reset()


def test_watchdog_invalid_period_rejected():
    kernel, watchdog, _expirations = make_watchdog()
    with pytest.raises(WatchdogError):
        watchdog.set(0.0)


def test_watchdog_stop_disarms():
    kernel, watchdog, expirations = make_watchdog()
    watchdog.set(100.0)
    watchdog.stop()
    kernel.run(until=1_000.0)
    assert expirations == []
    watchdog.set(100.0)  # can be rearmed after stop
    kernel.run(until=2_000.0)
    assert len(expirations) == 1


def test_watchdog_delete_is_final():
    kernel, watchdog, expirations = make_watchdog()
    watchdog.set(100.0)
    watchdog.delete()
    kernel.run(until=1_000.0)
    assert expirations == []
    with pytest.raises(WatchdogError):
        watchdog.set(100.0)
    with pytest.raises(WatchdogError):
        watchdog.reset()
    with pytest.raises(WatchdogError):
        watchdog.delete()


# -- recovery manager -------------------------------------------------------------


def make_recovery(rule):
    kernel = SimKernel()
    config = OfttConfig().with_rule("app", rule)
    return kernel, RecoveryManager(kernel, config)


def test_transient_failures_restart_locally_up_to_limit():
    kernel, recovery = make_recovery(RecoveryRule(max_local_restarts=2, transient_window=10_000.0))
    first = recovery.on_failure("app", "crash")
    second = recovery.on_failure("app", "crash")
    third = recovery.on_failure("app", "crash")
    assert first.action is RecoveryAction.LOCAL_RESTART
    assert first.restart_number == 1
    assert second.action is RecoveryAction.LOCAL_RESTART
    assert third.action is RecoveryAction.FAILOVER


def test_window_expiry_resets_budget():
    kernel, recovery = make_recovery(RecoveryRule(max_local_restarts=1, transient_window=1_000.0))
    assert recovery.on_failure("app", "x").action is RecoveryAction.LOCAL_RESTART
    kernel.run(until=2_000.0)  # window passes
    decision = recovery.on_failure("app", "x")
    assert decision.action is RecoveryAction.LOCAL_RESTART
    assert decision.restart_number == 1  # the aged-out failure no longer counts


def test_always_failover_rule():
    kernel, recovery = make_recovery(RecoveryRule.always_failover())
    assert recovery.on_failure("app", "x").action is RecoveryAction.FAILOVER


def test_ignore_escalation():
    kernel, recovery = make_recovery(
        RecoveryRule(max_local_restarts=0, escalation=RecoveryAction.IGNORE)
    )
    assert recovery.on_failure("app", "x").action is RecoveryAction.IGNORE


def test_clear_forgets_history():
    kernel, recovery = make_recovery(RecoveryRule(max_local_restarts=1))
    recovery.on_failure("app", "x")
    recovery.clear("app")
    decision = recovery.on_failure("app", "x")
    assert decision.action is RecoveryAction.LOCAL_RESTART
    assert decision.restart_number == 1


def test_dynamic_rule_change():
    kernel, recovery = make_recovery(RecoveryRule(max_local_restarts=5))
    recovery.set_rule("app", RecoveryRule.always_failover())
    assert recovery.on_failure("app", "x").action is RecoveryAction.FAILOVER


def test_decisions_recorded():
    kernel, recovery = make_recovery(RecoveryRule(max_local_restarts=1))
    first = recovery.on_failure("app", "first")
    second = recovery.on_failure("app", "second")
    assert first.reason == "first"
    assert "exhausted" in second.reason


def test_failure_exactly_at_window_boundary_still_counts():
    # A failure stamped exactly at ``now - transient_window`` is inside
    # the window (``t >= cutoff``): the budget math is inclusive.
    kernel, recovery = make_recovery(
        RecoveryRule(max_local_restarts=1, transient_window=1_000.0)
    )
    assert recovery.on_failure("app", "x").action is RecoveryAction.LOCAL_RESTART
    kernel.run(until=1_000.0)  # now - window == the failure's timestamp
    decision = recovery.on_failure("app", "x")
    assert decision.action is RecoveryAction.FAILOVER
    assert "1 in window" in decision.reason


def test_failure_count_prunes_stale_history():
    kernel, recovery = make_recovery(
        RecoveryRule(max_local_restarts=3, transient_window=1_000.0)
    )
    recovery.on_failure("app", "x")
    assert recovery.on_failure("app", "x").restart_number == 2
    kernel.run(until=1_000.1)  # both now strictly older than the window
    assert recovery.on_failure("app", "x").restart_number == 1
