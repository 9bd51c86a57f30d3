"""Unit and pair-level tests for the adaptive recovery policy layer."""

import repro.core.policy as policy_module
from repro.core.config import PEER_HEARTBEAT_PERIOD, OfttConfig, RecoveryAction, RecoveryRule, replace_config
from repro.core.policy import (
    POLICY_ANOMALY_WINDOW,
    POLICY_COOLDOWN_MAX,
    POLICY_GRAY_MISS_TOLERANCE,
    POLICY_STABILITY_WINDOW,
    POLICY_SWITCH_DWELL,
    POLICY_TIGHTEN_SCALE,
    FaultRegime,
)
from repro.core.roles import Role
from repro.core.strategy import LF_UPDATE_PERIOD, PEER

from tests.core.util import make_pair_world

APP = "synthetic"


def policy_world(**overrides):
    config = replace_config(OfttConfig(), adaptive_policy=True, **overrides)
    world = make_pair_world(config=config)
    world.start()
    return world


def primary_engine(world):
    return world.pair.engines[world.primary]


# -- wiring -----------------------------------------------------------------


def test_policy_only_exists_when_enabled():
    world = make_pair_world()
    world.start()
    assert all(engine.policy is None for engine in world.pair.engines.values())


def test_policy_attached_and_running_when_enabled():
    world = policy_world()
    engine = primary_engine(world)
    assert engine.policy is not None
    world.run_for(1_000.0)
    assert engine.policy.classifier.regime is FaultRegime.HEALTHY


# -- restart governance ------------------------------------------------------


def test_backoff_grows_exponentially_between_spaced_restarts():
    world = policy_world(default_rule=RecoveryRule(max_local_restarts=5))
    policy = primary_engine(world).policy
    first = policy.decide(APP, "crash")
    assert first.action is RecoveryAction.LOCAL_RESTART
    assert first.delay == 100.0
    world.run_for(2_000.0)  # outside the thrash window, inside the transient window
    second = policy.decide(APP, "crash")
    assert second.action is RecoveryAction.LOCAL_RESTART
    assert second.delay == 200.0
    world.run_for(2_000.0)
    third = policy.decide(APP, "crash")
    assert third.delay == 400.0


def test_backoff_is_capped(monkeypatch):
    # Keep the thrash detector out of the way.
    monkeypatch.setattr(policy_module, "POLICY_THRASH_THRESHOLD", 100)
    world = policy_world(default_rule=RecoveryRule(max_local_restarts=50))
    policy = primary_engine(world).policy
    delays = []
    for _ in range(8):
        delays.append(policy.decide(APP, "crash").delay)
        world.run_for(10.0)
    # 100ms doubling per attempt reaches the cap at the seventh.
    assert delays == [100.0, 200.0, 400.0, 800.0, 1_600.0, 3_200.0, POLICY_COOLDOWN_MAX, POLICY_COOLDOWN_MAX]


def test_thrash_detector_escalates_rapid_failures():
    world = policy_world(default_rule=RecoveryRule(max_local_restarts=10))
    policy = primary_engine(world).policy
    first = policy.decide(APP, "crash")
    assert first.action is RecoveryAction.LOCAL_RESTART
    second = policy.decide(APP, "crash")  # same instant: inside the thrash window
    assert second.action is RecoveryAction.FAILOVER
    assert "thrash" in second.reason


def test_governor_disabled_keeps_static_behaviour():
    world = policy_world(default_rule=RecoveryRule(max_local_restarts=10))
    policy = primary_engine(world).policy
    policy.governor_enabled = False
    decisions = [policy.decide(APP, "crash") for _ in range(3)]
    assert all(d.action is RecoveryAction.LOCAL_RESTART for d in decisions)
    assert [d.delay for d in decisions] == [100.0, 100.0, 100.0]


def test_ladder_reaches_reinstall_when_peer_is_gone():
    world = policy_world(default_rule=RecoveryRule(max_local_restarts=10))
    engine = primary_engine(world)
    policy = engine.policy
    engine.peer_present = False
    policy.decide(APP, "crash")
    # Thrash escalation wants FAILOVER, but the peer is gone: deferred.
    second = policy.decide(APP, "crash")
    assert second.action is RecoveryAction.LOCAL_RESTART
    assert "deferred: peer stale" in second.reason
    # Stage 1 was recorded; with the peer still absent the next rung is
    # the middleware reinstall, which needs no peer.
    third = policy.decide(APP, "crash")
    assert third.action is RecoveryAction.REINSTALL


def test_failover_deferred_while_peer_stale():
    world = policy_world(default_rule=RecoveryRule.always_failover())
    engine = primary_engine(world)
    engine.peer_present = False
    decision = engine.policy.decide(APP, "crash")
    assert decision.action is RecoveryAction.LOCAL_RESTART
    assert "deferred: peer stale" in decision.reason


def test_stability_sweep_clears_history_and_ladder_stage():
    world = policy_world(default_rule=RecoveryRule(max_local_restarts=10))
    engine = primary_engine(world)
    policy = engine.policy
    policy.decide(APP, "crash")
    policy.decide(APP, "crash")  # escalates: stage 1
    assert policy._stage[APP] == 1
    world.run_for(POLICY_STABILITY_WINDOW - 500.0)
    assert policy._stage[APP] == 1  # not yet stable long enough
    world.run_for(1_000.0)
    assert APP not in policy._stage
    # Both failures are inside the rule's 30 s window, so only a cleared
    # history makes the next one the first again.
    assert engine.recovery.on_failure(APP, "crash").restart_number == 1


# -- classifier --------------------------------------------------------------


def test_classifier_healthy_by_default():
    world = policy_world()
    classifier = primary_engine(world).policy.classifier
    classifier.sample()
    assert classifier.classify() is FaultRegime.HEALTHY


def test_classifier_crashy_after_repeated_failures():
    world = policy_world()
    classifier = primary_engine(world).policy.classifier
    classifier.note_component_failure(APP)
    classifier.note_component_failure(APP)
    assert classifier.classify() is FaultRegime.CRASHY


def test_classifier_crash_evidence_expires():
    world = policy_world()
    classifier = primary_engine(world).policy.classifier
    classifier.note_component_failure(APP)
    classifier.note_component_failure(APP)
    world.run_for(POLICY_ANOMALY_WINDOW - 500.0)
    classifier.sample()
    assert classifier.classify() is FaultRegime.CRASHY
    world.run_for(1_000.0)
    classifier.sample()
    assert classifier.classify() is FaultRegime.HEALTHY


def test_classifier_partitioned_when_peer_absent():
    world = policy_world()
    engine = primary_engine(world)
    engine.peer_present = False
    classifier = engine.policy.classifier
    # Partition evidence dominates crash evidence.
    classifier.note_component_failure(APP)
    classifier.note_component_failure(APP)
    assert classifier.classify() is FaultRegime.PARTITIONED


def test_classifier_gray_on_heartbeat_gap_skew():
    world = policy_world()
    world.run_for(500.0)  # let a few peer beats arrive
    engine = primary_engine(world)
    classifier = engine.policy.classifier
    # Simulate a delayed-but-alive peer: a beat-to-beat gap far past the
    # send period, injected at the monitor level.
    watch = engine.monitor._watches[PEER]
    watch.last_gap = 4 * PEER_HEARTBEAT_PERIOD
    watch.last_gap_at = world.kernel.now
    classifier.sample()
    assert classifier.classify() is FaultRegime.GRAY


def test_gray_regime_desensitises_peer_watch_only():
    world = policy_world()
    engine = primary_engine(world)
    policy = engine.policy
    policy._apply_regime(FaultRegime.GRAY)
    peer_watch = engine.monitor._watches[PEER]
    assert peer_watch.miss_tolerance == POLICY_GRAY_MISS_TOLERANCE
    assert peer_watch.timeout == peer_watch.base_timeout  # never tightened
    app_watch = engine.monitor._watches[APP]
    assert app_watch.timeout == app_watch.base_timeout * POLICY_TIGHTEN_SCALE
    policy._apply_regime(FaultRegime.HEALTHY)
    assert peer_watch.miss_tolerance is None
    assert app_watch.timeout == app_watch.base_timeout


# -- runtime strategy switching ----------------------------------------------


def test_switch_strategy_rebases_ftim_and_emits_trace():
    world = policy_world()
    engine = primary_engine(world)
    assert engine.strategy_name == "cold-passive"
    engine.switch_strategy("leader-follower", "test")
    assert engine.strategy_name == "leader-follower"
    assert engine.strategy_switch_count == 1
    ftim = engine.applications[APP].api.ftim
    assert ftim.incremental is True
    assert ftim.checkpoint_period == LF_UPDATE_PERIOD
    records = world.trace.select(event="strategy-switched", component=world.primary)
    assert records and records[0].detail["previous"] == "cold-passive"


def test_switch_back_restores_requested_checkpoint_policy():
    world = policy_world()
    engine = primary_engine(world)
    ftim = engine.applications[APP].api.ftim
    original_period = ftim.checkpoint_period
    engine.switch_strategy("leader-follower", "out")
    engine.switch_strategy("cold-passive", "back")
    assert ftim.incremental is False
    assert ftim.checkpoint_period == original_period


def test_backup_follows_primary_strategy():
    # The primary's policy switches; its dwell keeps the healthy regime
    # loop from reverting the switch while the backup follows.
    world = policy_world()
    engine = primary_engine(world)
    backup = world.pair.engines[world.backup]
    engine.policy._maybe_switch_strategy(FaultRegime.CRASHY)
    assert engine.strategy_name == "leader-follower"
    world.run_for(500.0)  # a few peer heartbeats
    assert engine.strategy_name == "leader-follower"
    assert backup.strategy_name == "leader-follower"
    assert backup.role is Role.BACKUP


def test_crashy_regime_switches_to_hot_standby_with_dwell():
    world = policy_world()
    engine = primary_engine(world)
    policy = engine.policy
    policy._maybe_switch_strategy(FaultRegime.CRASHY)
    assert engine.strategy_name == "leader-follower"
    # Back to healthy immediately: inside the dwell, no flap.
    policy._maybe_switch_strategy(FaultRegime.HEALTHY)
    assert engine.strategy_name == "leader-follower"
    world.run_for(POLICY_SWITCH_DWELL - 500.0)
    policy._maybe_switch_strategy(FaultRegime.HEALTHY)
    assert engine.strategy_name == "leader-follower"
    world.run_for(1_000.0)
    policy._maybe_switch_strategy(FaultRegime.HEALTHY)
    assert engine.strategy_name == "cold-passive"


def test_backup_never_initiates_switch():
    world = policy_world()
    backup = world.pair.engines[world.backup]
    backup.policy._maybe_switch_strategy(FaultRegime.CRASHY)
    assert backup.strategy_name == "cold-passive"


def test_partitioned_regime_never_switches():
    world = policy_world()
    engine = primary_engine(world)
    engine.policy._maybe_switch_strategy(FaultRegime.PARTITIONED)
    assert engine.strategy_name == "cold-passive"
