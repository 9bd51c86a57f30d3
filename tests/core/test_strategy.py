"""Tests for the pluggable replication strategies.

Covers the strategy registry/selection, the leader-follower incremental
stream (policy, follower freshness, failover without the checkpoint gap,
resync re-basing), the log-replay DR site (mirroring, activation on
total pair loss, reconstruction, standdown), and the regression suite
for the role/recovery bugfix sweep that rode along with the extraction.
"""

import pytest

from repro.core.config import (
    REPLICATION_STRATEGIES,
    GiveUpPolicy,
    OfttConfig,
    RecoveryRule,
    replace_config,
)
from repro.core.roles import Role
from repro.core.strategy import (
    LF_UPDATE_PERIOD,
    STRATEGIES,
    ColdPassiveStrategy,
    LeaderFollowerStrategy,
    LogReplayDRStrategy,
    create_strategy,
)
from repro.chaos.schedule import FaultEntry
from repro.errors import OfttError
from repro.faults.faultlib import NodeFailure, NodeReboot
from repro.faults.injector import FaultInjector
from repro.harness.scenario import ChaosScenario

from tests.core.test_roles import Harness
from tests.core.util import make_pair_world


# -- registry / selection ----------------------------------------------------------


def test_registry_matches_config_strategy_names():
    assert tuple(sorted(STRATEGIES)) == tuple(sorted(REPLICATION_STRATEGIES))


def test_create_strategy_rejects_unknown_name():
    world = make_pair_world()
    with pytest.raises(OfttError):
        create_strategy("hot-active", world.pair.engines["alpha"])


def test_config_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), replication_strategy="hot-active")


def test_engines_get_strategy_from_config():
    world = make_pair_world()
    for name in ("alpha", "beta"):
        strategy = world.pair.engines[name].strategy
        assert isinstance(strategy, ColdPassiveStrategy)
        assert strategy.engine is world.pair.engines[name]

    lf_world = make_pair_world(
        config=replace_config(OfttConfig(), replication_strategy="leader-follower")
    )
    assert isinstance(lf_world.pair.engines["alpha"].strategy, LeaderFollowerStrategy)


def _message_driven_scenario(strategy):
    return ChaosScenario(
        seed=0,
        config=OfttConfig(replication_strategy=strategy),
        workload_period=100.0,
        checkpoint_period=2_000.0,
        message_driven=True,
    )


# -- leader-follower ---------------------------------------------------------------


def test_leader_follower_streams_incremental_updates():
    scenario = _message_driven_scenario("leader-follower")
    scenario.start()
    scenario.run(until=10_000.0)

    primary = scenario.pair.primary_node()
    follower = scenario.pair.backup_node()
    ftim = scenario.pair.apps[primary].api.ftim
    assert ftim.incremental
    assert ftim.checkpoint_period == LF_UPDATE_PERIOD

    leader = scenario.pair.engines[primary]
    assert isinstance(leader.strategy, LeaderFollowerStrategy)
    # ~100ms update period over ~10s: a stream, not periodic images.
    assert len(leader.checkpoint_sizes) > 50

    # The follower's merged mirror is near-fresh: within a couple of
    # update periods of the leader's live message counter.
    mirrored = scenario.pair.engines[follower].peer_store.latest("synthetic")
    assert mirrored is not None
    live_applied = scenario.pair.apps[primary].applied()
    assert live_applied - mirrored.image["globals"]["applied"] <= 3


def test_leader_follower_failover_has_no_checkpoint_gap():
    scenario = _message_driven_scenario("leader-follower")
    injector = FaultInjector(scenario.kernel, scenario)
    entry = FaultEntry(10_000.0, "node-failure", {"node": "alpha"})
    injector.inject_at(entry.at, entry.build())
    scenario.start()
    scenario.kernel.schedule(15_000.0 - scenario.kernel.now, scenario.stop_workload)
    scenario.run(until=20_000.0)

    assert scenario.pair.primary_node() == "beta"
    # Every workload message either survived the failover (restored from
    # the update stream or redelivered) up to the in-flight tail.
    applied = scenario.pair.apps["beta"].applied()
    assert scenario.workload_sent - applied <= 2


def test_incremental_stream_rebases_after_follower_loses_store():
    scenario = _message_driven_scenario("leader-follower")
    scenario.start()
    scenario.run(until=5_000.0)

    follower = scenario.pair.backup_node()
    engine = scenario.pair.engines[follower]
    store = engine.peer_store
    stored = []
    engine.on_checkpoint_stored.append(lambda _engine, checkpoint: stored.append(checkpoint))
    received_before = engine.checkpoints_received
    # Simulate the post-reinstall state: the mirror chain is gone, so the
    # next delta has no base and must trigger a ckpt-resync round trip.
    store.clear("synthetic")
    assert store.latest("synthetic") is None
    scenario.run(until=7_000.0)

    rebased = store.latest("synthetic")
    assert rebased is not None
    # The unusable delta was refused, not merged: the chain restarts
    # from a full image.
    assert engine.checkpoints_received - received_before > len(stored)
    assert not stored[0].incremental


# -- log-replay disaster recovery --------------------------------------------------


def test_dr_site_receives_checkpoints_and_message_log():
    scenario = _message_driven_scenario("log-replay-dr")
    assert scenario.dr_site is not None
    assert scenario.config.dr_node == ChaosScenario.DR_NODE
    scenario.start()
    scenario.run(until=10_000.0)

    assert scenario.dr_site.store.latest("synthetic") is not None
    assert not scenario.dr_site.active  # pair alive: site stays on standby
    # Every workload message was mirrored into the site's log.
    assert len(scenario.dr_site.message_log) == scenario.workload_sent


def test_dr_site_recovers_total_pair_loss():
    scenario = _message_driven_scenario("log-replay-dr")
    injector = FaultInjector(scenario.kernel, scenario)
    for entry in (
        FaultEntry(12_000.0, "node-failure", {"node": "alpha"}),
        FaultEntry(12_050.0, "node-failure", {"node": "beta"}),
    ):
        injector.inject_at(entry.at, entry.build())
    scenario.start()
    scenario.kernel.schedule(15_000.0 - scenario.kernel.now, scenario.stop_workload)
    scenario.run(until=25_000.0)

    site = scenario.dr_site
    assert site.active
    assert scenario.trace.count(event="dr-activated") == 1
    image, replayed = site.reconstruct()
    # Last checkpoint + log replay reconstructs every workload message —
    # including the ones sent after both pair nodes were already dead.
    assert image["globals"]["applied"] == scenario.workload_sent
    assert replayed > 0


def test_cold_passive_cannot_survive_total_pair_loss():
    scenario = _message_driven_scenario("cold-passive")
    assert scenario.dr_site is None
    injector = FaultInjector(scenario.kernel, scenario)
    for entry in (
        FaultEntry(12_000.0, "node-failure", {"node": "alpha"}),
        FaultEntry(12_050.0, "node-failure", {"node": "beta"}),
    ):
        injector.inject_at(entry.at, entry.build())
    scenario.start()
    scenario.kernel.schedule(15_000.0 - scenario.kernel.now, scenario.stop_workload)
    scenario.run(until=25_000.0)

    assert all(not engine.alive for engine in scenario.pair.engines.values())
    assert all(app.applied() == 0 for app in scenario.pair.apps.values())


def test_dr_site_stands_down_when_pair_returns():
    scenario = _message_driven_scenario("log-replay-dr")
    scenario.start()
    scenario.run(until=2_000.0)
    site = scenario.dr_site
    # Force-activate, then let the live pair's heartbeats push it back.
    site._activate(silence=9_999.0)
    assert site.active
    scenario.run_for(2_000.0)
    assert not site.active


def test_dr_mirror_rebases_after_full_pair_reboot():
    scenario = _message_driven_scenario("log-replay-dr")
    injector = FaultInjector(scenario.kernel, scenario)
    for at, fault in (
        (12_000.0, NodeFailure("alpha")),
        (12_050.0, NodeFailure("beta")),
        (20_000.0, NodeReboot("alpha", reinstall=True)),
        (20_050.0, NodeReboot("beta", reinstall=True)),
    ):
        injector.inject_at(at, fault)
    scenario.start()
    scenario.run(until=27_000.0)

    site = scenario.dr_site
    # Activated once, then stood down when the pair came back.
    assert scenario.trace.count(event="dr-activated") == 1
    assert not site.active
    # The rebooted pair numbers its checkpoints afresh; the site's mirror
    # follows that new chain instead of rejecting it as stale.
    primary = scenario.pair.primary_node()
    latest = scenario.pair.engines[primary].local_store.latest("synthetic")
    mirrored = site.store.latest("synthetic")
    assert mirrored is not None and latest is not None
    assert mirrored.image == latest.image


# -- bugfix regressions ------------------------------------------------------------


def test_set_recovery_rule_keeps_shared_config_in_sync():
    world = make_pair_world()
    engine = world.pair.engines["alpha"]
    rule = RecoveryRule(max_local_restarts=0)
    engine.set_recovery_rule("synthetic", rule)
    # The manager must mutate the engine's config, not rebind its own to
    # a diverging copy (the old behaviour desynced them after one call).
    assert engine.recovery.config is engine.config
    assert engine.config.rule_for("synthetic") is rule
    # Both pair nodes share one config object, so the run-time rule
    # change is pair-wide — one recovery policy per logical unit.
    assert world.pair.engines["beta"].config.rule_for("synthetic") is rule


def test_demote_stamps_decided_at():
    harness = Harness()
    for negotiator in harness.negotiators.values():
        negotiator.begin()
    harness.kernel.run(until=5_000.0)
    alpha = harness.negotiators["alpha"]
    demoted_at = harness.kernel.now
    alpha.demote()
    assert alpha.decided_at == demoted_at


def test_dual_primary_demote_stamps_decided_at():
    harness = Harness()
    for negotiator in harness.negotiators.values():
        negotiator.begin()
    harness.kernel.run(until=5_000.0)
    alpha, beta = harness.negotiators["alpha"], harness.negotiators["beta"]
    harness.connected = False
    beta.promote()  # incarnation 2 outranks alpha's 1
    harness.connected = True
    resolved_at = harness.kernel.now
    alpha.on_peer_announce({"kind": "role-announce", "node": "beta",
                            "role": "primary", "incarnation": beta.incarnation})
    assert alpha.role is Role.BACKUP
    assert alpha.decided_at == resolved_at


def test_shutdown_node_stays_silent():
    config = replace_config(OfttConfig(), startup_retries=0, give_up_policy=GiveUpPolicy.SHUTDOWN)
    harness = Harness(config=config)
    harness.connected = False
    harness.negotiators["alpha"].begin()
    harness.kernel.run(until=20_000.0)
    alpha = harness.negotiators["alpha"]
    assert alpha.role is Role.SHUTDOWN

    sent = []
    alpha.send = lambda payload: sent.append(payload)
    # A rebooted peer asking around used to get an answer through the
    # rebooted-peer branch; a shut-down node's port would not be bound.
    alpha.on_peer_announce({"kind": "role-announce", "node": "beta",
                            "role": "undecided", "incarnation": 0})
    alpha.on_peer_announce({"kind": "role-announce", "node": "beta",
                            "role": "primary", "incarnation": 3})
    assert sent == []
    assert alpha.role is Role.SHUTDOWN


@pytest.mark.parametrize("order", ["alpha-first", "beta-first"])
def test_equal_incarnation_dual_primary_resolves_deterministically(order):
    # Both nodes went lone-primary during a total partition: equal
    # incarnations.  Whichever announcement lands first, exactly one
    # node (the tie-break loser, beta) demotes.
    config = replace_config(OfttConfig(), startup_retries=0, give_up_policy=GiveUpPolicy.GO_PRIMARY)
    harness = Harness(config=config)
    harness.connected = False
    for negotiator in harness.negotiators.values():
        negotiator.begin()
    harness.kernel.run(until=20_000.0)
    alpha, beta = harness.negotiators["alpha"], harness.negotiators["beta"]
    assert alpha.role is Role.PRIMARY and beta.role is Role.PRIMARY
    assert alpha.incarnation == beta.incarnation

    harness.connected = True
    announcements = [
        (alpha, {"kind": "role-announce", "node": "beta", "role": "primary",
                 "incarnation": beta.incarnation}),
        (beta, {"kind": "role-announce", "node": "alpha", "role": "primary",
                "incarnation": alpha.incarnation}),
    ]
    if order == "beta-first":
        announcements.reverse()
    for negotiator, payload in announcements:
        negotiator.on_peer_announce(payload)
    harness.kernel.run(until=25_000.0)

    assert alpha.role is Role.PRIMARY
    assert beta.role is Role.BACKUP
    assert ("beta", "demoted", None) in harness.events
