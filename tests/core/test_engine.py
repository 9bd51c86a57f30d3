"""Unit tests for the OFTT engine."""

import hashlib
import json

import pytest

from repro.core import engine as engine_module
from repro.core.config import OfttConfig, RecoveryRule, replace_config
from repro.core.roles import Role
from repro.core.status import ComponentStatus, StatusReport
from repro.errors import OfttError, WatchdogError
from repro.faults.faultlib import AppHang

from tests.core.util import make_pair_world


def started(seed=0, config=None, **kwargs):
    world = make_pair_world(seed=seed, config=config, **kwargs)
    world.start()
    return world


def test_negotiation_yields_one_primary_one_backup():
    world = started()
    assert {world.pair.engines[n].role for n in ("alpha", "beta")} == {Role.PRIMARY, Role.BACKUP}
    assert world.pair.apps[world.primary].running
    assert not world.pair.apps[world.backup].running


def test_engine_runs_as_separate_process():
    world = started()
    for name in ("alpha", "beta"):
        engine = world.pair.engines[name]
        process = world.systems[name].find_process("oftt-engine")
        assert process is engine.process
        assert process.alive


def test_checkpoints_mirrored_to_peer_and_acked():
    world = started()
    world.run_for(5_000.0)
    primary_engine = world.pair.engines[world.primary]
    backup_engine = world.pair.engines[world.backup]
    assert primary_engine.local_store.latest("synthetic") is not None
    assert backup_engine.peer_store.latest("synthetic") is not None
    assert primary_engine.acked_sequence >= backup_engine.peer_store.latest("synthetic").sequence - 1
    assert backup_engine.checkpoints_received >= 4


def test_peer_loss_promotes_backup_with_state():
    world = started()
    world.run_for(5_000.0)
    old_primary = world.primary
    old_app = world.pair.apps[old_primary]
    ticks_before = old_app.ticks()
    world.systems[old_primary].power_off()
    world.run_for(2_000.0)
    new_primary = world.primary
    assert new_primary != old_primary
    new_app = world.pair.apps[new_primary]
    assert new_app.running
    # Restored state is at most one checkpoint period behind.
    restored = new_app.process.address_space.read("ticks")
    assert restored >= ticks_before - 25


def test_primary_survives_backup_loss_degraded():
    world = started()
    world.run_for(3_000.0)
    backup = world.backup
    primary = world.primary
    world.systems[backup].power_off()
    world.run_for(2_000.0)
    engine = world.pair.engines[primary]
    assert engine.role is Role.PRIMARY
    assert engine.degraded
    assert world.pair.apps[primary].running


def test_peer_return_clears_degraded():
    world = started()
    world.run_for(3_000.0)
    backup = world.backup
    world.systems[backup].power_off()
    world.run_for(2_000.0)
    world.systems[backup].reboot()
    world.run_for(2_000.0)
    world.pair.reinstall_node(backup)
    world.run_for(5_000.0)
    primary_engine = world.pair.engines[world.primary]
    assert not primary_engine.degraded
    assert world.pair.engines[backup].role is Role.BACKUP


def test_app_crash_triggers_local_restart_with_checkpoint():
    world = started()
    world.run_for(5_000.0)
    primary = world.primary
    app = world.pair.apps[primary]
    ticks_before = app.ticks()
    launches_before = app.launch_count
    app.process.kill()
    world.run_for(1_000.0)
    assert app.launch_count == launches_before + 1
    assert world.primary == primary  # no failover for a first transient
    assert app.ticks() >= ticks_before - 25
    assert world.pair.engines[primary].local_restart_count == 1


def test_repeated_crashes_escalate_to_failover():
    config = OfttConfig().with_rule("synthetic", RecoveryRule(max_local_restarts=1, restart_delay=50.0))
    world = started(config=config)
    world.run_for(5_000.0)
    first_primary = world.primary
    app = world.pair.apps[first_primary]
    app.process.kill()  # transient 1 -> local restart
    world.run_for(1_000.0)
    assert world.primary == first_primary
    app.process.kill()  # transient 2 -> escalate
    world.run_for(3_000.0)
    assert world.primary != first_primary
    assert world.pair.apps[world.primary].running


def test_request_switchover_hands_over():
    world = started()
    world.run_for(3_000.0)
    first_primary = world.primary
    world.pair.engines[first_primary].request_switchover("operator request")
    world.run_for(2_000.0)
    assert world.primary != first_primary
    assert world.pair.apps[world.primary].running
    assert not world.pair.apps[first_primary].running


def test_switchover_from_backup_rejected():
    world = started()
    with pytest.raises(OfttError):
        world.pair.engines[world.backup].request_switchover("nope")


def test_switchover_without_peer_restarts_locally():
    world = started()
    world.run_for(3_000.0)
    backup = world.backup
    primary = world.primary
    world.systems[backup].power_off()
    world.run_for(2_000.0)
    engine = world.pair.engines[primary]
    app = world.pair.apps[primary]
    launches = app.launch_count
    # Drive the app into repeated failure: switchover is impossible, so
    # the engine must keep it running locally.
    app.process.kill()
    world.run_for(2_000.0)
    app.process.kill()
    world.run_for(3_000.0)
    assert app.running
    assert app.launch_count > launches
    assert engine.role is Role.PRIMARY


def test_watchdog_expiry_applies_recovery_rule():
    world = started()
    world.run_for(3_000.0)
    primary = world.primary
    engine = world.pair.engines[primary]
    app = world.pair.apps[primary]
    launches = app.launch_count
    watchdog = engine.watchdog_create("task", "synthetic")
    watchdog.set(500.0)  # never reset -> fires
    world.run_for(2_000.0)
    assert world.trace.count(component=primary, event="watchdog-expired") == 1
    assert app.launch_count == launches + 1  # local restart happened


def test_duplicate_watchdog_name_rejected():
    world = started()
    engine = world.pair.engines[world.primary]
    engine.watchdog_create("wd", "synthetic")
    with pytest.raises(WatchdogError):
        engine.watchdog_create("wd", "synthetic")


def test_engine_death_stops_monitoring_and_watchdogs():
    world = started()
    engine = world.pair.engines[world.primary]
    watchdog = engine.watchdog_create("wd", "synthetic")
    watchdog.set(10_000.0)
    engine.process.kill()
    assert not engine.alive
    assert engine.monitor._running is False
    assert watchdog.deleted


def test_middleware_failure_on_primary_fails_over():
    world = started()
    world.run_for(3_000.0)
    first_primary = world.primary
    world.pair.engines[first_primary].process.kill()
    world.run_for(2_000.0)
    assert world.primary != first_primary
    assert world.pair.apps[world.primary].running
    # The orphaned app copy was fail-stopped by its FTIM.
    assert not world.pair.apps[first_primary].running


def test_status_reports_cover_components():
    world = started()
    world.run_for(2_000.0)
    engine = world.pair.engines[world.primary]
    reports = engine.status_reports()
    components = {report.component for report in reports}
    assert {"oftt-engine", "peer-link", "synthetic"} <= components
    assert all(report.node == world.primary for report in reports)


def count_status_reports(monkeypatch):
    """Count every StatusReport the engine module builds."""
    built = []
    real = engine_module.StatusReport

    def counting(*args, **kwargs):
        built.append(kwargs.get("component"))
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "StatusReport", counting)
    return built


def switch_over_midway(world):
    """Three report periods, a switchover, then four and a half more."""
    world.run_for(3_000.0)
    first = world.primary
    world.pair.engines[first].request_switchover("test")
    world.run_for(4_500.0)
    assert world.primary != first


def test_engine_without_monitor_nodes_builds_no_status_reports(monkeypatch):
    built = count_status_reports(monkeypatch)
    world = started(seed=7)
    switch_over_midway(world)
    assert built == []
    # The table is still built on request.
    table = world.pair.engines[world.primary].GetStatusTable()
    assert {"oftt-engine", "peer-link"} <= {row["component"] for row in table}
    assert len(built) == len(table)


def test_engine_with_a_monitor_delivers_the_same_reports():
    world = make_pair_world(seed=7, monitor_nodes=["mon"])
    world.add_machine("mon")
    received = []
    # Where a SystemMonitor would listen: every report the engines send.
    world.network.nodes["mon"].bind(
        engine_module.STATUS_PORT,
        lambda message: received.append(StatusReport.from_wire(message.payload).as_wire()),
    )
    world.start()
    switch_over_midway(world)
    assert len(received) == 45
    # The stream the periodic loop and the on-change reports delivered
    # before reports were skipped for engines with no monitor node.
    digest = hashlib.sha256(json.dumps(received, sort_keys=True).encode()).hexdigest()
    assert digest == "335b2c92f1f64769e655cf016313060d236178733df12f6c268f7d3d0fb1d13c"


def test_com_surface():
    world = started()
    world.run_for(2_000.0)
    engine = world.pair.engines[world.primary]
    assert engine.GetRole() == "primary"
    table = engine.GetStatusTable()
    assert isinstance(table, list) and table
    info = engine.GetCheckpointInfo()
    assert info["local_latest"] >= 1


def _engine_event(world, event, since):
    return world.trace.first(category="engine", component=world.primary, event=event, since=since)


def test_hang_is_detected_by_the_heartbeat_timeout_alone():
    # A hung process does not exit, so no exit hook fires: only the
    # heartbeat timeout can catch it.
    world = started()
    world.run_for(3_000.0)
    app = world.pair.apps[world.primary]
    launches = app.launch_count
    fault_time = world.kernel.now
    AppHang(world.primary, app.name).apply(world)
    world.run_for(world.config.heartbeat_timeout * 3)
    assert app.launch_count == launches + 1
    assert _engine_event(world, "component-exit", fault_time) is None
    assert _engine_event(world, "heartbeat-timeout", fault_time) is not None
    restart = _engine_event(world, "local-restart", fault_time)
    assert restart is not None
    assert restart.time - fault_time >= world.config.heartbeat_timeout


def test_kill_is_detected_by_the_exit_hook_at_the_kill_instant():
    world = started()
    world.run_for(3_000.0)
    app = world.pair.apps[world.primary]
    launches = app.launch_count
    fault_time = world.kernel.now
    app.process.kill()
    exited = _engine_event(world, "component-exit", fault_time)
    assert exited is not None and exited.time == fault_time
    world.run_for(world.config.heartbeat_timeout * 3)
    assert app.launch_count == launches + 1
    assert _engine_event(world, "heartbeat-timeout", fault_time) is None
    restart = _engine_event(world, "local-restart", fault_time)
    assert restart is not None
    assert restart.time - fault_time < world.config.heartbeat_timeout
