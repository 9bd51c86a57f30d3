"""Unit tests for the fault library, injector and campaign."""

import pytest

from repro.errors import FaultInjectionError
from repro.faults import (
    AppCrash,
    AppHang,
    BlueScreen,
    Campaign,
    FaultInjector,
    FieldbusFailure,
    LinkDown,
    MiddlewareCrash,
    NetworkPartition,
    NicDown,
    NodeFailure,
    NodeReboot,
)
from repro.nt.system import SystemState

from tests.core.util import make_pair_world


def started_world(seed=0):
    world = make_pair_world(seed=seed)
    world.start()
    return world


def test_node_failure_powers_off():
    world = started_world()
    FaultInjector(world.kernel, world).inject_now(NodeFailure("alpha"))
    assert world.systems["alpha"].state is SystemState.OFF
    # Idempotent on an already-dead node.
    FaultInjector(world.kernel, world).inject_now(NodeFailure("alpha"))


def test_unknown_node_rejected():
    world = started_world()
    with pytest.raises(FaultInjectionError):
        FaultInjector(world.kernel, world).inject_now(NodeFailure("ghost"))


def test_bluescreen():
    world = started_world()
    FaultInjector(world.kernel, world).inject_now(BlueScreen("alpha"))
    assert world.systems["alpha"].state is SystemState.BLUESCREEN


def test_app_crash_and_hang():
    world = started_world()
    primary = world.primary
    injector = FaultInjector(world.kernel, world)
    injector.inject_now(AppHang(primary, "synthetic"))
    assert world.systems[primary].find_process("synthetic").state.value == "hung"
    injector.inject_now(AppCrash(primary, "synthetic"))
    # AppCrash on a hung (still alive) process kills it.
    assert not world.systems[primary].find_process("synthetic").alive


def test_middleware_crash():
    world = started_world()
    primary = world.primary
    FaultInjector(world.kernel, world).inject_now(MiddlewareCrash(primary))
    assert not world.pair.engines[primary].alive


def test_link_and_nic_faults():
    world = started_world()
    injector = FaultInjector(world.kernel, world)
    injector.inject_now(NicDown("alpha", "lan0"))
    assert not world.network.nodes["alpha"].nics["lan0"]
    injector.inject_now(LinkDown("lan0"))
    assert not world.network.links["lan0"].up
    with pytest.raises(FaultInjectionError):
        injector.inject_now(LinkDown("ghost"))


def test_network_partition_fault():
    world = started_world()
    FaultInjector(world.kernel, world).inject_now(NetworkPartition(["alpha"], ["beta"]))
    assert world.network.usable_path("alpha", "beta") is None


def test_fieldbus_fault():
    world = started_world()
    from repro.devices.fieldbus import Fieldbus

    bus = Fieldbus("bus0")
    world.fieldbuses["bus0"] = bus
    FaultInjector(world.kernel, world).inject_now(FieldbusFailure("bus0"))
    assert not bus.up
    with pytest.raises(FaultInjectionError):
        FaultInjector(world.kernel, world).inject_now(FieldbusFailure("ghost"))


def test_scheduled_injection():
    world = started_world()
    injector = FaultInjector(world.kernel, world)
    record = injector.inject_at(world.kernel.now + 1_000.0, NodeFailure("alpha"))
    assert not record.applied
    world.run_for(500.0)
    assert world.systems["alpha"].is_up
    world.run_for(600.0)
    assert record.applied
    assert world.systems["alpha"].state is SystemState.OFF
    assert len(injector.applied_faults()) == 1


def test_node_reboot_reinstalls_pair_member():
    world = started_world()
    world.run_for(2_000.0)
    victim = world.primary
    injector = FaultInjector(world.kernel, world)
    injector.inject_now(NodeFailure(victim))
    world.run_for(2_000.0)
    injector.inject_now(NodeReboot(victim, reinstall=True))
    world.run_for(5_000.0)
    assert world.systems[victim].is_up
    assert world.pair.engines[victim].role.value == "backup"


def test_node_reboot_interrupted_mid_boot_rejoins_once():
    # Regression: a power-off while a reboot is still booting leaves that
    # reboot's rejoin hook armed, and a second reboot arms another.  At
    # the next boot the second hook used to reinstall over the first and
    # raise NTError('process oftt-engine already running').
    world = started_world()
    world.run_for(2_000.0)
    victim = world.primary
    system = world.systems[victim]
    injector = FaultInjector(world.kernel, world)
    injector.inject_now(NodeFailure(victim))
    world.run_for(2_000.0)
    injector.inject_now(NodeReboot(victim, reinstall=True))
    world.run_for(100.0)
    assert system.state is SystemState.BOOTING
    injector.inject_now(NodeFailure(victim))
    injector.inject_now(NodeReboot(victim, reinstall=True))
    world.run_for(5_000.0)
    assert system.is_up
    engine = world.pair.engines[victim]
    assert engine.alive
    assert system.find_process("oftt-engine") is engine.process
    assert not [hook for hook in system.on_boot if hook.__name__ == "rejoin"]  # both disarmed


def test_campaign_measures_recovery():
    world = started_world()
    world.run_for(2_000.0)
    campaign = Campaign(world.kernel, world, settle_timeout=15_000.0)
    record = campaign.run_fault(NodeFailure(world.primary))
    assert record.recovered
    assert record.switched_over
    assert record.recovery_latency is not None
    assert 0 < record.recovery_latency < 5_000.0
    assert campaign.all_recovered()
    assert campaign.latencies()


def test_campaign_schedule_runs_multiple():
    world = started_world()
    world.run_for(2_000.0)
    campaign = Campaign(world.kernel, world, settle_timeout=15_000.0, inter_fault_gap=2_000.0)
    primary = world.primary
    records = campaign.run_schedule(
        [
            AppCrash(primary, "synthetic"),  # local restart
        ]
    )
    assert len(records) == 1
    assert records[0].recovered
    assert not records[0].switched_over  # default rule restarts locally first


def test_fault_descriptions_and_demo_ids():
    assert NodeFailure("n").demo_id == "a"
    assert BlueScreen("n").demo_id == "b"
    assert AppCrash("n", "p").demo_id == "c"
    assert MiddlewareCrash("n").demo_id == "d"
    assert "power-off" in NodeFailure("n").describe()
    assert "bluescreen" in BlueScreen("n").describe()


def test_sticky_app_crash_keeps_killing_until_expiry():
    from repro.faults import StickyAppCrash

    world = started_world()
    world.run_for(1_000.0)
    FaultInjector(world.kernel, world).inject_now(
        StickyAppCrash("alpha", "synthetic", duration=1_000.0, recheck=50.0)
    )
    # Mid-duration any relaunched process is re-killed within a recheck.
    world.run_for(500.0)
    process = world.systems["alpha"].find_process("synthetic")
    assert process is None or not process.alive
    # After expiry the stomp loop has disarmed: a fresh launch survives.
    world.run_for(1_000.0)
    world.systems["alpha"].create_process("synthetic").start()
    world.run_for(500.0)
    survivor = world.systems["alpha"].find_process("synthetic")
    assert survivor is not None and survivor.alive


def test_sticky_app_crash_validates_parameters():
    from repro.faults import StickyAppCrash

    with pytest.raises(FaultInjectionError):
        StickyAppCrash("alpha", "synthetic", duration=0.0)
    with pytest.raises(FaultInjectionError):
        StickyAppCrash("alpha", "synthetic", recheck=-1.0)


def test_sticky_app_crash_apply_is_one_shot():
    from repro.faults import StickyAppCrash

    world = started_world()
    fault = StickyAppCrash("alpha", "synthetic", duration=500.0)
    fault.apply(world)
    fault.apply(world)  # re-arming must not schedule a second stomp loop
    world.run_for(2_000.0)
