"""Injector mechanics and catalogue-wide double-apply safety.

Randomized chaos campaigns compose faults freely, so the catalogue's
contract is: applying any fault twice to the same target is a no-op,
never an error (the second application lands on an already-faulted
target).  Every fault in :mod:`repro.faults.faultlib` is exercised here.
"""

import pytest

from repro.devices.fieldbus import Fieldbus
from repro.errors import FaultInjectionError
from repro.faults import (
    AppCrash,
    AppHang,
    AsymmetricPartition,
    BlueScreen,
    ClockSkew,
    CrashDuringCheckpoint,
    FaultInjector,
    FieldbusFailure,
    GrayNode,
    HealNetwork,
    LinkDown,
    MessageCorruption,
    MessageDuplication,
    MiddlewareCrash,
    NetworkPartition,
    NicDown,
    NodeFailure,
    NodeReboot,
    ReinstallMiddleware,
    TransientAppCrash,
)
from repro.faults.faultlib import Fault

from tests.core.util import make_pair_world


def started_world(seed=0):
    world = make_pair_world(seed=seed)
    world.fieldbuses["bus0"] = Fieldbus("bus0")
    world.start()
    return world


# ---------------------------------------------------------------------------
# Injector mechanics


def injection_times(world):
    return [record.time for record in world.trace.select(category="fault", event="inject")]


def test_inject_at_applies_at_scheduled_time():
    world = started_world()
    injector = FaultInjector(world.kernel, world)
    at = world.kernel.now + 500.0
    injector.inject_at(at, NodeFailure("alpha"))
    world.run_for(400.0)
    assert injection_times(world) == []
    assert world.systems["alpha"].state.value == "up"
    world.run_for(200.0)
    assert injection_times(world) == [at]
    assert world.systems["alpha"].state.value == "off"


def test_inject_at_in_the_past_fires_immediately():
    world = started_world()
    injector = FaultInjector(world.kernel, world)
    now = world.kernel.now
    injector.inject_at(0.0, BlueScreen("beta"))
    world.run_for(1.0)
    assert injection_times(world) == [now]


def test_applied_faults_tracks_both_paths():
    world = started_world()
    injector = FaultInjector(world.kernel, world)
    now = world.kernel.now
    injector.inject_now(ClockSkew("alpha", 1.1))
    injector.inject_at(now + 1_000.0, ClockSkew("alpha", 1.0))
    assert injection_times(world) == [now]
    world.run_for(1_500.0)
    assert injection_times(world) == [now, now + 1_000.0]


def test_injection_is_traced():
    world = started_world()
    before = world.trace.count(category="fault", event="inject")
    FaultInjector(world.kernel, world).inject_now(GrayNode("alpha", 50.0))
    records = world.trace.select(category="fault", event="inject")
    assert world.trace.count(category="fault", event="inject") == before + 1
    assert "gray node" in records[-1].detail["fault"]


def test_invalid_parameters_rejected_at_construction():
    with pytest.raises(FaultInjectionError):
        MessageCorruption("lan0", 1.5)
    with pytest.raises(FaultInjectionError):
        MessageDuplication("lan0", -0.1)
    with pytest.raises(FaultInjectionError):
        GrayNode("alpha", -1.0)
    with pytest.raises(FaultInjectionError):
        ClockSkew("alpha", 0.0)


def test_base_fault_is_abstract():
    with pytest.raises(NotImplementedError):
        Fault().apply(object())


# ---------------------------------------------------------------------------
# Catalogue-wide double-apply safety.  Each entry is (label, factory) where
# the factory builds one fault instance for a started pair world.

CATALOGUE = [
    ("node-failure", lambda w: NodeFailure("alpha")),
    ("bluescreen", lambda w: BlueScreen("alpha")),
    ("app-crash", lambda w: AppCrash(w.primary, "synthetic")),
    ("transient-app-crash", lambda w: TransientAppCrash(w.primary, "synthetic")),
    ("app-hang", lambda w: AppHang(w.primary, "synthetic")),
    ("middleware-crash", lambda w: MiddlewareCrash(w.primary)),
    ("link-down", lambda w: LinkDown("lan0")),
    ("nic-down", lambda w: NicDown("alpha", "lan0")),
    ("partition", lambda w: NetworkPartition(["alpha"], ["beta"])),
    ("fieldbus-failure", lambda w: FieldbusFailure("bus0")),
    ("node-reboot", lambda w: NodeReboot("alpha")),
    ("reinstall-middleware", lambda w: ReinstallMiddleware("alpha")),
    ("asym-partition", lambda w: AsymmetricPartition(["alpha"], ["beta"])),
    ("heal-network", lambda w: HealNetwork()),
    ("message-corruption", lambda w: MessageCorruption("lan0", 0.2)),
    ("message-duplication", lambda w: MessageDuplication("lan0", 0.2)),
    ("gray-node", lambda w: GrayNode("alpha", 100.0)),
    ("clock-skew", lambda w: ClockSkew("alpha", 1.25)),
    ("crash-during-checkpoint", lambda w: CrashDuringCheckpoint(w.primary)),
]


@pytest.mark.parametrize("label,factory", CATALOGUE, ids=[label for label, _ in CATALOGUE])
def test_double_apply_is_a_noop(label, factory):
    world = started_world()
    fault = factory(world)
    injector = FaultInjector(world.kernel, world)
    injector.inject_now(fault)
    injector.inject_now(fault)  # must not raise
    # Delayed consequences (boot hooks, armed crashes) must also land cleanly.
    world.run_for(5_000.0)


@pytest.mark.parametrize("label,factory", CATALOGUE, ids=[label for label, _ in CATALOGUE])
def test_fresh_instance_reapply_is_a_noop(label, factory):
    # Campaigns may construct a new fault object aimed at the same target
    # (built while the target was still healthy, applied later).
    world = started_world()
    first, second = factory(world), factory(world)
    injector = FaultInjector(world.kernel, world)
    injector.inject_now(first)
    world.run_for(100.0)
    injector.inject_now(second)
    world.run_for(5_000.0)


def test_every_catalogue_fault_describes_itself():
    world = started_world()
    for label, factory in CATALOGUE:
        description = factory(world).describe()
        assert isinstance(description, str) and description
