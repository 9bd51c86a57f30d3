"""Unit tests for the NT machine model: boot, crash modes, registry."""

import pytest

from repro.errors import NTError
from repro.nt.registry import NTRegistry
from repro.nt.system import SystemState

from tests.conftest import make_world


def test_boot_has_randomized_duration():
    world = make_world(seed=1)
    system = world.add_machine("host", boot=False)
    eta = system.boot()
    assert eta >= system.boot_time
    world.run(eta + 1.0)
    assert system.is_up
    assert system.boot_count == 1


def test_boot_durations_vary_across_machines():
    world = make_world(seed=1)
    etas = set()
    for name in ("m1", "m2", "m3", "m4"):
        system = world.add_machine(name, boot=False)
        etas.add(system.boot())
    assert len(etas) > 1  # §3.2 non-determinism


def test_double_boot_rejected():
    world = make_world()
    system = world.add_machine("host")
    with pytest.raises(NTError):
        system.boot()


def test_power_off_kills_processes_and_network_presence():
    world = make_world()
    system = world.add_machine("host")
    process = system.create_process("app")
    process.create_thread("main", dynamic=False)
    process.start()
    system.power_off()
    assert system.state is SystemState.OFF
    assert not process.alive
    assert not system.node.powered


def test_bluescreen_kills_everything_and_requires_reboot():
    world = make_world()
    system = world.add_machine("host")
    process = system.create_process("app")
    process.create_thread("main", dynamic=False)
    process.start()
    system.bluescreen()
    assert system.state is SystemState.BLUESCREEN
    assert not process.alive
    with pytest.raises(NTError):
        system.create_process("new")
    eta = system.reboot()
    world.run(eta + 1.0)
    assert system.is_up
    assert system.boot_count == 2


def test_bluescreen_only_from_up():
    world = make_world()
    system = world.add_machine("host")
    system.power_off()
    with pytest.raises(NTError):
        system.bluescreen()


def test_power_off_while_booting_aborts_boot():
    world = make_world()
    system = world.add_machine("host", boot=False)
    system.boot()
    system.power_off()
    world.run(10_000.0)
    assert system.state is SystemState.OFF


def test_on_boot_callbacks_fire():
    world = make_world()
    system = world.add_machine("host", boot=False)
    booted = []
    system.on_boot.append(lambda s: booted.append(s.node.name))
    eta = system.boot()
    world.run(eta + 1.0)
    assert booted == ["host"]


def test_duplicate_live_process_name_rejected():
    world = make_world()
    system = world.add_machine("host")
    process = system.create_process("app")
    process.create_thread("main", dynamic=False)
    process.start()
    with pytest.raises(NTError):
        system.create_process("app")
    process.kill()
    replacement = system.create_process("app")  # dead one may be replaced
    assert replacement is not process


def test_uptime_tracks_boot():
    world = make_world()
    system = world.add_machine("host")
    world.run(500.0)
    assert system.uptime() == 500.0
    system.power_off()
    assert system.uptime() == 0.0


# -- registry ---------------------------------------------------------------


def test_registry_set_get_value():
    registry = NTRegistry()
    registry.set_value("SOFTWARE\\SoHaR\\OFTT", "HeartbeatPeriod", 100)
    assert registry.get_value("SOFTWARE\\SoHaR\\OFTT", "HeartbeatPeriod") == 100
    assert registry.get_value("SOFTWARE\\SoHaR\\OFTT", "Missing", "default") == "default"
    assert registry.get_value("No\\Such\\Key", "x", 42) == 42


def test_registry_keys_and_subkeys():
    registry = NTRegistry()
    registry.set_value("CLSID\\{AAA}\\InprocServer32", "", "server.dll")
    registry.set_value("CLSID\\{BBB}", "", "Other")
    assert registry.has_key("CLSID\\{AAA}")
    assert registry.has_key("CLSID\\{AAA}\\InprocServer32")
    assert registry.has_key("CLSID\\{BBB}")
    assert not registry.has_key("CLSID\\{CCC}")


def test_registry_delete_key():
    registry = NTRegistry()
    registry.set_value("A\\B\\C", "v", 1)
    registry.delete_key("A\\B")
    assert not registry.has_key("A\\B")
    assert registry.has_key("A")
    with pytest.raises(NTError):
        registry.delete_key("A\\B")


def test_registry_empty_path_rejected():
    registry = NTRegistry()
    with pytest.raises(NTError):
        registry.set_value("", "v", 1)


def test_perfmon_snapshot_counts():
    world = make_world()
    system = world.add_machine("host")
    process = system.create_process("app")
    process.create_thread("t1", dynamic=False)
    process.create_thread("t2", dynamic=False)
    process.start()
    snapshot = system.perfmon.snapshot()
    assert snapshot["processes"] == 1
    assert snapshot["threads"] == 2
    assert system.perfmon.process_names() == ["app"]
