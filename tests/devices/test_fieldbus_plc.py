"""Unit tests for the fieldbus, PLC scan loop, and the PLC→OPC bridge."""

import random

import pytest

from repro.com.runtime import ComRuntime
from repro.devices.device import Actuator, Device, Sensor
from repro.devices.fieldbus import Fieldbus
from repro.devices.plc import PLC, PlcOpcBridge
from repro.devices.signals import Constant, Step
from repro.opc.server import OpcServer
from repro.opc.types import Quality

from tests.conftest import make_world


def make_plant(seed=0):
    world = make_world(seed)
    bus = Fieldbus("bus0")
    bus.attach(Sensor("temp", Step(before=50.0, after=90.0, at_time=1_000.0)))
    bus.attach(Actuator("pump"))
    plc = PLC(world.kernel, "plc1", bus, world.rngs.stream("plc"), scan_period=50.0)
    plc.map_output("pump")
    return world, bus, plc


def test_fieldbus_attach_and_lookup():
    _world, bus, _plc = make_plant()
    assert [s.name for s in bus.sensors()] == ["temp"]
    assert [a.name for a in bus.actuators()] == ["pump"]
    with pytest.raises(KeyError):
        bus.device("ghost")
    with pytest.raises(ValueError):
        bus.attach(Sensor("temp", Constant(0.0)))


def test_fieldbus_down_blocks_io():
    world, bus, _plc = make_plant()
    bus.fail()
    with pytest.raises(IOError):
        bus.read_sensor("temp", 0.0, world.rngs.stream("x"))
    with pytest.raises(IOError):
        bus.write_actuator("pump", 1.0)
    bus.repair()
    assert bus.read_sensor("temp", 0.0, world.rngs.stream("x")) == 50.0


def test_plc_scan_reads_inputs_runs_logic_writes_outputs():
    world, bus, plc = make_plant()

    def interlock(inputs, outputs, _time):
        outputs["pump"] = 1.0 if inputs.get("temp", 0.0) > 80.0 else 0.0

    plc.add_logic(interlock)
    plc.start()
    world.run(500.0)
    assert plc.inputs["temp"] == 50.0
    assert bus.device("pump").commanded == 0.0
    world.run(1_500.0)
    assert plc.inputs["temp"] == 90.0
    assert bus.device("pump").commanded == 1.0


def test_plc_marks_bad_quality_on_sensor_failure():
    world, bus, plc = make_plant()
    plc.start()
    world.run(200.0)
    assert plc.input_quality["temp"] is Quality.GOOD
    bus.device("temp").fail()
    world.run(400.0)
    assert plc.input_quality["temp"] is Quality.BAD_DEVICE_FAILURE
    # Last good value is retained in the image.
    assert plc.inputs["temp"] == 50.0


def test_plc_stop_halts_scanning():
    world, bus, _plc = make_plant()
    plc, times = recording_plc(world, bus)
    plc.start()
    world.run(300.0)
    count = len(times)
    plc.stop()
    world.run(1_000.0)
    assert len(times) == count


def test_bridge_publishes_items_with_quality():
    world, bus, plc = make_plant()
    system = world.add_machine("host")
    runtime = ComRuntime(system, world.network)
    server = OpcServer(runtime, "OPC.P.1")
    bridge = PlcOpcBridge(world.kernel, plc, server, poll_period=100.0)
    plc.start()
    bridge.start()
    world.run(500.0)
    assert server.namespace.read("plc1.temp").value == 50.0
    assert server.namespace.read("plc1.pump").value == 0.0
    bus.device("temp").fail()
    world.run(1_000.0)
    assert server.namespace.read("plc1.temp").quality is Quality.BAD_DEVICE_FAILURE


def test_bridge_stop():
    world, _bus, plc = make_plant()
    system = world.add_machine("host")
    runtime = ComRuntime(system, world.network)
    server = OpcServer(runtime, "OPC.P.1")
    bridge = PlcOpcBridge(world.kernel, plc, server, poll_period=100.0)
    plc.start()
    bridge.start()
    world.run(300.0)
    updates = server.update_count
    bridge.stop()
    world.run(1_000.0)
    assert server.update_count == updates


# -- the sorted device views and one-lookup reads ------------------------------------


def test_fieldbus_views_are_name_sorted_whatever_the_attach_order():
    bus = Fieldbus("bus")
    for device in (
        Actuator("zeta_pump"),
        Sensor("temp", Constant(1.0)),
        Device("drain"),
        Actuator("alpha_fan"),
        Sensor("flow", Constant(2.0)),
        Sensor("level", Constant(3.0)),
    ):
        bus.attach(device)
    assert [sensor.name for sensor in bus.sensors()] == ["flow", "level", "temp"]
    assert [actuator.name for actuator in bus.actuators()] == ["alpha_fan", "zeta_pump"]
    bus.attach(Sensor("aaa", Constant(0.0)))
    assert [sensor.name for sensor in bus.sensors()][0] == "aaa"


def test_fieldbus_unknown_and_wrong_kind_names_raise():
    bus = Fieldbus("bus")
    bus.attach(Sensor("temp", Constant(1.0)))
    bus.attach(Actuator("pump"))
    bus.attach(Device("drain"))
    rng = random.Random(0)
    with pytest.raises(KeyError, match="no device ghost on bus"):
        bus.read_sensor("ghost", 0.0, rng)
    with pytest.raises(KeyError, match="no device ghost on bus"):
        bus.write_actuator("ghost", 1.0)
    with pytest.raises(TypeError, match="pump is not a sensor"):
        bus.read_sensor("pump", 0.0, rng)
    with pytest.raises(TypeError, match="drain is not a sensor"):
        bus.read_sensor("drain", 0.0, rng)
    with pytest.raises(TypeError, match="temp is not an actuator"):
        bus.write_actuator("temp", 1.0)
    assert bus.read_sensor("temp", 0.0, rng) == 1.0
    bus.write_actuator("pump", 2.0)
    assert bus.device("pump").commanded == 2.0


# -- the scan and poll timers --------------------------------------------------------


def recording_plc(world, bus):
    """A PLC whose one rung records the time of every scan."""
    plc = PLC(world.kernel, "plc1", bus, world.rngs.stream("plc"), scan_period=50.0)
    times = []
    plc.add_logic(lambda _inputs, _outputs, time: times.append(time))
    return plc, times


def test_plc_scans_every_period_from_start():
    world, bus, _plc = make_plant()
    plc, times = recording_plc(world, bus)
    world.run(30.0)
    plc.start()
    world.run(260.0)
    assert times == [30.0, 80.0, 130.0, 180.0, 230.0]


def test_plc_stop_then_start_in_one_tick_runs_one_loop():
    world, bus, _plc = make_plant()
    plc, times = recording_plc(world, bus)
    plc.start()
    world.run(120.0)
    plc.stop()
    plc.start()
    plc.start()  # already running: a no-op
    world.run(280.0)
    assert times == [0.0, 50.0, 100.0, 120.0, 170.0, 220.0, 270.0]


def test_plc_rung_that_stops_ends_scanning():
    world, bus, _plc = make_plant()
    plc, times = recording_plc(world, bus)
    plc.add_logic(lambda _inputs, _outputs, time: plc.stop() if time >= 100.0 else None)
    plc.start()
    world.run(1_000.0)
    assert times == [0.0, 50.0, 100.0]
    assert world.kernel.pending == 0  # no later tick is armed


def test_plc_rung_that_restarts_keeps_one_loop():
    world, bus, _plc = make_plant()
    plc, times = recording_plc(world, bus)
    restarts = []

    def restart(_inputs, _outputs, time):
        if time == 100.0 and not restarts:
            restarts.append(time)
            plc.stop()
            plc.start()

    plc.add_logic(restart)
    plc.start()
    world.run(260.0)
    # The restart arms a fresh first scan at 100 and drops the old loop.
    assert times == [0.0, 50.0, 100.0, 100.0, 150.0, 200.0, 250.0]


def make_bridge(world, plc):
    system = world.add_machine("host")
    runtime = ComRuntime(system, world.network)
    server = OpcServer(runtime, "OPC.P.1")
    return server, PlcOpcBridge(world.kernel, plc, server, poll_period=100.0)


def test_bridge_polls_every_period_and_restarts_as_one_loop():
    world, _bus, plc = make_plant()
    plc.start()
    server, bridge = make_bridge(world, plc)
    world.run(20.0)
    bridge.start()
    world.run(330.0)
    # Polls at 20, 120, 220 and 320; temp and pump each poll.
    assert server.update_count == 4 * 2
    bridge.stop()
    bridge.start()
    world.run(1_000.0)
    assert server.update_count == (4 + 7) * 2  # 330, 430, ..., 930
    bridge.stop()
    plc.stop()
    assert world.kernel.pending == 0


def test_bridge_defines_each_item_once_with_its_access():
    world, _bus, plc = make_plant()
    server, bridge = make_bridge(world, plc)
    plc.start()
    bridge.start()
    world.run(250.0)
    assert server.namespace.item_ids() == ["plc1.pump", "plc1.temp"]
    assert not server.namespace.definition("plc1.temp").writable()
    assert server.namespace.definition("plc1.pump").writable()
    server.WriteVQT([("plc1.pump", 1.0)])
    assert plc.outputs["pump"] == 1.0
