"""Unit tests for the OPC server and group subscription machinery."""

import random

import pytest

from repro.com.runtime import ComRuntime
from repro.errors import OpcError
from repro.opc.group import OpcGroup
from repro.opc.server import OpcServer, ServerState
from repro.opc.types import Quality

from tests.conftest import make_world


def make_server():
    world = make_world()
    system = world.add_machine("host")
    runtime = ComRuntime(system, world.network)
    server = OpcServer(runtime, "OPC.Test.1")
    for item_id in ("plc.temp", "plc.flow"):
        server.namespace.define_simple(item_id, 0.0)
    return world, server


def test_server_status_block():
    world, server = make_server()
    status = server.GetStatus()
    assert status["name"] == "OPC.Test.1"
    assert status["state"] == ServerState.NO_CONFIG.value
    server.update_item("plc.temp", 21.0)
    assert server.GetStatus()["state"] == ServerState.RUNNING.value
    assert server.GetStatus()["item_count"] == 2


def test_group_add_remove():
    world, server = make_server()
    server.AddGroup("g1")
    with pytest.raises(OpcError):
        server.AddGroup("g1")
    assert server.GetGroupByName("g1") is not None
    server.RemoveGroup("g1")
    with pytest.raises(OpcError):
        server.GetGroupByName("g1")
    with pytest.raises(OpcError):
        server.RemoveGroup("g1")


def test_group_add_items_validates_and_returns_handles():
    world, server = make_server()
    group = server.AddGroup("g")
    handles = group.AddItems(["plc.temp", "plc.flow"])
    assert len(handles) == len(set(handles)) == 2
    with pytest.raises(Exception):
        group.AddItems(["no.such.item"])


def test_sync_read_returns_wire_values():
    world, server = make_server()
    group = server.AddGroup("g")
    handles = group.AddItems(["plc.temp"])
    server.update_item("plc.temp", 33.3)
    values = group.SyncRead(handles)
    assert values[0]["value"] == 33.3
    assert values[0]["quality"] == "good"


def test_sync_read_unknown_handle_rejected():
    world, server = make_server()
    group = server.AddGroup("g")
    with pytest.raises(OpcError):
        group.SyncRead([999])


def test_data_change_callback_batched_at_update_rate():
    world, server = make_server()
    group = server.AddGroup("g", update_rate=100.0)
    handles = group.AddItems(["plc.temp"])
    batches = []
    group.SetDataCallback(lambda name, batch: batches.append((world.kernel.now, batch)))
    # Three rapid updates within one update period -> one batch.
    server.update_item("plc.temp", 1.0)
    server.update_item("plc.temp", 2.0)
    server.update_item("plc.temp", 3.0)
    world.run_for(150.0)
    assert len(batches) == 1
    _time, batch = batches[0]
    assert batch[0][2]["value"] == 3.0  # latest value wins within the batch


def test_inactive_group_suppresses_callbacks():
    world, server = make_server()
    group = server.AddGroup("g", update_rate=50.0)
    group.AddItems(["plc.temp"])
    batches = []
    group.SetDataCallback(lambda name, batch: batches.append(batch))
    group.SetActive(False)
    server.update_item("plc.temp", 1.0)
    world.run_for(200.0)
    assert batches == []
    group.SetActive(True)
    server.update_item("plc.temp", 2.0)
    world.run_for(200.0)
    assert len(batches) == 1


def test_deadband_suppresses_small_changes():
    world, server = make_server()
    group = server.AddGroup("g", update_rate=50.0, deadband=10.0)  # 10 %
    group.AddItems(["plc.temp"])
    batches = []
    group.SetDataCallback(lambda name, batch: batches.append(batch))
    server.update_item("plc.temp", 100.0)
    world.run_for(100.0)
    server.update_item("plc.temp", 101.0)  # ~1 % change: suppressed
    world.run_for(100.0)
    server.update_item("plc.temp", 150.0)  # big change: reported
    world.run_for(100.0)
    reported = [batch[0][2]["value"] for batch in batches]
    assert reported == [100.0, 150.0]


def test_deadband_quality_change_always_reported():
    world, server = make_server()
    group = server.AddGroup("g", update_rate=50.0, deadband=50.0)
    group.AddItems(["plc.temp"])
    batches = []
    group.SetDataCallback(lambda name, batch: batches.append(batch))
    server.update_item("plc.temp", 100.0)
    world.run_for(100.0)
    server.update_item("plc.temp", 100.0, quality=Quality.BAD_DEVICE_FAILURE)
    world.run_for(100.0)
    assert len(batches) == 2


def test_remove_items_stops_their_notifications():
    world, server = make_server()
    group = server.AddGroup("g", update_rate=50.0)
    handles = group.AddItems(["plc.temp", "plc.flow"])
    batches = []
    group.SetDataCallback(lambda name, batch: batches.append(batch))
    group.RemoveItems([handles[0]])
    server.update_item("plc.temp", 5.0)
    server.update_item("plc.flow", 6.0)
    world.run_for(100.0)
    assert len(batches) == 1
    assert batches[0][0][1] == "plc.flow"


def test_write_vqt_through_device_hook():
    world, server = make_server()
    server.namespace.define_simple("plc.setpoint", 0.0, access="read_write")
    writes = []
    server.namespace.on_write("plc.setpoint", lambda item, value: writes.append(value))
    server.WriteVQT([("plc.setpoint", 55.0)])
    assert writes == [55.0]


def test_group_get_state():
    world, server = make_server()
    group = server.AddGroup("g", update_rate=250.0, deadband=5.0)
    group.AddItems(["plc.temp"])
    state = group.GetState()
    assert state == {
        "name": "g",
        "update_rate": 250.0,
        "deadband": 5.0,
        "active": True,
        "item_count": 1,
    }


# -- the update fan-out walks items in stored (handle) order ---------------------------


class SortedWalkGroup(OpcGroup):
    """The fan-out as it was: sort the handles on every update."""

    def _on_item_update(self, item_id, new_value):
        if not self.active or (self._sink_local is None and self._sink_remote is None):
            return
        for handle in sorted(self.items):
            if self.items[handle] != item_id:
                continue
            if self._within_deadband(handle, new_value):
                continue
            self._pending[handle] = new_value
        if self._pending and not self._flush_armed:
            self._flush_armed = True
            self.server.kernel.schedule(self.update_rate, self._flush)


@pytest.mark.parametrize("seed", range(6))
def test_flush_batches_after_churn_equal_the_sorted_walk(seed):
    world, server = make_server()
    server.namespace.define_simple("plc.level", 0.0)
    server.namespace.define_simple("plc.mode", "auto")
    rng = random.Random(seed)
    item_ids = ["plc.temp", "plc.flow", "plc.level", "plc.mode"]
    batches = {"stored": [], "sorted": []}
    groups = {}
    for name, kind in (("stored", OpcGroup), ("sorted", SortedWalkGroup)):
        group = kind(server, name, update_rate=100.0, deadband=5.0)
        server.groups[name] = group
        group.SetDataCallback(lambda group_name, batch: batches[group_name].append(batch))
        groups[name] = group
    # The same churn on both groups: duplicate subscriptions, removals
    # from the middle and re-adds, so handles are not contiguous.
    for _ in range(5):
        adds = [rng.choice(item_ids) for _ in range(rng.randint(1, 4))]
        handles = [group.AddItems(adds) for group in groups.values()]
        assert handles[0] == handles[1]
        present = sorted(groups["stored"].items)
        removed = rng.sample(present, k=rng.randint(0, len(present) // 2))
        for group in groups.values():
            group.RemoveItems(removed)
    assert list(groups["stored"].items) == sorted(groups["stored"].items)
    for step in range(60):
        item_id = rng.choice(item_ids)
        if item_id == "plc.mode":
            value = rng.choice(["auto", "manual"])
        else:
            value = rng.choice([10.0, 10.2, 11.0, 30.0])  # 10.0 -> 10.2 is inside the deadband
        quality = Quality.GOOD if rng.random() < 0.8 else Quality.UNCERTAIN
        server.update_item(item_id, value, quality)
        world.run(step * 40.0)
    world.run(5_000.0)
    assert batches["stored"] and batches["stored"] == batches["sorted"]
