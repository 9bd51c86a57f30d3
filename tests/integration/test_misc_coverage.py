"""Assorted coverage: counters, labels, stopped-status visibility,
region deletion, empty renders."""

from repro.core.monitor import SystemMonitor
from repro.core.status import ComponentStatus
from repro.nt.memory import MemoryRegion

from tests.core.util import make_pair_world


def test_region_delete_variable():
    region = MemoryRegion("r")
    region.write("a", 1)
    region.delete("a")
    assert "a" not in region
    region.delete("a")  # idempotent


def test_group_notifications_counter():
    from repro.com.runtime import ComRuntime
    from repro.opc.server import OpcServer
    from tests.conftest import make_world

    world = make_world()
    system = world.add_machine("host")
    server = OpcServer(ComRuntime(system, world.network), "OPC.C.1")
    server.namespace.define_simple("a", 0.0)
    group = server.AddGroup("g", update_rate=50.0)
    group.AddItems(["a"])
    batches = []
    group.SetDataCallback(lambda name, batch: batches.append(batch))
    for value in range(5):
        server.update_item("a", float(value))
        world.run_for(100.0)
    assert len(batches) == 5


def test_stopped_status_visible_on_monitor_after_switchover():
    world = make_pair_world(seed=121, monitor_nodes=["mon"])
    world.add_machine("mon")
    monitor = SystemMonitor(world.kernel, world.network.nodes["mon"])
    world.start()
    world.run_for(3_000.0)
    old_primary = world.primary
    world.pair.engines[old_primary].request_switchover("maintenance")
    world.run_for(3_000.0)
    # The demoted node's engine reports its app copy stopped.
    assert monitor.latest[(old_primary, "synthetic")].status is ComponentStatus.STOPPED
    assert monitor.latest[(old_primary, "oftt-engine")].role == "backup"


def test_diverter_message_labels_preserved():
    from repro.core.diverter import inbox_queue_name

    world = make_pair_world(seed=122, subscriber_nodes=["ext"])
    world.add_machine("ext")
    client = world.add_client("ext")
    world.start()
    world.run_for(2_000.0)
    client.send({"n": 1}, label="important")
    world.run_for(1_000.0)
    queue = world.pair.contexts[world.primary].qmgr.open_queue(inbox_queue_name("test"))
    message = queue.receive()
    assert message.label == "important"


def test_calltrack_render_before_any_events():
    from tests.apps.test_calltrack import make_calltrack

    _world, app = make_calltrack()
    rendered = app.render_histogram()
    assert "0 events" in rendered
    assert rendered.count("busy") == app.lines + 1


def test_engine_stats_counters_consistent():
    world = make_pair_world(seed=123)
    world.start()
    world.run_for(5_000.0)
    primary_engine = world.pair.engines[world.primary]
    backup_engine = world.pair.engines[world.backup]
    # Every checkpoint the primary sent was either received or lost on
    # the (lossless) link: counts match.
    assert len(primary_engine.checkpoint_sizes) == backup_engine.checkpoints_received
    # ... and the last one stored was acked.
    assert primary_engine.acked_sequence == backup_engine.peer_store.latest_sequence("synthetic")
    assert backup_engine.checkpoint_sizes == []  # backup app is not running
