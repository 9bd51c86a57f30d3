"""Unit tests for the Message Diverter and the System Monitor."""

from repro.core.diverter import MessageDiverter, inbox_queue_name
from repro.core.engine import STATUS_REPORT_PERIOD
from repro.core.monitor import SystemMonitor
from repro.core.status import ComponentStatus

from tests.core.util import make_pair_world


def with_test_pc(seed=0):
    """Pair world plus an external test PC with a diverter client."""
    world = make_pair_world(
        seed=seed,
        subscriber_nodes=["testpc"],
        monitor_nodes=["testpc"],
    )
    world.add_machine("testpc")
    client = world.add_client("testpc")
    monitor = SystemMonitor(world.kernel, world.network.nodes["testpc"])
    return world, client, monitor


def inbox_of(world, node):
    return world.pair.contexts[node].qmgr.open_queue(inbox_queue_name("test"))


def test_client_learns_primary_from_role_change_broadcast():
    world, client, _monitor = with_test_pc()
    assert client.primary is None
    world.start()
    world.run_for(1_000.0)
    assert client.primary == world.primary


def test_messages_buffered_until_primary_known_then_flushed():
    world, client, _monitor = with_test_pc()
    client.send({"n": 1})
    client.send({"n": 2})
    assert client.sent_count == 0  # no primary known yet: both buffered
    world.start()
    world.run_for(2_000.0)
    assert client.sent_count == 2
    queue = inbox_of(world, world.primary)
    received = []
    while True:
        message = queue.receive()
        if message is None:
            break
        received.append(message.body["n"])
    assert sorted(received) == [1, 2]


def test_switchover_redirects_and_retries():
    world, client, _monitor = with_test_pc()
    world.start()
    world.run_for(1_000.0)
    old_primary = world.primary
    # Cut the primary's power, then send while the failover is happening:
    # these MSMQ messages cannot be acked by the dead node.
    world.systems[old_primary].power_off()
    for index in range(5):
        client.send({"n": index})
    world.run_for(5_000.0)
    new_primary = world.primary
    assert new_primary != old_primary
    assert client.primary == new_primary
    assert client.redirect_count >= 1
    queue = inbox_of(world, new_primary)
    bodies = []
    while True:
        message = queue.receive()
        if message is None:
            break
        bodies.append(message.body["n"])
    assert sorted(bodies) == [0, 1, 2, 3, 4]


def test_role_change_listener_invoked():
    world, client, _monitor = with_test_pc()
    changes = []
    client.on_primary_change(changes.append)
    world.start()
    world.run_for(1_000.0)
    assert changes == [world.primary]


def test_message_diverter_descriptor():
    diverter = MessageDiverter("unit1", "a", "b")
    assert diverter.queue_name == inbox_queue_name("unit1")
    assert diverter.nodes == ("a", "b")


# -- system monitor ------------------------------------------------------------


def test_monitor_collects_periodic_reports():
    world, _client, monitor = with_test_pc()
    world.start()
    world.run_for(3_000.0)
    assert monitor.reports_received > 4
    engine_report = monitor.latest[(world.primary, "oftt-engine")]
    assert engine_report.status is ComponentStatus.RUNNING
    assert engine_report.role == "primary"
    assert monitor.current_primary() == world.primary


def test_monitor_sees_failure_and_switchover():
    world, _client, monitor = with_test_pc()
    world.start()
    world.run_for(3_000.0)
    old_primary = world.primary
    world.systems[old_primary].power_off()
    world.run_for(5_000.0)
    assert monitor.current_primary() == world.primary
    # The new primary reports its peer link down.
    assert monitor.latest[(world.primary, "peer-link")].status is ComponentStatus.FAILED


def test_monitor_transitions_and_staleness():
    world, _client, monitor = with_test_pc()
    world.start()
    world.run_for(3_000.0)
    report = monitor.latest[(world.primary, "oftt-engine")]
    assert report.status is ComponentStatus.RUNNING
    # The periodic reports keep the newest one within a period.
    assert world.kernel.now - report.time <= STATUS_REPORT_PERIOD + 100.0


def test_monitor_render_contains_components():
    world, _client, monitor = with_test_pc()
    world.start()
    world.run_for(2_000.0)
    rendered = monitor.render()
    assert "oftt-engine" in rendered
    assert "synthetic" in rendered
    assert "primary" in rendered
