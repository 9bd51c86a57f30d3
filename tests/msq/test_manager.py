"""Unit tests for the MSMQ queue manager and store-and-forward transport."""

import pytest

from repro.errors import MsqError, QueueNotFound
from repro.msq.manager import DEAD_LETTER_QUEUE, QueueManager

from tests.conftest import make_world


def make_managers():
    world = make_world()
    for name in ("sender", "receiver"):
        world.add_machine(name)
    sender = QueueManager(world.kernel, world.network, world.network.nodes["sender"])
    receiver = QueueManager(world.kernel, world.network, world.network.nodes["receiver"])
    return world, sender, receiver


def test_local_send_enqueues_immediately():
    world, sender, _receiver = make_managers()
    sender.create_queue("inbox")
    sender.send("sender", "inbox", {"x": 1})
    assert sender.open_queue("inbox").receive().body == {"x": 1}


def test_remote_send_delivers_and_acks():
    world, sender, receiver = make_managers()
    receiver.create_queue("inbox")
    sender.send("receiver", "inbox", "payload")
    world.run_for(100.0)
    assert receiver.open_queue("inbox").receive().body == "payload"
    assert sender.pending_count() == 0
    assert sender.stats["acked"] == 1


def test_all_messages_delivered_exactly_once():
    """Like non-transactional MSMQ, arrival order may vary under network
    jitter; the guarantee is complete, duplicate-free delivery."""
    world, sender, receiver = make_managers()
    receiver.create_queue("inbox")
    for index in range(10):
        sender.send("receiver", "inbox", index)
    world.run_for(500.0)
    queue = receiver.open_queue("inbox")
    received = [queue.receive().body for _ in range(10)]
    assert sorted(received) == list(range(10))


def test_retry_until_receiver_returns():
    world, sender, receiver = make_managers()
    receiver.create_queue("inbox")
    world.systems["receiver"].power_off()
    sender.send("receiver", "inbox", "persistent!")
    world.run_for(3_000.0)
    assert sender.pending_count() == 1  # still retrying
    world.systems["receiver"].reboot()
    world.run_for(3_000.0)
    assert sender.pending_count() == 0
    assert receiver.open_queue("inbox").receive().body == "persistent!"
    assert sender.stats["retries"] > 0


def test_retries_do_not_duplicate_deliveries():
    world, sender, receiver = make_managers()
    receiver.create_queue("inbox")
    # Lossy network forces retries and ack losses.
    world.network.links["lan0"].loss = 0.4
    for index in range(20):
        sender.send("receiver", "inbox", index)
    world.run_for(30_000.0)
    queue = receiver.open_queue("inbox")
    bodies = []
    while True:
        msg = queue.receive()
        if msg is None:
            break
        bodies.append(msg.body)
    assert sorted(bodies) == list(range(20))  # exactly once into the queue


def test_ttl_expiry_dead_letters():
    world, sender, receiver = make_managers()
    receiver.create_queue("inbox")
    world.systems["receiver"].power_off()
    sender.send("receiver", "inbox", "doomed", ttl=1_000.0)
    world.run_for(5_000.0)
    assert sender.pending_count() == 0
    dead = sender.open_queue(DEAD_LETTER_QUEUE).receive()
    assert dead is not None
    assert dead.body["reason"] == "ttl-expired"
    assert dead.body["body"] == "doomed"


def test_unknown_queue_nacked_and_dead_lettered():
    world, sender, receiver = make_managers()
    sender.send("receiver", "no-such-queue", "lost")
    world.run_for(1_000.0)
    dead = sender.open_queue(DEAD_LETTER_QUEUE).receive()
    assert dead is not None
    assert dead.body["reason"] == "no-queue"


def test_redirect_pending_moves_target():
    world, sender, receiver = make_managers()
    third = world.add_machine("third")
    third_mgr = QueueManager(world.kernel, world.network, world.network.nodes["third"])
    third_mgr.create_queue("inbox")
    world.systems["receiver"].power_off()
    sender.send("receiver", "inbox", "wandering")
    world.run_for(1_000.0)
    moved = sender.redirect_pending("receiver", "third")
    assert moved == 1
    world.run_for(2_000.0)
    assert third_mgr.open_queue("inbox").receive().body == "wandering"


def test_crash_purges_express_and_recovers_persistent():
    world, sender, receiver = make_managers()
    queue = receiver.create_queue("inbox")
    sender.send("receiver", "inbox", "keep", persistent=True)
    sender.send("receiver", "inbox", "lose", persistent=False)
    world.run_for(200.0)
    receiver.on_crash()
    receiver.on_recover()
    bodies = []
    while True:
        msg = queue.receive()
        if msg is None:
            break
        bodies.append(msg.body)
    assert bodies == ["keep"]


def test_send_while_down_rejected():
    world, sender, _receiver = make_managers()
    sender.on_crash()
    with pytest.raises(MsqError):
        sender.send("receiver", "inbox", "x")


def test_open_missing_queue_rejected():
    world, sender, _receiver = make_managers()
    with pytest.raises(QueueNotFound):
        sender.open_queue("ghost")


def test_create_queue_idempotent():
    world, sender, _receiver = make_managers()
    first = sender.create_queue("q")
    second = sender.create_queue("q")
    assert first is second


def test_message_received_over_the_network_is_delivered_once_and_stamped():
    world, sender, receiver = make_managers()
    receiver.create_queue("inbox")
    world.run_for(40.0)
    sender.send("receiver", "inbox", "payload", label="x")
    sent_at = world.kernel.now
    world.run_for(100.0)
    message = receiver.open_queue("inbox").receive()
    assert message.delivery_count == 1
    assert message.sent_at == sent_at
    assert sent_at < message.enqueued_at <= world.kernel.now
    assert (message.sender, message.body, message.label, message.persistent) == ("sender", "payload", "x", True)
