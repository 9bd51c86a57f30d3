"""Unit tests for MSMQ queues."""

from repro.msq.queue import MsmqQueue, QueueMessage


def message(message_id, body="b", persistent=True):
    return QueueMessage(message_id=message_id, sender="s", body=body, persistent=persistent)


def test_fifo_order():
    queue = MsmqQueue("q", "node")
    for index in range(5):
        queue.enqueue(message(f"m{index}", body=index), now=float(index))
    received = [queue.receive().body for _ in range(5)]
    assert received == [0, 1, 2, 3, 4]


def test_duplicate_ids_dropped():
    queue = MsmqQueue("q", "node")
    assert queue.enqueue(message("m1"), now=0.0)
    assert not queue.enqueue(message("m1"), now=1.0)
    assert len(queue) == 1


def test_receive_empty_returns_none():
    queue = MsmqQueue("q", "node")
    assert queue.receive() is None
    assert queue.peek() is None


def test_peek_does_not_consume():
    queue = MsmqQueue("q", "node")
    queue.enqueue(message("m1"), now=0.0)
    assert queue.peek().message_id == "m1"
    assert len(queue) == 1


def test_subscribe_drains_existing_and_future():
    queue = MsmqQueue("q", "node")
    queue.enqueue(message("m1"), now=0.0)
    seen = []
    queue.subscribe(lambda m: seen.append(m.message_id))
    assert seen == ["m1"]
    queue.enqueue(message("m2"), now=1.0)
    assert seen == ["m1", "m2"]


def test_unsubscribe_accumulates_again():
    queue = MsmqQueue("q", "node")
    seen = []
    queue.subscribe(lambda m: seen.append(m.message_id))
    queue.unsubscribe()
    queue.enqueue(message("m1"), now=0.0)
    assert seen == []
    assert len(queue) == 1


def test_purge_express_drops_only_nonpersistent():
    queue = MsmqQueue("q", "node")
    queue.enqueue(message("p1", persistent=True), now=0.0)
    queue.enqueue(message("e1", persistent=False), now=0.0)
    queue.enqueue(message("p2", persistent=True), now=0.0)
    dropped = queue.purge_express()
    assert dropped == 1
    assert [m.message_id for m in queue.messages] == ["p1", "p2"]


def test_enqueue_timestamps_message():
    queue = MsmqQueue("q", "node")
    msg = message("m1")
    queue.enqueue(msg, now=123.0)
    assert msg.enqueued_at == 123.0
