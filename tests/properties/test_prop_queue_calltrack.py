"""Property-based tests: queue dedupe and Call Track event processing."""

from hypothesis import given, settings, strategies as st

from repro.msq.queue import MsmqQueue, QueueMessage


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60))
def test_queue_dedupe_total_equals_distinct_ids(id_stream):
    queue = MsmqQueue("q", "node")
    for message_id in id_stream:
        queue.enqueue(QueueMessage(message_id=f"m{message_id}", sender="s", body=message_id), now=0.0)
    assert len(queue) == len(set(id_stream))
    drained = []
    while True:
        message = queue.receive()
        if message is None:
            break
        drained.append(message.message_id)
    assert len(drained) == len(set(drained)) == len(set(id_stream))


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=80))
def test_queue_push_and_poll_agree(id_stream):
    """Push subscription delivers exactly what polling would have."""
    poll_queue = MsmqQueue("poll", "node")
    push_queue = MsmqQueue("push", "node")
    pushed = []
    push_queue.subscribe(lambda m: pushed.append(m.message_id))
    for message_id in id_stream:
        for queue in (poll_queue, push_queue):
            queue.enqueue(QueueMessage(message_id=f"m{message_id}", sender="s", body=None), now=0.0)
    polled = []
    while True:
        message = poll_queue.receive()
        if message is None:
            break
        polled.append(message.message_id)
    assert pushed == polled


# -- call track under arbitrary delivery orders and duplication ----------------------


def _event(sequence, busy):
    return {
        "kind": "start",
        "caller": 0,
        "line": 0,
        "time": float(sequence),
        "busy_lines": busy,
        "sequence": sequence,
    }


@st.composite
def delivery_schedules(draw):
    """A set of events plus a delivery order with duplicates."""
    count = draw(st.integers(min_value=1, max_value=25))
    events = {seq: draw(st.integers(min_value=0, max_value=5)) for seq in range(1, count + 1)}
    order = draw(st.permutations(sorted(events)))
    duplicates = draw(st.lists(st.sampled_from(sorted(events)), max_size=10))
    return events, list(order) + duplicates


@given(delivery_schedules())
@settings(max_examples=40, deadline=None)
def test_calltrack_histogram_invariant_under_reorder_and_dup(schedule):
    """However events are reordered/duplicated in delivery, each distinct
    event is counted exactly once."""
    from tests.apps.test_calltrack import make_calltrack

    events, order = schedule
    _world, app = make_calltrack(save_on_end=False)
    for sequence in order:
        app.process_event(_event(sequence, events[sequence]))
    histogram = app.histogram()
    expected = {}
    for busy in events.values():
        expected[busy] = expected.get(busy, 0) + 1
    for busy, count in expected.items():
        assert histogram[busy] == count
    assert app.events_processed() == len(events)
    state = app.state()
    assert state["duplicates_dropped"] == len(order) - len(events)
    assert state["seen_floor"] == max(events)
    assert state["seen_recent"] == []
