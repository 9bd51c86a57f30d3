"""Unit tests for the telephone system simulator (§4 workload)."""

import hashlib
import json

import pytest

from repro.apps.history import CallingHistoryGenerator
from repro.devices.telephone import CallEvent, TelephoneSystem

from tests.conftest import make_world


def make_phone(seed=0, **kwargs):
    """A simulator plus the Calling History that records its events."""
    world = make_world(seed)
    phone = TelephoneSystem(world.kernel, world.rngs.stream("phone"), **kwargs)
    return world, phone, CallingHistoryGenerator(phone).history


def test_busy_lines_never_exceed_line_count():
    world, phone, events = make_phone(lines=5, callers=10)
    phone.start()
    world.run(300_000.0)
    assert events
    assert all(0 <= event.busy_lines <= 5 for event in events)


def test_event_sequences_strictly_increasing():
    world, phone, events = make_phone()
    phone.start()
    world.run(120_000.0)
    sequences = [event.sequence for event in events]
    assert sequences == sorted(sequences)
    assert len(set(sequences)) == len(sequences)


def test_start_end_pairing():
    world, phone, events = make_phone()
    phone.start()
    world.run(200_000.0)
    starts = sum(1 for e in events if e.kind == "start")
    ends = sum(1 for e in events if e.kind == "end")
    # Every completed call started; at most `lines` calls still in flight.
    assert 0 <= starts - ends <= phone.line_count


def test_blocking_happens_under_offered_load():
    """10 callers on 5 lines with call time ~ idle time must block some
    attempts (Erlang-B loss behaviour)."""
    world, phone, events = make_phone(seed=3, mean_idle=2_000.0, mean_call=4_000.0)
    phone.start()
    world.run(400_000.0)
    blocked_events = [e for e in events if e.kind == "blocked"]
    assert blocked_events
    assert all(e.busy_lines == phone.line_count for e in blocked_events)
    assert all(e.line == -1 for e in blocked_events)


def test_histogram_accounts_every_event():
    world = make_world(0)
    phone = TelephoneSystem(world.kernel, world.rngs.stream("phone"))
    history = CallingHistoryGenerator(phone)
    phone.start()
    world.run(150_000.0)
    histogram = history.histogram()
    assert sorted(histogram) == list(range(phone.line_count + 1))
    assert sum(histogram.values()) == len(history.history)


def test_deterministic_for_seed():
    world_a, phone_a, events_a = make_phone(seed=7)
    phone_a.start()
    world_a.run(60_000.0)
    world_b, phone_b, events_b = make_phone(seed=7)
    phone_b.start()
    world_b.run(60_000.0)
    assert events_a == events_b


def test_listeners_receive_all_events():
    world, phone, events = make_phone()
    seen = []
    phone.add_listener(seen.append)
    phone.start()
    world.run(60_000.0)
    assert seen == events
    assert [event.sequence for event in seen] == list(range(1, len(seen) + 1))


def test_event_wire_roundtrip():
    event = CallEvent(kind="start", caller=3, line=1, time=10.0, busy_lines=2, sequence=5)
    assert CallEvent.from_wire(event.as_wire()) == event


def test_stop_frees_lines_and_halts():
    world, phone, events = make_phone()
    phone.start()
    world.run(30_000.0)
    assert phone.busy_lines > 0  # stopped mid-call
    phone.stop()
    assert phone.busy_lines == 0
    assert phone.line_busy == [False] * phone.line_count
    count = len(events)
    assert world.kernel.pending > 0  # the retired ticks are still armed
    world.run(60_000.0)
    assert len(events) == count
    assert phone.busy_lines == 0
    assert world.kernel.pending == 0  # they drained without an event


def stream_digest(events):
    rows = [[e.kind, e.caller, e.line, e.time, e.busy_lines, e.sequence] for e in events]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# Pinned from the callers run as simulation processes (a generator per
# caller sleeping on Timeouts): the kernel-timer callers must emit the
# same events at the same times, with the same RNG draws.
@pytest.mark.parametrize(
    "lines, callers, bounce, count, digest",
    [
        (5, 10, False, 93, "3f4ff9ad14c8007908dec0fb2a7da59edfa6072ffe0e567e609d555e9733065b"),
        (40, 100, False, 979, "1d453b86e3b379c3d4eaec41340a289507cd48c4d3ec08c32155e4acf3496ba8"),
        (5, 10, True, 93, "0fdf79bc42d0bcdf0f791e4f8309526949f1fe0888615f3422a61ad014bd8f37"),
        (40, 100, True, 953, "6c41e3155a9fd9458e7a0f283d360fcbeb0d6a8a7a6dff8e0025489776d8050d"),
    ],
)
def test_event_stream_is_pinned(lines, callers, bounce, count, digest):
    world, phone, events = make_phone(seed=7, lines=lines, callers=callers)
    phone.start()
    if bounce:
        # stop() and start() in one tick, mid-run.
        world.kernel.schedule(30_000.0, lambda: (phone.stop(), phone.start()))
    world.run(60_000.0)
    assert len(events) == count
    assert stream_digest(events) == digest


def test_busy_count_matches_the_lines_at_every_event():
    world, phone, events = make_phone(seed=3, lines=5, callers=10, mean_idle=2_000.0)
    mismatches = []

    def check(event):
        if not event.busy_lines == phone.busy_lines == sum(phone.line_busy):
            mismatches.append(event)

    phone.add_listener(check)
    phone.start()
    world.run(200_000.0)
    assert any(event.kind == "blocked" for event in events)
    assert mismatches == []


def test_stop_before_the_first_ticks_run():
    world, phone, events = make_phone()
    phone.start()
    phone.stop()
    world.run(60_000.0)
    assert events == []


@pytest.mark.parametrize("kind", ["start", "end", "blocked"])
def test_listener_can_stop_the_simulator(kind):
    world, phone, events = make_phone(seed=3, mean_idle=2_000.0)
    stopped_at = []

    def stop_on_first(event):
        if event.kind == kind and not stopped_at:
            stopped_at.append(event.sequence)
            phone.stop()

    phone.add_listener(stop_on_first)
    phone.start()
    world.run(400_000.0)
    assert stopped_at
    assert [event.sequence for event in events] == list(range(1, stopped_at[0] + 1))
    assert phone.busy_lines == 0


def test_listener_exception_ends_the_run():
    world, phone, events = make_phone()

    def explode(event):
        raise RuntimeError(f"listener failed on {event.sequence}")

    phone.add_listener(explode)
    phone.start()
    with pytest.raises(RuntimeError, match="listener failed on 1"):
        world.run(60_000.0)
