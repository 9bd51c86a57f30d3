"""Unit tests for yieldable synchronization primitives."""

import pytest

from repro.errors import SimError
from repro.simnet.events import Event, Timeout
from repro.simnet.kernel import SimKernel


def test_timeout_negative_delay_rejected():
    with pytest.raises(SimError):
        Timeout(-0.1)


def _yield_timeout(delay):
    yield Timeout(delay)


@pytest.mark.parametrize("delay", [-1.0, float("nan")], ids=["negative", "nan"])
def test_bad_timeout_propagates_under_raise_policy(delay):
    kernel = SimKernel()
    kernel.spawn(_yield_timeout(delay))
    with pytest.raises(SimError, match="negative timeout delay"):
        kernel.run()


def test_timeout_carries_value():
    kernel = SimKernel()
    result = []

    def body():
        value = yield Timeout(5.0, value="payload")
        result.append(value)

    kernel.spawn(body())
    kernel.run()
    assert result == ["payload"]


def test_event_wakes_all_waiters_with_value():
    kernel = SimKernel()
    event = Event("gate")
    results = []

    def waiter(tag):
        value = yield event
        results.append((tag, value))

    kernel.spawn(waiter("a"))
    kernel.spawn(waiter("b"))
    kernel.schedule(10.0, event.succeed, 99)
    kernel.run()
    assert sorted(results) == [("a", 99), ("b", 99)]


def test_event_fires_only_once():
    event = Event()
    event.succeed(1)
    with pytest.raises(SimError):
        event.succeed(2)


def test_late_callback_on_fired_event_runs_immediately():
    event = Event()
    event.succeed("val")
    seen = []
    event.add_callback(lambda w: seen.append(w.value))
    assert seen == ["val"]
