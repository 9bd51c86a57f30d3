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


# -- the direct resume: a process arms the timeout it waits on --------------------


def test_timeout_shared_by_two_processes_resumes_both_in_yield_order():
    kernel = SimKernel()
    shared = Timeout(10.0, value="tick")
    resumed = []

    def waiter(tag):
        value = yield shared
        resumed.append((tag, value, kernel.now))

    kernel.spawn(waiter("first"))
    kernel.spawn(waiter("second"))
    kernel.run(until=1.0)  # both have yielded; the first armed the timeout
    shared.add_callback(lambda fired: resumed.append(("callback", fired.value, kernel.now)))
    kernel.run()
    assert resumed == [("first", "tick", 10.0), ("second", "tick", 10.0), ("callback", "tick", 10.0)]
    assert shared.fired and shared.value == "tick"


def test_killed_process_timeout_still_fires_without_resuming_it():
    kernel = SimKernel()
    timeout = Timeout(10.0, value="late")
    resumed = []

    def body():
        resumed.append((yield timeout))

    process = kernel.spawn(body())
    kernel.run(until=5.0)
    process.kill()
    kernel.run()
    assert kernel.now == 10.0  # the timeout's call still ran
    assert timeout.fired and timeout.value == "late"
    assert resumed == []
    seen = []
    timeout.add_callback(lambda fired: seen.append(fired.value))
    assert seen == ["late"]  # a callback added after the fire runs at once
