"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimError
from repro.simnet.events import Timeout
from repro.simnet.kernel import SimKernel


def test_schedule_runs_in_time_order():
    kernel = SimKernel()
    seen = []
    kernel.schedule(30.0, seen.append, "c")
    kernel.schedule(10.0, seen.append, "a")
    kernel.schedule(20.0, seen.append, "b")
    kernel.run()
    assert seen == ["a", "b", "c"]
    assert kernel.now == 30.0


def test_equal_timestamps_run_in_insertion_order():
    kernel = SimKernel()
    seen = []
    for label in ("first", "second", "third"):
        kernel.schedule(5.0, seen.append, label)
    kernel.run()
    assert seen == ["first", "second", "third"]


def test_run_until_stops_and_advances_clock_exactly():
    kernel = SimKernel()
    seen = []
    kernel.schedule(10.0, seen.append, "early")
    kernel.schedule(100.0, seen.append, "late")
    kernel.run(until=50.0)
    assert seen == ["early"]
    assert kernel.now == 50.0
    kernel.run(until=150.0)
    assert seen == ["early", "late"]
    assert kernel.now == 150.0


def test_cancelled_calls_do_not_run():
    kernel = SimKernel()
    seen = []
    call = kernel.schedule(10.0, seen.append, "never")
    kernel.cancel(call)
    kernel.run()
    assert seen == []


def test_negative_delay_rejected():
    kernel = SimKernel()
    with pytest.raises(SimError):
        kernel.schedule(-1.0, lambda: None)


def test_process_runs_and_fires_with_return_value():
    kernel = SimKernel()

    def body():
        yield Timeout(5.0)
        yield Timeout(5.0)
        return "done"

    process = kernel.spawn(body())
    kernel.run()
    assert not process.alive
    assert process.fired
    assert process.value == "done"
    assert kernel.now == 10.0


def test_process_can_join_another_process():
    kernel = SimKernel()
    order = []

    def child():
        yield Timeout(7.0)
        order.append("child")
        return 42

    def parent():
        child_process = kernel.spawn(child())
        result = yield child_process
        order.append(("parent", result))

    kernel.spawn(parent())
    kernel.run()
    assert order == ["child", ("parent", 42)]


def test_kill_stops_process_without_cleanup():
    kernel = SimKernel()
    progressed = []

    def body():
        while True:
            yield Timeout(10.0)
            progressed.append(kernel.now)

    process = kernel.spawn(body())
    kernel.run(until=35.0)
    process.kill()
    kernel.run(until=200.0)
    assert progressed == [10.0, 20.0, 30.0]
    assert not process.alive


def test_kill_is_idempotent():
    kernel = SimKernel()

    def body():
        yield Timeout(10.0)

    process = kernel.spawn(body())
    process.kill()
    process.kill()
    assert not process.alive


def test_process_error_raises_from_run_by_default():
    kernel = SimKernel()

    def body():
        yield Timeout(1.0)
        raise ValueError("boom")

    process = kernel.spawn(body())
    with pytest.raises(ValueError, match="boom") as raised:
        kernel.run()
    assert process.error is raised.value
    assert not process.alive and process.fired


def test_yielding_non_waitable_is_error():
    kernel = SimKernel()

    def body():
        yield 42

    kernel.spawn(body())
    with pytest.raises(SimError):
        kernel.run()


def test_pending_counts_non_cancelled():
    kernel = SimKernel()
    call = kernel.schedule(5.0, lambda: None)
    kernel.schedule(6.0, lambda: None)
    assert kernel.pending == 2
    kernel.cancel(call)
    assert kernel.pending == 1
