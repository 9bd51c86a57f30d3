"""Unit tests for yieldable synchronization primitives."""

import pytest

from repro.errors import SimError
from repro.simnet.events import AllOf, AnyOf, Condition, Event, Timeout, first_fired
from repro.simnet.kernel import SimKernel


def test_timeout_negative_delay_rejected():
    with pytest.raises(SimError):
        Timeout(-0.1)


def _yield_timeout(delay):
    yield Timeout(delay)


@pytest.mark.parametrize("delay", [-1.0, float("nan")], ids=["negative", "nan"])
def test_bad_timeout_is_recorded_inside_its_process(delay):
    """A bad delay raises in the generator, so the "record" policy keeps it."""
    kernel = SimKernel(on_error="record")
    process = kernel.spawn(_yield_timeout(delay))
    kernel.run()
    assert [(p, type(e)) for p, e in kernel.process_errors] == [(process, SimError)]
    assert "negative timeout delay" in str(kernel.process_errors[0][1])


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


def test_anyof_fires_with_first_index_and_value():
    kernel = SimKernel()
    results = []

    def body():
        outcome = yield AnyOf([Timeout(50.0, value="slow"), Timeout(10.0, value="fast")])
        results.append(outcome)

    kernel.spawn(body())
    kernel.run()
    assert results == [(1, "fast")]
    assert first_fired(results[0]) == 1


def test_anyof_empty_rejected():
    with pytest.raises(SimError):
        AnyOf([])


def test_allof_collects_values_in_order():
    kernel = SimKernel()
    results = []

    def body():
        values = yield AllOf([Timeout(30.0, value="c"), Timeout(10.0, value="a")])
        results.append(values)

    kernel.spawn(body())
    kernel.run()
    assert results == [["c", "a"]]
    assert kernel.now == 30.0


def test_allof_empty_rejected():
    with pytest.raises(SimError):
        AllOf([])


def test_condition_fires_on_poll_when_predicate_true():
    state = {"ready": False}
    condition = Condition(lambda: state["ready"], name="ready")
    assert not condition.poll()
    state["ready"] = True
    assert condition.poll()
    assert condition.fired
    # Further polls stay fired without re-firing.
    assert condition.poll()


def test_anyof_ignores_later_children():
    kernel = SimKernel()
    event_a = Event("a")
    event_b = Event("b")
    composite = AnyOf([event_a, event_b])
    event_a.succeed("first")
    event_b.succeed("second")  # must not raise or refire
    assert composite.value == (0, "first")
