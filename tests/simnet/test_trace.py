"""Unit tests for the trace log."""

from repro.simnet.kernel import SimKernel
from repro.simnet.trace import TraceLog


def build():
    kernel = SimKernel()
    return kernel, TraceLog(clock=lambda: kernel.now)


def test_emit_stamps_current_time():
    kernel, trace = build()
    kernel.schedule(25.0, trace.emit, "cat", "comp", "event")
    kernel.run()
    assert trace.records[0].time == 25.0


def test_select_filters_by_all_fields():
    kernel, trace = build()
    trace.emit("a", "x", "e1")
    trace.emit("a", "y", "e2")
    trace.emit("b", "x", "e1")
    assert len(trace.select(category="a")) == 2
    assert len(trace.select(component="x")) == 2
    assert len(trace.select(event="e1")) == 2
    assert len(trace.select(category="a", component="x")) == 1


def test_select_time_window():
    kernel, trace = build()
    for t in (10.0, 20.0, 30.0):
        kernel.schedule(t, trace.emit, "c", "comp", "tick")
    kernel.run()
    assert len(trace.select(since=15.0)) == 2
    assert len(trace.select(until=15.0)) == 1
    assert len(trace.select(since=15.0, until=25.0)) == 1


def test_select_window_is_half_open():
    """Windows are [since, until): the left edge is included, the right
    edge excluded, so adjacent windows tile without double-counting."""
    kernel, trace = build()
    for t in (10.0, 20.0, 30.0):
        kernel.schedule(t, trace.emit, "c", "comp", "tick")
    kernel.run()
    assert len(trace.select(since=20.0)) == 2  # left edge inclusive
    assert len(trace.select(until=20.0)) == 1  # right edge exclusive
    first = trace.select(since=10.0, until=20.0)
    second = trace.select(since=20.0, until=30.0)
    assert [r.time for r in first] == [10.0]
    assert [r.time for r in second] == [20.0]


def test_first_last_count():
    kernel, trace = build()
    trace.emit("c", "comp", "a")
    trace.emit("c", "comp", "b")
    trace.emit("c", "comp", "a")
    assert trace.first(event="a") is trace.records[0]
    assert trace.count(event="a") == 2
    assert trace.first(event="missing") is None


def test_detail_kwargs_preserved():
    kernel, trace = build()
    record = trace.emit("c", "comp", "e", value=7, label="x")
    assert record.detail == {"value": 7, "label": "x"}


def test_dump_renders_tail():
    kernel, trace = build()
    for index in range(5):
        trace.emit("c", "comp", f"e{index}")
    dump = trace.dump(limit=2)
    assert "e3" in dump and "e4" in dump and "e0" not in dump


def test_as_wire_sorts_detail_keys_and_quantizes_floats():
    kernel, trace = build()
    record = trace.emit("c", "comp", "e", zulu=1, alpha=0.1 + 0.2)
    wire = record.as_wire()
    assert list(wire["detail"].keys()) == ["alpha", "zulu"]
    assert wire["detail"]["alpha"] == 0.3


def test_fingerprint_ignores_construction_order():
    kernel, trace_a = build()
    kernel2, trace_b = build()
    trace_a.emit("c", "comp", "e", a=1, b=2)
    trace_b.emit("c", "comp", "e", b=2, a=1)
    assert trace_a.fingerprint() == trace_b.fingerprint()
    trace_b.emit("c", "comp", "e2")
    assert trace_a.fingerprint() != trace_b.fingerprint()


def test_empty_trace_is_not_silently_replaced():
    """An empty TraceLog must still be treated as a real object (the
    falsy-``or`` bug this suite once had)."""
    kernel = SimKernel()
    trace = TraceLog(clock=lambda: kernel.now)
    assert len(trace) == 0
    from repro.simnet.network import Network

    network = Network(kernel, trace=trace)
    assert network.trace is trace
