"""Unit tests for the metrics helpers and report formatting."""

import math

import pytest

from repro.harness.reporting import format_dict, format_result, format_table
from repro.metrics import failover_timing, summarize
from repro.simnet.kernel import SimKernel
from repro.simnet.trace import TraceLog


# -- summarize ------------------------------------------------------------------


def test_summarize_basic_statistics():
    stats = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["n"] == 5
    assert stats["min"] == 1.0
    assert stats["max"] == 5.0
    assert stats["mean"] == 3.0
    assert stats["p50"] == 3.0


def test_summarize_empty_is_nan():
    stats = summarize([])
    assert stats["n"] == 0
    assert math.isnan(stats["mean"])


def test_summarize_p95_near_tail():
    values = list(range(100))
    stats = summarize([float(v) for v in values])
    assert 90 <= stats["p95"] <= 99


# -- failover timing -----------------------------------------------------------------


def test_failover_timing_extraction():
    kernel = SimKernel()
    trace = TraceLog(clock=lambda: kernel.now)
    kernel.schedule(100.0, trace.emit, "engine", "beta", "peer-lost")
    kernel.schedule(120.0, trace.emit, "engine", "beta", "takeover")
    kernel.run()
    timing = failover_timing(trace, fault_at=50.0, promoting_node="beta")
    assert timing.detection_latency == 50.0
    assert timing.failover_latency == 70.0


def test_failover_timing_missing_events():
    trace = TraceLog()
    timing = failover_timing(trace, fault_at=0.0, promoting_node="x")
    assert timing.detection_latency is None
    assert timing.failover_latency is None


# -- reporting --------------------------------------------------------------------------


def test_format_table_aligns_and_includes_rows():
    text = format_table(["name", "value"], [["alpha", 1], ["b", 123456]], title="T")
    lines = text.splitlines()
    assert lines[0] == "== T =="
    assert "name" in lines[1] and "value" in lines[1]
    assert "alpha" in text and "123456" in text


def test_format_table_empty_rows():
    text = format_table(["a", "b"], [])
    assert "a" in text and "b" in text


def test_format_dict_block():
    block = format_dict("B", {"key": 1, "longer_key": "v"})
    assert "== B ==" in block and "longer_key" in block


def test_format_result_renders_dicts_as_blocks_and_rows_as_tables():
    assert format_result("B", {"key": 1}) == format_dict("B", {"key": 1})
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    assert format_result("T", rows) == format_table(["a", "b"], [[1, "x"], [2, "y"]], title="T")


def test_format_handles_nan_and_large_floats():
    text = format_table(["x"], [[float("nan")], [123456.789]])
    assert "nan" in text
    assert "123456.789" in text


@pytest.mark.parametrize(
    "value, text",
    [
        # Two decimals below 1,000 and none from 1,000 up, where that
        # text is the value at four decimals...
        (0.5, "0.50"),
        (425.8, "425.80"),
        (2000.0, "2000"),
        (264797.0, "264797"),
        (-3.25, "-3.25"),
        # ...and the value at four decimals where it would not be.
        (0.9622, "0.9622"),
        (0.0013192612137203166, "0.0013"),
        (1.0349854967389547, "1.035"),
        (553.4951254942207, "553.4951"),
        (1114.6, "1114.6"),
        (1041.5, "1041.5"),
    ],
)
def test_format_prints_floats_as_the_result_holds_them(value, text):
    assert format_dict("B", {"x": value}).splitlines()[1] == f"x : {text}"


# -- run_experiments CLI -------------------------------------------------------------------


def test_run_experiments_rejects_unknown_ids(capsys):
    from repro.harness.run_experiments import main

    assert main(["NOPE"]) == 2
    captured = capsys.readouterr()
    assert "unknown experiment ids" in captured.err
    assert captured.out == ""


def test_run_experiments_single_id(capsys):
    from repro.harness.run_experiments import main

    assert main(["X5"]) == 0
    out = capsys.readouterr().out
    assert "X5" in out and "local-restart" in out
