"""Tests for ``oftt-bench diff``: regression gating over saved reports."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import diff
from repro.bench.cli import main

BASE = {
    "schema": "repro.bench/v1",
    "profile": "quick",
    "jobs": 2,
    "host": {"cpu_count": 4, "platform": "linux", "python": "3.11.7"},
    "benches": [
        {
            "name": "kernel-events",
            "work": {"scheduled": 1000, "fired": 666, "drained": True},
            "measured": {"events_per_s": 1000.0, "wall_s": 1.0},
        },
        {
            "name": "chaos-campaign",
            "work": {"runs": 10, "byte_identical": True},
            "measured": {"speedup": 2.0, "parallel_wall_s": 5.0},
        },
    ],
}


def write_report(path, report):
    path.write_text(json.dumps(report) + "\n", encoding="utf-8")
    return str(path)


def variant(**measured_updates):
    """BASE with some measured metrics replaced (bench.key=value)."""
    report = copy.deepcopy(BASE)
    for spec, value in measured_updates.items():
        bench_name, _, key = spec.partition("__")
        bench_name = bench_name.replace("_", "-")
        for bench in report["benches"]:
            if bench["name"] == bench_name:
                bench["measured"][key] = value
    return report


def run_diff(tmp_path, old, new, *extra):
    old_path = write_report(tmp_path / "BENCH_1.json", old)
    new_path = write_report(tmp_path / "BENCH_2.json", new)
    return main(["diff", old_path, new_path, *extra])


# -- metric gating --------------------------------------------------------


def test_identical_reports_pass(tmp_path, capsys):
    assert run_diff(tmp_path, BASE, copy.deepcopy(BASE)) == 0
    out = capsys.readouterr().out
    assert "work: identical" in out
    assert "0 regression(s)" in out


def test_throughput_drop_beyond_threshold_fails(tmp_path, capsys):
    slower = variant(kernel_events__events_per_s=500.0)
    assert run_diff(tmp_path, BASE, slower) == 1
    out = capsys.readouterr().out
    assert "REGRESSION kernel-events.events_per_s" in out


def test_wall_clock_rise_beyond_threshold_fails(tmp_path, capsys):
    slower = variant(chaos_campaign__parallel_wall_s=9.0)
    assert run_diff(tmp_path, BASE, slower) == 1
    assert "REGRESSION chaos-campaign.parallel_wall_s" in capsys.readouterr().out


def test_noise_within_threshold_passes(tmp_path, capsys):
    noisy = variant(kernel_events__events_per_s=900.0, kernel_events__wall_s=1.1)
    assert run_diff(tmp_path, BASE, noisy) == 0


def test_improvement_is_reported_not_gated(tmp_path, capsys):
    faster = variant(kernel_events__events_per_s=2000.0)
    assert run_diff(tmp_path, BASE, faster) == 0
    assert "improved" in capsys.readouterr().out


def test_threshold_flag_tightens_the_gate(tmp_path, capsys):
    noisy = variant(kernel_events__events_per_s=900.0)
    assert run_diff(tmp_path, BASE, noisy, "--threshold", "0.05") == 1


# -- work halves ----------------------------------------------------------


def test_work_mismatch_fails_even_with_better_numbers(tmp_path, capsys):
    shrunk = variant(kernel_events__events_per_s=9999.0)
    shrunk["benches"][0]["work"]["scheduled"] = 1  # did far less work
    assert run_diff(tmp_path, BASE, shrunk) == 1
    out = capsys.readouterr().out
    assert "work: MISMATCH" in out
    assert "kernel-events" in out and "scheduled" in out


def test_added_or_removed_bench_is_a_work_mismatch(tmp_path, capsys):
    fewer = copy.deepcopy(BASE)
    fewer["benches"] = fewer["benches"][:1]
    assert run_diff(tmp_path, BASE, fewer) == 1
    assert "only in old report" in capsys.readouterr().out


# -- usage errors ---------------------------------------------------------


def test_missing_report_is_a_usage_error(tmp_path, capsys):
    old_path = write_report(tmp_path / "BENCH_1.json", BASE)
    assert main(["diff", old_path, str(tmp_path / "nope.json")]) == 2


def test_wrong_schema_is_a_usage_error(tmp_path, capsys):
    old_path = write_report(tmp_path / "BENCH_1.json", BASE)
    bogus = write_report(tmp_path / "other.json", {"schema": "something/else"})
    assert main(["diff", old_path, bogus]) == 2


def test_wrong_arity_is_a_usage_error(tmp_path, capsys):
    old_path = write_report(tmp_path / "BENCH_1.json", BASE)
    assert main(["diff", old_path]) == 2


# -- --latest -------------------------------------------------------------


def test_latest_picks_the_two_newest_reports(tmp_path, capsys):
    write_report(tmp_path / "BENCH_1.json", variant(kernel_events__events_per_s=9999.0))
    write_report(tmp_path / "BENCH_2.json", BASE)
    write_report(tmp_path / "BENCH_3.json", variant(kernel_events__events_per_s=400.0))
    # BENCH_1 is out of the window; 2 -> 3 is a regression.
    assert main(["diff", "--latest", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "BENCH_2.json -> " in out and "BENCH_3.json" in out


def test_latest_with_single_baseline_is_a_clean_no_op(tmp_path, capsys):
    write_report(tmp_path / "BENCH_1.json", BASE)
    assert main(["diff", "--latest", "--root", str(tmp_path)]) == 0
    assert "nothing to compare" in capsys.readouterr().out


# -- library surface ------------------------------------------------------


def test_metric_direction_classification():
    assert diff.metric_direction("events_per_s") == "higher"
    assert diff.metric_direction("speedup") == "higher"
    assert diff.metric_direction("wall_s") == "lower"
    assert diff.metric_direction("fingerprint_cold_s") == "lower"
    assert diff.metric_direction("cache_hits") == "neutral"


def test_zero_baseline_never_divides(tmp_path):
    old = variant(kernel_events__events_per_s=0.0)
    new = variant(kernel_events__events_per_s=10.0)
    result = diff.diff_reports(old, new)
    assert result.regressions(0.25) == []


# -- the host line --------------------------------------------------------


def test_host_line_shows_the_reference_loop_of_both_reports(tmp_path, capsys):
    old = copy.deepcopy(BASE)  # saved before the loop existed: no field
    new = copy.deepcopy(BASE)
    new["host"]["reference_s"] = 0.0102
    assert run_diff(tmp_path, old, new) == 0
    assert "host: reference loop not recorded -> 10.20 ms" in capsys.readouterr().out
    newer = copy.deepcopy(new)
    newer["host"]["reference_s"] = 0.0153
    assert run_diff(tmp_path, new, newer) == 0  # host drift never gates
    assert "host: reference loop 10.20 ms -> 15.30 ms  (+50.0%)" in capsys.readouterr().out
    assert diff.format_host_line(0.02, None) == "host: reference loop 20.00 ms -> not recorded"


def test_reference_loop_is_recorded_in_the_host_block_only(monkeypatch, capsys):
    from repro.bench import cli
    from repro.bench.report import deterministic_view

    monkeypatch.setattr(cli, "run_benches", lambda **_kwargs: [])
    assert cli.main([]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["host"]["reference_s"] > 0
    assert "reference_s" not in json.dumps(deterministic_view(report))
