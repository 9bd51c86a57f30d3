"""CLI contract tests for ``oftt-chaos``."""

import json

import pytest

from repro.chaos.cli import main
from repro.chaos.report import JSON_SCHEMA


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_small_campaign_passes(capsys):
    code, out = run_cli(capsys, "--seeds", "1", "--schedules", "2")
    assert code == 0
    assert "2 run(s): 2 ok" in out


def test_json_report_schema(capsys):
    code, out = run_cli(capsys, "--seeds", "1", "--schedules", "1", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["schema"] == JSON_SCHEMA
    assert document["mode"] == "campaign"
    assert document["summary"]["runs"] == 1
    assert document["summary"]["failed"] == 0
    assert document["minimization"] is None
    assert len(document["runs"]) == 1
    assert document["runs"][0]["passed"] is True


def test_self_test_catches_sabotage_and_minimizes(capsys):
    code, out = run_cli(capsys, "--self-test", "--format", "json")
    assert code == 1
    document = json.loads(out)
    assert document["mode"] == "self-test"
    # Both sabotage cases must be caught by their dedicated monitors.
    assert document["summary"]["failed"] == 2
    assert document["summary"]["violations"] >= 2
    fired = {v["invariant"] for run in document["runs"] for v in run["violations"]}
    assert "split-brain" in fired
    assert "restart-thrash" in fired
    minimization = document["minimization"]
    assert minimization is not None
    assert minimization["reproduced"] is True
    assert minimization["minimal_size"] <= 3


def test_drift_campaign_green_with_and_without_policy(capsys):
    code, out = run_cli(capsys, "--drift", "crashy", "--seeds", "1")
    assert code == 0
    code, out = run_cli(capsys, "--drift", "crashy", "--policy", "--seeds", "1", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["mode"] == "drift:crashy"
    assert document["summary"]["failed"] == 0


def test_governed_thrash_schedule_is_green_without_sabotage():
    # The exact self-test recipe minus the sabotage: the adaptive
    # policy's thrash detector escalates before the restart-thrash
    # monitor's budget is burned.
    from repro.chaos.cli import (
        SELF_TEST_THRASH_ENTRIES,
        SELF_TEST_THRASH_HORIZON,
        _thrash_config,
    )
    from repro.chaos.runner import run_schedule
    from repro.chaos.schedule import ChaosSchedule

    schedule = ChaosSchedule(
        entries=list(SELF_TEST_THRASH_ENTRIES), horizon=SELF_TEST_THRASH_HORIZON
    )
    result = run_schedule(0, schedule, config=_thrash_config())
    assert result.passed, result.violation_names()


def test_same_invocation_is_byte_identical(capsys):
    _, first = run_cli(capsys, "--seeds", "1", "--schedules", "2", "--format", "json")
    _, second = run_cli(capsys, "--seeds", "1", "--schedules", "2", "--format", "json")
    assert first == second


def test_usage_error_exit_code(capsys):
    assert main(["--seeds", "0"]) == 2
    # JSON output has one spelling, --format json.
    with pytest.raises(SystemExit) as exit_info:
        main(["--json"])
    assert exit_info.value.code == 2


def test_out_writes_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "--seeds", "1", "--schedules", "1", "--format", "json", "--out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == out
