"""Byte-identity of every --jobs surface: chaos, replay, experiments.

The executor's whole promise is that worker count is unobservable in the
output.  These tests render each CLI's report at jobs 1/2/4 and require
the exact same bytes — including the failing-campaign path, where the
report embeds a ddmin minimization whose result must not change either.
"""

from __future__ import annotations

import pytest

from repro.bench.cli import main as bench_main
from repro.chaos.cli import campaign
from repro.chaos.cli import main as chaos_main
from repro.chaos.report import render_json, render_text
from repro.harness.run_experiments import main as experiments_main
from repro.replay.cli import main as replay_main


def _capture(capsys, main, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_chaos_campaign_bytes_stable_across_jobs():
    # 2 seeds x 2 schedules; both the JSON and the text report.
    reports = {}
    for jobs in (1, 2, 4):
        result = campaign(2, 2, 0, jobs=jobs)
        reports[jobs] = (render_json(result), render_text(result))
    assert reports[2] == reports[1]
    assert reports[4] == reports[1]


def test_failing_sabotaged_campaign_and_ddmin_stable_across_jobs(capsys):
    # Seed 0's first generated schedule fails under the self-test
    # sabotage, so this report includes violations AND the serial ddmin
    # minimization — the hardest thing to keep jobs-invariant.
    argv = ["--seeds", "1", "--schedules", "2", "--format", "json",
            "--sabotage", "disable-dual-primary-resolution"]
    outputs = {}
    for jobs in (1, 2, 4):
        code, out = _capture(capsys, chaos_main, argv + ["--jobs", str(jobs)])
        assert code == 1  # the sabotage must be caught at every jobs value
        outputs[jobs] = out
    assert '"minimization"' in outputs[1]
    assert outputs[2] == outputs[1]
    assert outputs[4] == outputs[1]


def test_replay_subjects_bytes_stable_across_jobs(capsys):
    argv = ["demo", "roundtrip-synthetic-selective", "--format", "json"]
    outputs = {}
    for jobs in (1, 2):
        code, out = _capture(capsys, replay_main, argv + ["--jobs", str(jobs)])
        assert code == 0
        outputs[jobs] = out
    assert outputs[2] == outputs[1]


def test_run_experiments_bytes_stable_across_jobs(capsys):
    outputs = {}
    for jobs in (1, 2):
        code, out = _capture(capsys, experiments_main, ["F3", "X1", "--jobs", str(jobs)])
        assert code == 0
        outputs[jobs] = out
    assert outputs[2] == outputs[1]


def test_chaos_rejects_unknown_sabotage(capsys):
    assert chaos_main(["--sabotage", "no-such-hook", "--format", "json"]) == 2


@pytest.mark.parametrize(
    "main, argv, runner",
    [
        (chaos_main, ["--jobs", "-1"], "repro.chaos.cli.parallel_map"),
        (replay_main, ["--jobs", "-1"], "repro.replay.cli.parallel_map"),
        (bench_main, ["--only", "kernel-events", "--jobs", "-1"], "repro.bench.cli.run_benches"),
        (experiments_main, ["X5", "--jobs", "-1"], "repro.harness.run_experiments.parallel_map"),
    ],
    ids=["oftt-chaos", "oftt-replay", "oftt-bench", "run_experiments"],
)
def test_negative_jobs_is_a_usage_error_before_anything_runs(monkeypatch, capsys, main, argv, runner):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError(f"{runner} ran despite --jobs -1")

    monkeypatch.setattr(runner, must_not_run)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "argument --jobs: must be >= 0, got -1" in capsys.readouterr().err
