"""CLI contract for ``oftt-replay``: exit codes, JSON schema, reporters."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.replay import cli
from repro.replay.report import JSON_SCHEMA, outcome_counts, render_json, render_text
from repro.replay.runner import run_twice_and_diff
from repro.replay.subjects import SUBJECTS, Subject
from repro.simnet.trace import TraceLog


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def _diverging_subject(name):
    orders = itertools.cycle([["a", "b"], ["b", "a"]])

    def factory(seed):
        log = TraceLog(clock=lambda: 1.0)
        for handle in next(orders):
            log.emit("opc", "opc-group", "item-update", handle=handle)
        return log

    def check(seed):
        return run_twice_and_diff(factory, seed=seed, subject=name)

    return Subject(name=name, kind="trace", description="scratch diverging fixture", check=check)


def test_clean_subject_exits_zero(capsys):
    code, out = run_cli(["demo"], capsys)
    assert code == 0
    assert "[ok] demo" in out
    assert "1 subject(s): 1 ok, 0 diverged" in out


def test_unknown_subject_is_usage_error(capsys):
    code, out = run_cli(["no-such-subject"], capsys)
    assert code == 2
    assert "unknown subject" in out
    # JSON output has one spelling, --format json.
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--json"])
    assert exit_info.value.code == 2


def test_diverging_subject_gates_and_names_the_fork(monkeypatch, capsys):
    monkeypatch.setitem(SUBJECTS, "scratch-fanout", _diverging_subject("scratch-fanout"))
    code, out = run_cli(["scratch-fanout"], capsys)
    assert code == 1
    assert "[DIVERGED] scratch-fanout" in out
    assert "component='opc-group'" in out
    assert "event='item-update'" in out


def test_json_reporter_round_trips(monkeypatch, capsys):
    monkeypatch.setitem(SUBJECTS, "scratch-fanout", _diverging_subject("scratch-fanout"))
    code, out = run_cli(["demo", "scratch-fanout", "--format", "json"], capsys)
    assert code == 1
    document = json.loads(out)
    assert document["schema"] == JSON_SCHEMA
    assert document["counts"] == {"ok": 1, "diverged": 1}
    kinds = {result["subject"]: result["ok"] for result in document["results"]}
    assert kinds == {"demo": True, "scratch-fanout": False}
    diverged = next(r for r in document["results"] if not r["ok"])
    assert diverged["divergence"]["component"] == "opc-group"


def test_list_subjects(capsys):
    code, out = run_cli(["--list-subjects"], capsys)
    assert code == 0
    for name in SUBJECTS:
        assert name in out


def test_report_helpers_cover_roundtrip_results():
    results = [SUBJECTS["roundtrip-calltrack"].check(0)]
    assert outcome_counts(results) == {"ok": 1, "diverged": 0}
    text = render_text(results)
    assert "roundtrip-calltrack" in text
    document = json.loads(render_json(results))
    assert document["results"][0]["kind"] == "roundtrip"
