"""The analysis context: one Program per invocation builds each shared fact once."""

from __future__ import annotations

import collections
import contextlib
import io
import json

from repro.analysis import callgraph, cli, races, summaries

PLANT = """
RESULTS = []


class Pump:
    def start(self):
        self.kernel.schedule(1.0, self._open)
        self.kernel.schedule(1.0, self._close)

    def _open(self):
        self._set("open")

    def _close(self):
        self.valve = "closed"

    def _set(self, state):
        self.valve = state

    def stop(self):
        self.running = False


def work(item):
    RESULTS.append(item)
    return item


def fan_out(items):
    return parallel_map(work, items)
"""

TASKS = """
def double(item):
    return 2 * item
"""


def _lint(tmp_path, monkeypatch):
    """Lint a two-module tree; returns (rule ids, build counts, direct-summary counts)."""
    (tmp_path / "plant.py").write_text(PLANT, encoding="utf-8")
    (tmp_path / "tasks.py").write_text(TASKS, encoding="utf-8")
    builds = collections.Counter()
    directs = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            builds[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_direct = summaries.direct_effects

    def direct(info, *args):
        directs[(info.path, info.qualname, info.node.lineno)] += 1
        return real_direct(info, *args)

    monkeypatch.setattr(callgraph, "build_call_graph", counted("graph", callgraph.build_call_graph))
    monkeypatch.setattr(races, "collect_models", counted("models", races.collect_models))
    monkeypatch.setattr(summaries, "direct_effects", direct)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([str(tmp_path), "--format", "json"])
    rules = sorted(f["rule"] for f in json.loads(out.getvalue())["findings"])
    return rules, builds, directs


def test_all_six_passes_build_graph_models_and_summaries_once(tmp_path, monkeypatch):
    rules, builds, directs = _lint(tmp_path, monkeypatch)
    assert rules == ["PURE001", "RACE101"]
    assert builds == {"graph": 1, "models": 1}
    # Every function summarised (the handlers for RACE001-003 and the
    # whole graph for propagation), none of them twice.
    assert len(directs) == 8
    assert set(directs.values()) == {1}
