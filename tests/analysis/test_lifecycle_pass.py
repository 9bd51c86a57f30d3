"""Unit tests for the lifecycle pass: manifest, matching, rules, CLI."""

from __future__ import annotations

import ast

import pytest

from repro.analysis import cli, lifecycle
from repro.analysis.callgraph import DEFAULT_MAX_K
from repro.analysis.findings import AnalysisError
from repro.analysis.lifecycle import LifecycleSpec, PairSpec
from repro.analysis.program import Program, run_passes
from repro.analysis.walker import load_sources

from tests.analysis.util import method_chain, package_program

TIMER_SPEC = LifecycleSpec(
    pairs=(PairSpec("timer", "Kernel", "schedule", None, ("cancel",)),),
    teardowns=("close", "delete", "shutdown", "stop"),
    handler_prefixes=("on_", "_on_"),
)

SUBSCRIPTION_SPEC = LifecycleSpec(
    pairs=(PairSpec("subscription", "Bus", "subscribe", None, ("unsubscribe",)),),
    teardowns=("close", "delete", "shutdown", "stop"),
    handler_prefixes=("on_", "_on_"),
)


def _lint(tmp_path, source, spec, name="mod.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    files, load_findings = load_sources([str(path)])
    assert load_findings == []
    return lifecycle.run_with_spec(Program(files), spec)


def _ids(findings):
    return [(f.rule.rule_id, f.line) for f in findings]


# -- manifest parsing ------------------------------------------------------


def test_manifest_parses_pairs_teardowns_and_handlers(tmp_path):
    manifest = tmp_path / "life.manifest"
    manifest.write_text(
        "# comment\n"
        "pair timer Kernel.schedule -> cancel\n"
        "pair subscription Engine.on_boot.append -> remove, discard  # hooks\n"
        "teardown detach, retire\n"
        "handler handle_\n",
        encoding="utf-8",
    )
    spec = lifecycle.load_manifest(str(manifest))
    assert spec.pairs[0] == PairSpec("timer", "Kernel", "schedule", None, ("cancel",))
    assert spec.pairs[1] == PairSpec(
        "subscription", "Engine", "append", "on_boot", ("remove", "discard")
    )
    assert "detach" in spec.teardowns and "retire" in spec.teardowns
    assert "stop" in spec.teardowns  # defaults always included
    assert spec.handler_prefixes == ("handle_",)


@pytest.mark.parametrize(
    "line",
    [
        "pair gizmo Kernel.schedule -> cancel",  # unknown kind
        "pair timer Kernel.schedule",  # missing arrow
        "pair timer Kernel.schedule ->",  # no release
        "pair timer schedule -> cancel",  # no owner component
        "subscribe timer Kernel.schedule -> cancel",  # unknown directive
        "teardown",  # no names
    ],
)
def test_manifest_rejects_malformed_lines(tmp_path, line):
    manifest = tmp_path / "life.manifest"
    manifest.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(AnalysisError):
        lifecycle.load_manifest(str(manifest))


def test_manifest_missing_file_is_a_usage_error():
    with pytest.raises(AnalysisError):
        lifecycle.load_manifest("/nonexistent/life.manifest")


def test_default_manifest_is_checked_in_and_parses():
    spec = lifecycle.load_manifest(lifecycle.DEFAULT_MANIFEST)
    acquires = {pair.acquire for pair in spec.pairs}
    assert {"schedule", "watch", "create_process", "subscribe"} <= acquires
    assert all(pair.kind in lifecycle.KINDS for pair in spec.pairs)
    assert "detach" in spec.teardowns


def test_default_manifest_pairs_resolve_in_the_package():
    # An acquire that names nothing matches nothing, so a pair left behind
    # by a deleted method goes unnoticed.  Over the whole package every
    # OWNER.ACQUIRE must be a method, and every hook-list OWNER.ATTR.APPEND
    # an attribute that OWNER's methods assign.
    spec = lifecycle.load_manifest(lifecycle.DEFAULT_MANIFEST)
    graph = package_program().graph
    methods = {info.qualname for info in graph.functions.values()}
    attrs = {
        f"{info.class_name}.{node.attr}"
        for info in graph.functions.values()
        if info.class_name is not None
        for node in ast.walk(info.node)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }

    def resolves(pair):
        if pair.qualifier is not None:
            return f"{pair.owner}.{pair.qualifier}" in attrs
        return f"{pair.owner}.{pair.acquire}" in methods

    assert [pair for pair in spec.pairs if not resolves(pair)] == []


# -- handle rules (LIFE001/LIFE003/LIFE005) --------------------------------


LEAKED_TIMER = '''
class Looper:
    def __init__(self, kernel):
        self.kernel = kernel
        self._timer = None

    def start(self):
        self._timer = self.kernel.schedule(10.0, self._tick)

    def stop(self):
        pass

    def _tick(self):
        pass
'''


def test_stored_handle_without_release_is_flagged(tmp_path):
    assert _ids(_lint(tmp_path, LEAKED_TIMER, TIMER_SPEC)) == [("LIFE001", 8)]


RELEASED_VIA_HELPER = '''
class Looper:
    def __init__(self, kernel):
        self.kernel = kernel
        self._timer = None

    def start(self):
        self._cancel()
        self._timer = self.kernel.schedule(10.0, self._tick)

    def stop(self):
        self._cancel()

    def _cancel(self):
        if self._timer is not None:
            self.kernel.cancel(self._timer)
            self._timer = None

    def _tick(self):
        pass
'''


def test_release_through_helper_within_k_is_clean(tmp_path):
    assert _lint(tmp_path, RELEASED_VIA_HELPER, TIMER_SPEC) == []


def _released_through(hops):
    """A Looper whose stop() reaches the cancel of its timer in *hops* call hops."""
    return (
        "class Looper:\n"
        "    def __init__(self, kernel):\n"
        "        self.kernel = kernel\n"
        "        self._timer = self.kernel.schedule(10.0, self._tick)\n"
        "\n"
        "    def stop(self):\n"
        "        self._hop1()\n"
        "\n"
        "    def _tick(self):\n"
        "        pass\n"
        "\n" + method_chain(hops, "self.kernel.cancel(self._timer)")
    )


def test_release_one_hop_past_max_k_is_not_seen(tmp_path):
    # The release search follows DEFAULT_MAX_K hops below the teardown
    # method and no further.
    assert _lint(tmp_path, _released_through(DEFAULT_MAX_K), TIMER_SPEC) == []
    found = _ids(_lint(tmp_path, _released_through(DEFAULT_MAX_K + 1), TIMER_SPEC))
    assert found == [("LIFE001", 4)]


def test_teardown_method_may_reacquire(tmp_path):
    source = LEAKED_TIMER.replace("def start(self)", "def stop2(self)")
    # Moving the acquire into a teardown-named method would exempt it;
    # renaming to a non-teardown name keeps the flag.
    assert _ids(_lint(tmp_path, source, TIMER_SPEC)) == [("LIFE001", 8)]


SELF_RESCHEDULING = '''
class Looper:
    def __init__(self, kernel):
        self.kernel = kernel

    def stop(self):
        pass

    def _tick(self):
        self.kernel.schedule(10.0, self._tick)
'''


def test_discarded_self_rescheduling_loop_is_flagged(tmp_path):
    assert _ids(_lint(tmp_path, SELF_RESCHEDULING, TIMER_SPEC)) == [("LIFE001", 10)]


def test_discarded_one_shot_is_assumed_self_limiting(tmp_path):
    source = SELF_RESCHEDULING.replace("self.kernel.schedule(10.0, self._tick)",
                                       "self.kernel.schedule(10.0, self._other)")
    assert _lint(tmp_path, source, TIMER_SPEC) == []


REARM = '''
class Watchdog:
    def __init__(self, kernel):
        self.kernel = kernel
        self._timer = None

    def rearm(self):
        self._timer = self.kernel.schedule(10.0, self._expired)

    def stop(self):
        if self._timer is not None:
            self.kernel.cancel(self._timer)

    def _expired(self):
        self._timer = self.kernel.schedule(10.0, self._expired)
'''


def test_rearm_without_cancel_is_flagged_outside_own_callback(tmp_path):
    # rearm() overwrites without cancelling -> LIFE005; the re-arm
    # inside _expired() (the handle's own callback) is exempt.
    assert _ids(_lint(tmp_path, REARM, TIMER_SPEC)) == [("LIFE005", 8)]


def test_super_chained_teardown_reaches_base_release(tmp_path):
    source = '''
class Base:
    def stop(self):
        if self.process is not None:
            self.process.kill()

class App(Base):
    def __init__(self, system):
        self.system = system
        self.process = None

    def launch(self):
        self.process = self.system.create_process("app")

    def stop(self):
        super().stop()
'''
    spec = LifecycleSpec(
        pairs=(PairSpec("process", "System", "create_process", None, ("kill",)),),
        teardowns=("stop",),
        handler_prefixes=("on_",),
    )
    assert _lint(tmp_path, source, spec) == []


# -- registration rules (LIFE002/LIFE004) ----------------------------------


def test_registration_release_must_match_self_rooted_chain(tmp_path):
    source = '''
class View:
    def __init__(self, bus_a, bus_b):
        self.bus_a = bus_a
        self.bus_b = bus_b

    def attach(self):
        self.bus_a.subscribe(self._on_event)

    def stop(self):
        self.bus_b.unsubscribe(self._on_event)

    def _on_event(self, event):
        pass
'''
    # unsubscribing a *different* self-rooted receiver does not balance.
    assert _ids(_lint(tmp_path, source, SUBSCRIPTION_SPEC)) == [("LIFE004", 8)]
    fixed = source.replace("self.bus_b.unsubscribe", "self.bus_a.unsubscribe")
    assert _lint(tmp_path, fixed, SUBSCRIPTION_SPEC) == []


def test_hook_list_qualifier_matching(tmp_path):
    source = '''
class Monitor:
    def __init__(self):
        self.notes = []

    def on_engine(self, engine):
        def on_boot(eng):
            pass
        engine.on_boot.append(on_boot)

    def _remember(self, note):
        self.notes.append(note)
'''
    spec = LifecycleSpec(
        pairs=(PairSpec("subscription", "Engine", "append", "on_boot", ("remove",)),),
        teardowns=("detach",),
        handler_prefixes=("on_",),
    )
    found = _ids(_lint(tmp_path, source, spec))
    # engine.on_boot.append matches the qualified pair; the plain
    # self.notes.append in _remember does not.
    assert found == [("LIFE004", 9)]


# -- growth rule (LIFE006) -------------------------------------------------


def test_handler_growth_without_prune_is_flagged(tmp_path):
    source = '''
class Collector:
    def __init__(self):
        self.log = []

    def _on_message(self, message):
        self.log.append(message)
'''
    assert _ids(_lint(tmp_path, source, TIMER_SPEC)) == [("LIFE006", 7)]


def test_growth_with_prune_anywhere_in_class_is_clean(tmp_path):
    source = '''
class Collector:
    def __init__(self):
        self.log = []

    def _on_message(self, message):
        self.log.append(message)

    def drain(self):
        self.log.clear()
'''
    assert _lint(tmp_path, source, TIMER_SPEC) == []


def test_bounded_deque_is_self_pruning(tmp_path):
    source = '''
from collections import deque


class Collector:
    def __init__(self):
        self.log = deque(maxlen=64)

    def _on_message(self, message):
        self.log.append(message)
'''
    assert _lint(tmp_path, source, TIMER_SPEC) == []


def test_growth_reached_through_handler_callee_is_flagged(tmp_path):
    source = '''
class Collector:
    def __init__(self):
        self.log = []

    def _on_message(self, message):
        self._note(message)

    def _note(self, message):
        self.log.append(message)
'''
    assert _ids(_lint(tmp_path, source, TIMER_SPEC)) == [("LIFE006", 10)]


def test_registered_callback_counts_as_handler(tmp_path):
    source = '''
class Poller:
    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self._timer = None

    def stop(self):
        if self._timer is not None:
            self.kernel.cancel(self._timer)

    def _sample(self):
        self.samples.append(1)
        self._timer = self.kernel.schedule(10.0, self._sample)
'''
    assert _ids(_lint(tmp_path, source, TIMER_SPEC)) == [("LIFE006", 13)]


def test_suppression_comment_silences_lifecycle_finding(tmp_path):
    source = LEAKED_TIMER.replace(
        "self._timer = self.kernel.schedule(10.0, self._tick)",
        "self._timer = self.kernel.schedule(10.0, self._tick)  # oftt-lint: ok[leaked-timer]",
    )
    path = tmp_path / "mod.py"
    path.write_text(source, encoding="utf-8")
    files, load_findings = load_sources([str(path)])
    assert load_findings == []
    assert run_passes(files, [lambda program: lifecycle.run_with_spec(program, TIMER_SPEC)]) == []


# -- CLI wiring ------------------------------------------------------------


LEAKY_CLI_SOURCE = (
    "class Looper:\n"
    "    def __init__(self, kernel):\n"
    "        self.kernel = kernel\n"
    "        self._timer = None\n"
    "\n"
    "    def start(self):\n"
    "        self._timer = self.kernel.schedule(10.0, self._tick)\n"
    "\n"
    "    def stop(self):\n"
    "        pass\n"
    "\n"
    "    def _tick(self):\n"
    "        pass\n"
)


def test_cli_lifecycle_flag_runs_the_pass(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(LEAKY_CLI_SOURCE, encoding="utf-8")
    code = cli.main([str(target)])
    out = capsys.readouterr().out
    assert code == 1  # warnings gate
    assert "LIFE001" in out


def test_list_rules_is_grouped_by_family(capsys):
    assert cli.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "# LIFE" in out and "# HOT" in out and "# DET" in out
    for rule_id in ("LIFE001", "LIFE002", "LIFE003", "LIFE004", "LIFE005", "LIFE006"):
        assert rule_id in out
