"""Unit tests for the hotpath pass: manifest, propagation, rules, CLI."""

from __future__ import annotations

import pytest

from repro.analysis import cli, hotpath
from repro.analysis.callgraph import DEFAULT_MAX_K
from repro.analysis.findings import AnalysisError
from repro.analysis.hotpath import RootSpec
from repro.analysis.program import Program, run_passes
from repro.analysis.walker import load_sources

from tests.analysis.util import method_chain, package_program


def _lint(tmp_path, source, roots, name="mod.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    files, load_findings = load_sources([str(path)])
    assert load_findings == []
    return hotpath.run_with_roots(Program(files), roots)


PROPAGATION_SOURCE = '''
import math


class Widget:
    def entry(self):
        return self._middle()

    def _middle(self):
        return self._leaf()

    def _leaf(self):
        return math.sqrt(2.0)


class Bystander:
    def entry(self):
        return math.sqrt(2.0)
'''


def test_hotness_propagates_two_hops_below_root(tmp_path):
    findings = _lint(tmp_path, PROPAGATION_SOURCE, [RootSpec("mod", "Widget.entry")])
    assert [f.rule.rule_id for f in findings] == ["HOT006"]
    # anchored in the leaf helper, with the route in the message
    assert findings[0].line == 13
    assert "hot via Widget.entry -> Widget._middle -> Widget._leaf" in findings[0].message


def test_same_code_outside_any_hot_root_is_not_flagged(tmp_path):
    # Bystander.entry is byte-identical hot-path-hostile code, but no
    # root reaches it: zero findings.
    findings = _lint(tmp_path, PROPAGATION_SOURCE, [RootSpec("mod", "Widget.entry")])
    assert all("Bystander" not in f.message for f in findings)
    assert len(findings) == 1


def test_max_k_bounds_the_propagation(tmp_path):
    # A leaf DEFAULT_MAX_K hops below the root is hot; one hop deeper it is
    # outside the budget.
    def chain(hops):
        source = "import math\n\n\nclass Widget:\n    def entry(self):\n        self._hop1()\n\n"
        return source + method_chain(hops, "return math.sqrt(2.0)")

    roots = [RootSpec("mod", "Widget.entry")]
    findings = _lint(tmp_path, chain(DEFAULT_MAX_K), roots)
    assert [f.rule.rule_id for f in findings] == ["HOT006"]
    assert f"-> Widget._hop{DEFAULT_MAX_K}" in findings[0].message
    assert _lint(tmp_path, chain(DEFAULT_MAX_K + 1), roots) == []


def test_declared_root_itself_is_checked(tmp_path):
    source = "import math\n\n\nclass Hot:\n    def run(self):\n        return math.sqrt(2.0)\n"
    findings = _lint(tmp_path, source, [RootSpec("mod", "Hot.run")])
    assert [f.rule.rule_id for f in findings] == ["HOT006"]
    assert "declared hot root" in findings[0].message


def test_unmatched_roots_are_inert(tmp_path):
    findings = _lint(tmp_path, PROPAGATION_SOURCE, [RootSpec("elsewhere", "Widget.entry")])
    assert findings == []


def test_module_suffix_matching(tmp_path):
    # The analysed module name is a long dotted path ending in ".mod";
    # the spec only names the suffix.
    findings = _lint(tmp_path, PROPAGATION_SOURCE, [RootSpec("mod", "Widget.entry")])
    assert findings != []


def test_suppression_comment_silences_hot_finding(tmp_path):
    source = (
        "import math\n\n\nclass Hot:\n    def run(self):\n"
        "        return math.sqrt(2.0)  # oftt-lint: ok[hot-ambient-relookup]\n"
    )
    path = tmp_path / "mod.py"
    path.write_text(source, encoding="utf-8")
    files, _ = load_sources([str(path)])
    roots = [RootSpec("mod", "Hot.run")]
    findings = run_passes(files, [lambda program: hotpath.run_with_roots(program, roots)])
    assert findings == []


def test_invariant_self_attr_reread_in_loop_is_flagged(tmp_path):
    source = '''
class Hot:
    def __init__(self):
        self.limit = 10

    def run(self, values):
        total = 0
        for value in values:
            if value < self.limit:
                total += self.limit
        return total
'''
    findings = _lint(tmp_path, source, [RootSpec("mod", "Hot.run")])
    assert [f.rule.rule_id for f in findings] == ["HOT006"]
    assert "self.limit" in findings[0].message


def test_self_attr_mutated_outside_init_is_not_invariant(tmp_path):
    # `limit` is rebound by another method, so binding it to a local
    # before the loop would be a behaviour change — no finding.
    source = '''
class Hot:
    def __init__(self):
        self.limit = 10

    def grow(self):
        self.limit = self.limit * 2

    def run(self, values):
        total = 0
        for value in values:
            if value < self.limit:
                total += self.limit
        return total
'''
    findings = _lint(tmp_path, source, [RootSpec("mod", "Hot.run")])
    assert findings == []


# -- manifest parsing ------------------------------------------------------


def test_manifest_parses_comments_and_suffix_specs(tmp_path):
    manifest = tmp_path / "roots.manifest"
    manifest.write_text(
        "# comment line\n"
        "\n"
        "repro.simnet.kernel:SimKernel.run  # trailing comment\n"
        "trace:TraceLog.emit\n",
        encoding="utf-8",
    )
    specs = hotpath.load_manifest(str(manifest))
    assert specs == [
        RootSpec("repro.simnet.kernel", "SimKernel.run"),
        RootSpec("trace", "TraceLog.emit"),
    ]


def test_manifest_rejects_malformed_lines(tmp_path):
    manifest = tmp_path / "roots.manifest"
    manifest.write_text("no-colon-here\n", encoding="utf-8")
    with pytest.raises(AnalysisError, match="bad hot-root spec"):
        hotpath.load_manifest(str(manifest))


def test_manifest_missing_file_is_a_usage_error(tmp_path):
    with pytest.raises(AnalysisError, match="cannot read"):
        hotpath.load_manifest(str(tmp_path / "nope.manifest"))


def test_default_manifest_is_checked_in_and_parses():
    specs = hotpath.load_manifest(hotpath.DEFAULT_MANIFEST)
    qualnames = {spec.qualname for spec in specs}
    assert "SimKernel.run" in qualnames
    assert "TraceLog.emit" in qualnames
    assert "TraceRecord.fingerprint" in qualnames
    # resolve_roots skips a root that matches nothing, because a partial
    # lint sees a subset of the tree; over the whole package every root
    # must name a function, or a deleted function's root goes unnoticed.
    graph = package_program().graph
    stale = [spec for spec in specs if not hotpath.resolve_roots(graph, [spec])]
    assert stale == []


# -- CLI integration -------------------------------------------------------


def test_cli_hotpath_flag_runs_the_pass(tmp_path, capsys):
    # Every invocation runs the hot pass under the shipped manifest: a
    # module at a shipped root's dotted path is hot.
    target = tmp_path / "repro" / "simnet" / "kernel.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import math\n\n\nclass SimKernel:\n    def run(self):\n        return math.sqrt(2.0)\n",
        encoding="utf-8",
    )
    code = cli.main([str(target)])
    out = capsys.readouterr().out
    assert code == 1  # warnings gate
    assert "HOT006" in out
